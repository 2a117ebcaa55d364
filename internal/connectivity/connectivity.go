// Package connectivity implements the minimum connectivity-threshold
// realizations of §6. Each node holds ρ(v) = max_u σ(u,v), and the output
// overlay G guarantees Conn_G(u,v) ≥ min(ρ(u), ρ(v)) with at most Σρ edges —
// a 2-approximation of the optimal edge count (whose lower bound is Σρ/2).
//
//   - RealizeNCC1 (Theorem 17): the O~(1) implicit algorithm for NCC1 —
//     find the node w with maximum ρ by aggregation, then every node v
//     locally picks X_v = {w} ∪ (ρ(v)−1 arbitrary other nodes) and stores
//     X_v × {v}. Correctness follows from Menger's theorem via the star of
//     edge-disjoint paths through w.
//   - RealizeNCC0 (Theorem 18, Algorithm 6): sort by non-increasing ρ;
//     realize (ρ(x₁),…,ρ(x_{d₀+1})) on the d₀+1 core nodes via the
//     upper-envelope degree realization of Theorem 13; then every later
//     rank i connects explicitly to its ρ(xᵢ) immediate predecessors using
//     uniform-shift waves, O~(Δ) rounds in total.
package connectivity

import (
	"graphrealize/internal/aggregate"
	"graphrealize/internal/core"
	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
	"graphrealize/internal/rankov"
	"graphrealize/internal/sortnet"
)

// Outcome reports a node's view of the connectivity realization.
type Outcome struct {
	// OK is false if the threshold vector is infeasible (ρ outside [0,n−1]).
	OK bool
	// Stored counts the edges this node stored.
	Stored int
	// D0 is the maximum threshold (common knowledge after the run).
	D0 int
}

// RealizeNCC1 runs the Theorem 17 algorithm and delivers the Outcome to
// k. It must run under the NCC1 model (it uses full ID knowledge); rho is
// this node's threshold.
func RealizeNCC1(nd *ncc.Node, rho int, k func(Outcome) ncc.Op) ncc.Op {
	out := Outcome{}
	n := nd.N()
	// Even NCC1 needs a structure for aggregation; the Gk tree costs
	// O(log n) rounds and keeps the protocol identical to the NCC0 stack.
	return primitives.BuildAll(nd, func(_ primitives.Path, _ primitives.Levels, gk primitives.Tree) ncc.Op {
		bad := int64(0)
		if rho < 0 || rho > n-1 {
			bad = 1
		}
		return aggregate.AggregateBroadcast(nd, &gk, bad, aggregate.OrOp(), func(anyBad int64) ncc.Op {
			if anyBad == 1 {
				nd.Unrealizable()
				return k(out)
			}
			out.OK = true
			if n == 1 {
				return k(out)
			}
			// Find w = argmax ρ (ties toward the smaller ID), by encoded max.
			enc := int64(rho)*int64(n+2) + int64(n+1) - int64(nd.ID())
			return aggregate.AggregateBroadcast(nd, &gk, enc, aggregate.MaxOp(), func(best int64) ncc.Op {
				w := ncc.ID(int64(n+1) - best%int64(n+2))
				out.D0 = int(best / int64(n+2))
				if nd.ID() == w || rho == 0 {
					return k(out)
				}
				// X_v = {w} plus the first ρ(v)−1 other IDs, entirely local
				// in NCC1.
				nd.AddEdge(w)
				out.Stored++
				for _, id := range nd.AllIDs() {
					if out.Stored >= rho {
						break
					}
					if id == nd.ID() || id == w {
						continue
					}
					nd.AddEdge(id)
					out.Stored++
				}
				return k(out)
			})
		})
	})
}

// RealizeNCC0 runs Algorithm 6 (works in NCC0 and NCC1) and delivers the
// Outcome to k. env must come from core.Setup on the same run; rho is
// this node's threshold. The realization is explicit: both endpoints of
// every edge store it.
func RealizeNCC0(nd *ncc.Node, env *core.Env, rho int, k func(Outcome) ncc.Op) ncc.Op {
	out := Outcome{}
	n := nd.N()
	bad := int64(0)
	if rho < 0 || rho > n-1 {
		bad = 1
	}
	return aggregate.AggregateBroadcast(nd, &env.GK, bad, aggregate.OrOp(), func(anyBad int64) ncc.Op {
		if anyBad == 1 {
			nd.Unrealizable()
			return k(out)
		}
		out.OK = true
		if n == 1 {
			return k(out)
		}

		// Step 1–2: sort by non-increasing ρ and broadcast d₀ = ρ(x₁).
		return env.Sort.Sort(nd, int64(rho), func(sr sortnet.Result) ncc.Op {
			return rankov.Build(nd, sr.Rank, sr.Pred, sr.Succ, func(ov *rankov.Overlay) ncc.Op {
				return aggregate.AggregateBroadcast(nd, &env.GK, int64(rho), aggregate.MaxOp(), func(d064 int64) ncc.Op {
					d0 := int(d064)
					out.D0 = d0
					if d0 == 0 {
						return k(out)
					}

					// Step 3: upper-envelope degree realization over the core
					// x₁..x_{d₀+1} (Theorem 13), made explicit so the Menger
					// star argument applies with both endpoints aware.
					inCore := sr.Rank <= d0
					coreDeg := 0
					if inCore {
						coreDeg = rho
					}
					return core.Realize(nd, env, coreDeg, core.Envelope, inCore, func(degOut core.Outcome) ncc.Op {
						out.Stored += len(degOut.Neighbors)
						return core.MakeExplicit(nd, env, degOut.Neighbors, d0, func(stored int) ncc.Op {
							out.Stored += stored

							// Steps 4–6: each rank i > d₀ introduces itself to
							// its ρ predecessors via uniform-shift waves; each
							// wave w serves distance w in ⌈log n⌉ rounds with
							// zero contention, and the reverse wave makes it
							// explicit.
							tailRho := int64(0)
							if sr.Rank > d0 {
								tailRho = int64(rho)
							}
							return aggregate.AggregateBroadcast(nd, &env.GK, tailRho, aggregate.MaxOp(), func(maxW int64) ncc.Op {
								ws := &waves{nd: nd, ov: ov, out: out, rho: rho, tail: sr.Rank > d0, maxW: int(maxW), k: k}
								ws.downK, ws.upK = ws.down, ws.up
								return ws.wave(1)
							})
						})
					})
				})
			})
		})
	})
}

// waves is Steps 4–6 of RealizeNCC0 at one node: wave w shifts every tail
// node's ID w ranks down, to the predecessor it connects to, and the
// reply back up, for w = 1..maxW. One Shifter serves every wave.
type waves struct {
	nd         *ncc.Node
	ov         *rankov.Overlay
	out        Outcome
	rho        int
	tail       bool // the node's rank is past the core, d₀
	w, maxW    int
	sh         rankov.Shifter
	downK, upK func([]rankov.ShiftToken) ncc.Op
	k          func(Outcome) ncc.Op
}

// wave starts wave w, or delivers the Outcome after the last one.
func (s *waves) wave(w int) ncc.Op {
	if w > s.maxW {
		return s.k(s.out)
	}
	s.w = w
	var tok *rankov.ShiftToken
	if s.tail && s.rho >= w {
		tok = &rankov.ShiftToken{ID: s.nd.ID()}
	}
	return s.sh.ShiftDown(s.nd, s.ov, tok, w, s.downK)
}

// down stores the edge to every tail node that reached this node and sends
// the reply.
func (s *waves) down(got []rankov.ShiftToken) ncc.Op {
	var reply *rankov.ShiftToken
	for _, g := range got {
		s.nd.AddEdge(g.ID)
		s.out.Stored++
		reply = &rankov.ShiftToken{ID: s.nd.ID()}
	}
	return s.sh.ShiftUp(s.nd, s.ov, reply, s.w, s.upK)
}

// up stores the reverse edge of every reply.
func (s *waves) up(got []rankov.ShiftToken) ncc.Op {
	for _, g := range got {
		s.nd.AddEdge(g.ID)
		s.out.Stored++
	}
	return s.wave(s.w + 1)
}
