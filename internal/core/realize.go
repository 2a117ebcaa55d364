// Package core implements the paper's primary contribution: distributed
// degree-sequence realization in the NCC model (§4).
//
//   - RealizeStep runs the parallel Havel–Hakimi of Algorithm 3: per phase the
//     nodes re-sort by remaining degree, learn the maximum degree δ and its
//     multiplicity N by aggregation, split the first q·(δ+1) ranks into q
//     star groups, and each group's center multicasts its ID to its δ
//     members, who store the implicit overlay edge (Theorem 11).
//   - Envelope mode changes exactly the paper's Step 13 alteration: a member
//     whose remaining degree would go negative clamps to zero instead of
//     raising the alarm, yielding an upper-envelope realization with
//     Σd′ ≤ 2Σd (Theorem 13).
//   - MakeExplicitStep converts an implicit realization into an explicit one by
//     having every edge holder notify the other endpoint, randomly staggered
//     so per-round receive load stays within the node capacity w.h.p.
//     (Theorem 12; the paper routes this through the token-collection
//     primitive, which direct addressing subsumes here because every holder
//     already knows its endpoint's ID).
//
// The protocol is written for NCC0 and therefore also runs unchanged in
// NCC1 (the paper's Remark in §2).
package core

import (
	"fmt"

	"graphrealize/internal/aggregate"
	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
	"graphrealize/internal/rankov"
	"graphrealize/internal/sortnet"
)

// Message kinds used by this package (0x70–0x7F block).
const (
	kNotify uint8 = 0x70 + iota
)

// Mode selects exact realization (Algorithm 3) or the upper-envelope variant
// of §4.3.
type Mode int

const (
	// Exact declares Unrealizable on non-graphic inputs (Theorem 11).
	Exact Mode = iota
	// Envelope clamps negative remainders to zero, realizing an upper
	// envelope D′ ≥ D with Σd′ ≤ 2Σd (Theorem 13).
	Envelope
)

// Env bundles the structural state shared by the realization protocols:
// the converted path, the structure L, the annotated TBFS on Gk, and the
// sorter. Build it once with Setup and reuse it across protocol stages.
type Env struct {
	Path primitives.Path
	Lv   primitives.Levels
	GK   primitives.Tree
	Sort sortnet.Sorter
}

// SetupStep builds the §3.1 structures on Gk and delivers the Env to k.
// Rounds: O(log n).
func SetupStep(nd *ncc.Node, method sortnet.Method, k func(*Env) ncc.Op) ncc.Op {
	return primitives.BuildAllStep(nd, func(p primitives.Path, lv primitives.Levels, t primitives.Tree) ncc.Op {
		env := &Env{Path: p, Lv: lv, GK: t}
		env.Sort = sortnet.Sorter{Method: method, Path: p, Pos: t.Pos, Tree: &env.GK}
		return k(env)
	})
}

// Outcome reports a node's view of the realization.
type Outcome struct {
	// OK is false when the instance was declared unrealizable (Exact mode).
	OK bool
	// Phases is the number of while-loop iterations executed (Lemma 10
	// bounds it by min{Δ, √m} + 1).
	Phases int
	// Realized is the node's degree in the realized graph: the edges it
	// stored as a member plus, if it served as a group center, the members
	// that stored it.
	Realized int
	// Delta is the maximum degree observed in the first phase (= Δ of the
	// input), useful to later stages.
	Delta int
	// Neighbors lists the IDs this node stored via AddEdge (the implicit
	// edges it is responsible for); MakeExplicitStep consumes it.
	Neighbors []ncc.ID
}

// RealizeStep runs distributed degree realization and delivers the Outcome
// to k. deg is this node's required degree. active=false makes the node a
// bystander that participates in the global primitives but neither requests
// nor receives edges — the connectivity algorithm (§6.2) uses this to
// realize a degree sequence on only the d₀+1 core nodes while the rest of
// the network idles in lockstep.
//
// Edges are stored implicitly: each member stores its group center's ID via
// AddEdge. Centers do not store members (use MakeExplicitStep afterwards for
// an explicit realization).
func RealizeStep(nd *ncc.Node, env *Env, deg int, mode Mode, active bool, k func(Outcome) ncc.Op) ncc.Op {
	n := nd.N()
	out := Outcome{OK: true}

	// Input validation. A degree outside [0, n−1] is unrealizable; Envelope
	// mode clamps it (an envelope cannot exceed n−1 either — the paper's
	// envelope guarantee presumes d ≤ n−1).
	myDeg := deg
	bad := int64(0)
	if myDeg < 0 || myDeg > n-1 {
		if mode == Exact && active {
			bad = 1
		}
		if myDeg < 0 {
			myDeg = 0
		}
		if myDeg > n-1 {
			myDeg = n - 1
		}
	}
	done := false // true once this node served as a group center

	var phase func() ncc.Op
	phase = func() ncc.Op {
		// Sort key: live active nodes by remaining degree; finished centers
		// sink to −1 and bystanders to −2, below any live zero-degree node.
		key := int64(myDeg)
		if done {
			key = -1
		}
		if !active {
			key = -2
		}
		return env.Sort.SortStep(nd, key, func(sr sortnet.Result) ncc.Op {
			// δ = current maximum remaining degree (Step 4 broadcast).
			return aggregate.AggregateBroadcastStep(nd, &env.GK, key, aggregate.MaxOp(), func(delta64 int64) ncc.Op {
				if delta64 < 1 {
					return k(out)
				}
				out.Phases++
				delta := int(delta64)
				if out.Phases == 1 {
					out.Delta = delta
				}
				// N = multiplicity of δ (Step 6 aggregation + broadcast).
				cnt := int64(0)
				if key == delta64 {
					cnt = 1
				}
				return aggregate.AggregateBroadcastStep(nd, &env.GK, cnt, aggregate.SumOp(), func(sum int64) ncc.Op {
					bigN := int(sum)
					q := bigN / (delta + 1)
					if q < 1 {
						q = 1
					}
					// Group structure: centers at ranks α(δ+1) for α ∈ [0, q);
					// each center's members are the next δ ranks (Steps 7–10).
					// The liveness invariant (see DESIGN.md §4/T5 notes)
					// guarantees every member rank belongs to a live active
					// node.
					isCenter := !done && active && key >= 0 &&
						sr.Rank%(delta+1) == 0 && sr.Rank/(delta+1) < q
					return rankov.BuildStep(nd, sr.Rank, sr.Pred, sr.Succ, func(ov *rankov.Overlay) ncc.Op {
						var job *rankov.Job
						if isCenter {
							job = &rankov.Job{Payload: nd.ID(), Lo: sr.Rank + 1, Hi: sr.Rank + delta}
						}
						return rankov.DisseminateStep(nd, ov, &env.GK, job, func(groups []rankov.Job) ncc.Op {
							neg := int64(0)
							for _, g := range groups {
								if g.Lo != sr.Rank {
									panic(fmt.Sprintf("core: rank %d received a group token for rank %d", sr.Rank, g.Lo))
								}
								nd.AddEdge(g.Payload)
								out.Neighbors = append(out.Neighbors, g.Payload)
								out.Realized++
								myDeg--
								if myDeg < 0 {
									if mode == Envelope {
										myDeg = 0
									} else {
										neg = 1
									}
								}
							}
							if isCenter {
								done = true
								myDeg = 0
								out.Realized += delta
							}
							// Step 13's alarm: any negative remainder makes
							// the sequence unrealizable; everyone learns it in
							// one aggregation.
							return aggregate.AggregateBroadcastStep(nd, &env.GK, neg, aggregate.OrOp(), func(alarm int64) ncc.Op {
								if alarm == 1 {
									nd.Unrealizable()
									out.OK = false
									return k(out)
								}
								return phase()
							})
						})
					})
				})
			})
		})
	}

	return aggregate.AggregateBroadcastStep(nd, &env.GK, bad, aggregate.OrOp(), func(v int64) ncc.Op {
		if v == 1 {
			nd.Unrealizable()
			out.OK = false
			return k(out)
		}
		if !active {
			myDeg = 0
		}
		return phase()
	})
}

// MakeExplicitStep converts the implicit realization into an explicit one:
// every node that stored an edge notifies the other endpoint of its own ID,
// and the endpoint stores the reverse edge. Sends are randomly staggered over
// a window of ~4Δ/capacity rounds so that receive load stays within capacity
// w.h.p. (Theorem 12's O(m/n + Δ/log n + log n) shape).
//
// neighbors must be exactly the IDs this node stored via AddEdge during
// RealizeStep; delta the maximum degree (Outcome.Delta, identical at all
// nodes). The number of reverse edges stored is delivered to k.
func MakeExplicitStep(nd *ncc.Node, env *Env, neighbors []ncc.ID, delta int, k func(int) ncc.Op) ncc.Op {
	capi := nd.Capacity()
	budget := capi / 2
	if budget < 1 {
		budget = 1
	}
	window := (4*delta)/capi + 4
	// Every node stored at most Δ edges, so a backlog drains within
	// ⌈Δ/budget⌉ rounds; the total schedule length is common knowledge and
	// all nodes run it in lockstep.
	total := window + delta/budget + 4
	// Schedule each notification in a uniformly random round of the window.
	// All randomness is drawn before the first suspension, so the schedule is
	// identical across scheduler drivers.
	schedule := make(map[int][]ncc.ID, len(neighbors))
	for _, nb := range neighbors {
		r := nd.Rand().Intn(window)
		schedule[r] = append(schedule[r], nb)
	}
	stored := 0
	var backlog []ncc.ID
	var round func(r int) ncc.Op
	round = func(r int) ncc.Op {
		if r >= total {
			if len(backlog) > 0 {
				panic(fmt.Sprintf("core: MakeExplicit backlog not drained (%d left of %d, window %d)",
					len(backlog), len(neighbors), total))
			}
			return k(stored)
		}
		backlog = append(backlog, schedule[r]...)
		nSend := len(backlog)
		if nSend > budget {
			nSend = budget
		}
		for i := 0; i < nSend; i++ {
			nd.Send(backlog[i], ncc.Message{Kind: kNotify})
		}
		backlog = backlog[nSend:]
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				if m.Kind == kNotify {
					nd.AddEdge(m.Src)
					stored++
				}
			}
			return round(r + 1)
		})
	}
	return round(0)
}
