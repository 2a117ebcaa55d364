// Package trees implements the degree-sequence tree realizations of §5:
//
//   - RealizeChain (Algorithm 4): the k non-leaf nodes, sorted by
//     non-increasing degree, form a chain; each satisfies its remaining
//     degree from a contiguous block of leaves located via distributed
//     prefix sums. This yields the maximum-diameter realization.
//   - RealizeGreedy (Algorithm 5): the greedy tree T_G — every node, in
//     sorted order, adopts the next block of unparented nodes as children.
//     By Lemma 15 the result has the minimum possible diameter over all
//     tree realizations of the sequence.
//
// Both run in O(polylog n) rounds (Theorems 14 and 16): one sort, O(1)
// aggregations, one prefix-sum scan, and one disjoint-range dissemination.
package trees

import (
	"graphrealize/internal/aggregate"
	"graphrealize/internal/core"
	"graphrealize/internal/ncc"
	"graphrealize/internal/rankov"
	"graphrealize/internal/sortnet"
)

// Outcome reports a node's view of the tree realization.
type Outcome struct {
	// OK is false when the sequence is not tree-realizable (Σd ≠ 2(n−1) or
	// some degree < 1 for n ≥ 2).
	OK bool
	// Realized is the node's degree in the constructed tree.
	Realized int
	// IsLeaf reports whether the node ended up a leaf (degree 1 for n ≥ 2).
	IsLeaf bool
	// Neighbors lists the IDs this node stored (the edges it is
	// responsible for in the implicit realization).
	Neighbors []ncc.ID
}

// validate checks tree realizability by aggregation: Σd = 2(n−1) and
// d ≥ 1 everywhere (n = 1 requires d = 0). Rounds: two aggregations.
func validate(nd *ncc.Node, env *core.Env, deg int, k func(bool) ncc.Op) ncc.Op {
	n := nd.N()
	return aggregate.AggregateBroadcast(nd, &env.GK, int64(deg), aggregate.SumOp(), func(sum int64) ncc.Op {
		bad := int64(0)
		if n == 1 {
			if deg != 0 {
				bad = 1
			}
		} else if deg < 1 || deg > n-1 {
			bad = 1
		}
		return aggregate.AggregateBroadcast(nd, &env.GK, bad, aggregate.OrOp(), func(anyBad int64) ncc.Op {
			if anyBad == 1 {
				return k(false)
			}
			if n == 1 {
				return k(sum == 0)
			}
			return k(sum == int64(2*(n-1)))
		})
	})
}

// store records an edge at this node.
func (o *Outcome) store(nd *ncc.Node, peer ncc.ID) {
	nd.AddEdge(peer)
	o.Neighbors = append(o.Neighbors, peer)
	o.Realized++
}

// RealizeChain runs Algorithm 4 and delivers the Outcome to kont. deg is
// this node's required tree degree. The realization is implicit except for
// the chain edges, which both endpoints store (as the paper's line 9
// specifies).
func RealizeChain(nd *ncc.Node, env *core.Env, deg int, kont func(Outcome) ncc.Op) ncc.Op {
	out := Outcome{}
	return validate(nd, env, deg, func(valid bool) ncc.Op {
		if !valid {
			nd.Unrealizable()
			return kont(out)
		}
		out.OK = true
		n := nd.N()
		if n == 1 {
			return kont(out)
		}
		return env.Sort.Sort(nd, int64(deg), func(sr sortnet.Result) ncc.Op {
			return rankov.Build(nd, sr.Rank, sr.Pred, sr.Succ, func(ov *rankov.Overlay) ncc.Op {
				// k = number of non-leaves.
				isNonLeaf := int64(0)
				if deg > 1 {
					isNonLeaf = 1
				}
				return aggregate.AggregateBroadcast(nd, &env.GK, isNonLeaf, aggregate.SumOp(), func(k64 int64) ncc.Op {
					k := int(k64)
					out.IsLeaf = deg == 1

					if k == 0 {
						// All degrees are 1: the only valid case is n = 2, a
						// single edge. k is common knowledge, so every node
						// takes this branch together and lockstep is preserved
						// without the scan/dissemination stages.
						if sr.Rank == 0 {
							out.store(nd, sr.Succ)
						} else {
							out.store(nd, sr.Pred)
						}
						return kont(out)
					}

					// Chain the non-leaves: both endpoints store (explicit
					// chain edges).
					if sr.Rank > 0 && sr.Rank <= k-1 {
						out.store(nd, sr.Pred)
					}
					if sr.Rank < k-1 {
						out.store(nd, sr.Succ)
					}
					// Remaining leaf demand r per non-leaf.
					r := 0
					if sr.Rank < k {
						switch {
						case k == 1:
							r = deg
						case sr.Rank == 0 || sr.Rank == k-1:
							r = deg - 1
						default:
							r = deg - 2
						}
					}
					// Leaf block start: k + (exclusive prefix of r over ranks).
					return rankov.PrefixSum(nd, ov, int64(r), func(inc int64) ncc.Op {
						start := k + int(inc) - r
						var job *rankov.Job
						if r > 0 {
							job = &rankov.Job{Payload: nd.ID(), Lo: start, Hi: start + r - 1}
						}
						return rankov.Disseminate(nd, ov, &env.GK, job, func(got []rankov.Job) ncc.Op {
							for _, g := range got {
								out.store(nd, g.Payload)
							}
							// A chain node's leaves store their edges; account
							// for them here so Realized equals the input degree
							// at every node.
							out.Realized += r
							return kont(out)
						})
					})
				})
			})
		})
	})
}

// RealizeGreedy runs Algorithm 5, producing the minimum-diameter greedy
// tree, and delivers the Outcome to kont: the rank-0 node adopts the next d₀
// ranks as children; every other rank i adopts d_i − 1 children from the
// next unparented block, located via a prefix-sum scan. Children store the
// edge to their parent (implicit).
func RealizeGreedy(nd *ncc.Node, env *core.Env, deg int, kont func(Outcome) ncc.Op) ncc.Op {
	out := Outcome{}
	return validate(nd, env, deg, func(valid bool) ncc.Op {
		if !valid {
			nd.Unrealizable()
			return kont(out)
		}
		out.OK = true
		n := nd.N()
		if n == 1 {
			return kont(out)
		}
		return env.Sort.Sort(nd, int64(deg), func(sr sortnet.Result) ncc.Op {
			return rankov.Build(nd, sr.Rank, sr.Pred, sr.Succ, func(ov *rankov.Overlay) ncc.Op {
				out.IsLeaf = deg == 1
				// Children count: the root keeps all deg slots, others reserve
				// one for their parent.
				c := deg - 1
				if sr.Rank == 0 {
					c = deg
				}
				return rankov.PrefixSum(nd, ov, int64(c), func(inc int64) ncc.Op {
					start := 1 + int(inc) - c
					var job *rankov.Job
					if c > 0 {
						job = &rankov.Job{Payload: nd.ID(), Lo: start, Hi: start + c - 1}
					}
					return rankov.Disseminate(nd, ov, &env.GK, job, func(got []rankov.Job) ncc.Op {
						for _, g := range got {
							out.store(nd, g.Payload) // child stores its parent
						}
						// The parent's own degree accounting: its c children
						// store the edges.
						out.Realized += c
						return kont(out)
					})
				})
			})
		})
	})
}
