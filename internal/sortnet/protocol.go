package sortnet

// This file implements the paper's real sorting protocol (§3.1.2, Theorem 3
// and Algorithm 2): sorted sub-paths are merged bottom-up along the TBFS;
// each merge recursively splits both paths around the median of the larger
// one and recurses on the two halves in parallel.
//
// Where the paper builds a balanced binary search tree on each sub-path to
// answer median/search queries, this implementation annotates the sub-path's
// distance-doubling links (the structure L restricted to the path) with the
// neighbors' keys — the same information a BBST provides, built by the same
// O(log n) exchange, and queried by greedy descent in O(log n) hops. The
// recursion hands each split's sub-instance to the removed median node,
// so every coordinator drives O(1) messages per step.
//
// The whole protocol is lockstep: every recursion step, ascent step and
// insertion runs in a fixed budget that is a function of ⌈log₂ n⌉ only, so
// all merge instances across the network stay synchronized. Total rounds:
// O(log³ n) — (tree levels) × (recursion depth) × (O(log n) per step).

import (
	"fmt"

	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// Message kinds for the merge protocol (0xA0 block).
const (
	kMKeyP    uint8 = 0xA0 + iota // doubling build: key of pred's pred
	kMKeyS                        // doubling build: key of succ's succ
	kMProbe                       // coordinator → head: find tail & size
	kMTailHop                     // descent hop for probe
	kMTailR                       // tail → coordinator: size
	kMPosHop                      // find-by-position descent
	kMPosR                        // median → coordinator: my key
	kMSplit                       // split broadcast along the path
	kMSide                        // side exchange with path neighbors
	kMNewHead                     // new boundary head → coordinator
	kMAppoint                     // coordinator → median: run the < instance
	kMInsert                      // coordinator → singleton: insert into path
	kMInsHop                      // insertion descent
	kMSpliceP                     // set your pred
	kMSpliceS                     // set your succ
	kMInsR                        // predecessor → inserted node: splice point
	kMInsDone                     // inserted node → coordinator: done + flags
	kMResult                      // sub-coordinator → parent coordinator
	kMReport                      // TBFS child → parent: my subtree's path head
	kMRankP                       // final ranking: prefix count
)

// pair is a (key, id) sort item; order is key descending, id ascending.
type pair struct {
	key int64
	id  ncc.ID
}

func (p pair) valid() bool { return p.id != ncc.None }

// before reports whether p sorts strictly before q (descending keys).
func (p pair) before(q pair) bool {
	if p.key != q.key {
		return p.key > q.key
	}
	return p.id < q.id
}

// mergeState is the per-node protocol state.
type mergeState struct {
	nd  *ncc.Node
	K   int // ⌈log₂ n⌉
	me  pair
	gk  primitives.Tree // the TBFS on Gk (merge schedule)
	out bool            // temporarily cut out as a split median

	pred, succ ncc.ID
	// doubling links along the current sorted sub-path, with keys
	predAt, succAt []pair
	split          *splitInfo // pending split of the current path
	insCoord       ncc.ID     // who asked us to insert ourselves

	// coordinator state
	instA, instB ncc.ID // heads of the active instance's paths (None = empty)
	resH, resT   ncc.ID // result of the active instance when done
	done         bool
	needSelf     bool         // must still insert own pair at this level
	pend         []pendSplice // one per depth where this coordinator split
	parentCoord  ncc.ID       // whom to send kMResult to (None = top level)
	myDepthSlot  int          // appointment step (for the ascent schedule)
}

type pendSplice struct {
	x          ncc.ID // the removed median, coordinator of the < instance
	depth      int
	haveResult bool
	h, t       ncc.ID // < result, filled at ascent
}

// budgets (rounds), all fixed functions of K so the network stays lockstep
func (ms *mergeState) stepBudget() int { return 5*ms.K + 34 }
func (ms *mergeState) ascBudget() int  { return 6 }
func (ms *mergeState) recDepth() int   { return (5*ms.K)/2 + 4 }
func (ms *mergeState) levelBudget() int {
	return ms.recDepth()*(ms.stepBudget()+ms.ascBudget()) + (2*ms.K + 12) + 3
}

// mergeSort runs the full protocol and delivers the node's rank and
// sorted neighbors to k. It needs the Sorter's TBFS tree; see Sorter.Tree.
func (s *Sorter) mergeSort(nd *ncc.Node, key int64, k func(Result) ncc.Op) ncc.Op {
	if s.Tree == nil {
		panic("sortnet: Merge method requires Sorter.Tree (the annotated TBFS)")
	}
	n := nd.N()
	if n == 1 {
		return k(Result{Rank: 0, Pred: ncc.None, Succ: ncc.None})
	}
	ms := &mergeState{
		nd:   nd,
		K:    ncc.CeilLog2(n),
		me:   pair{key, nd.ID()},
		gk:   *s.Tree,
		pred: ncc.None, succ: ncc.None,
		instA: ncc.None, instB: ncc.None,
		resH: ncc.None, resT: ncc.None,
		parentCoord: ncc.None,
	}
	maxDepth := ms.K + 1
	// Heads reported by our TBFS children, per level.
	childHead := map[ncc.ID]ncc.ID{}

	var level func(lvl int) ncc.Op
	level = func(lvl int) ncc.Op {
		if lvl < 0 {
			// Final ranking over the global sorted path.
			return ms.finalRanks(k)
		}
		start := nd.Round()
		if ms.gk.Depth == lvl {
			// We coordinate this level: our instance is (left child's path,
			// right child's path); afterwards we insert ourselves.
			ms.instA, ms.instB = ncc.None, ncc.None
			if ms.gk.Left != ncc.None {
				ms.instA = childHead[ms.gk.Left]
			}
			if ms.gk.Right != ncc.None {
				ms.instB = childHead[ms.gk.Right]
			}
			ms.done = false
			ms.resH, ms.resT = ncc.None, ncc.None
			ms.parentCoord = ncc.None
			ms.needSelf = true
			if ms.instA == ncc.None && ms.instB == ncc.None {
				// Leaf: the path is {me} — nothing to merge or insert into.
				ms.done = true
				ms.needSelf = false
				ms.resH, ms.resT = nd.ID(), nd.ID()
			}
		}
		// After descent + ascent + self-insertion: report the merged path's
		// head to the TBFS parent, then recurse to the next level.
		report := func() ncc.Op {
			return primitives.SyncAt(nd, start+ms.levelBudget()-2, ncc.ContFunc(func(_ *ncc.Node, in []ncc.Message) ncc.Op {
				ms.apply(in, func(m ncc.Message) {
					panic(fmt.Sprintf("sortnet: unexpected kind 0x%x before report", m.Kind))
				})
				if ms.out {
					panic(fmt.Sprintf("sortnet: node %d still cut out at level end", nd.ID()))
				}
				if ms.gk.Depth == lvl && !ms.gk.IsRoot {
					nd.Send(ms.gk.Parent, ncc.Message{Kind: kMReport}.WithIDs(ms.resH))
				}
				return primitives.SyncAt(nd, start+ms.levelBudget(), ncc.ContFunc(func(_ *ncc.Node, in []ncc.Message) ncc.Op {
					ms.apply(in, func(m ncc.Message) {
						if m.Kind == kMReport {
							childHead[m.Src] = m.IDs()[0]
							return
						}
						panic(fmt.Sprintf("sortnet: unexpected kind 0x%x at report", m.Kind))
					})
					return level(lvl - 1)
				}))
			}))
		}
		// Ascent: splice pending medians back, deepest first.
		var ascend func(step int) ncc.Op
		ascend = func(step int) ncc.Op {
			if step < 0 {
				// Self-insertion by this level's coordinators.
				return ms.insertSelf(lvl, report)
			}
			return ms.ascentStep(step, func() ncc.Op { return ascend(step - 1) })
		}
		// Descent: fixed number of synchronized recursion steps.
		var descend func(step int) ncc.Op
		descend = func(step int) ncc.Op {
			if step >= ms.recDepth() {
				return ascend(ms.recDepth() - 1)
			}
			return ms.recursionStep(step, func() ncc.Op { return descend(step + 1) })
		}
		return descend(0)
	}
	return level(maxDepth)
}

// spliceKinds applies splices found in any inbox (used inside sub-phases
// too, since splice targets can be mid-phase members).
func (ms *mergeState) apply(in []ncc.Message, f func(m ncc.Message)) {
	for _, m := range in {
		switch m.Kind {
		case kMSpliceP:
			if len(m.IDs()) > 0 {
				ms.pred = m.IDs()[0]
			} else {
				ms.pred = ncc.None
			}
			ms.out = false
		case kMSpliceS:
			if len(m.IDs()) > 0 {
				ms.succ = m.IDs()[0]
			} else {
				ms.succ = ncc.None
			}
			ms.out = false
		default:
			if f != nil {
				f(m)
			}
		}
	}
}
