// Package sortnet provides the sorting primitive of §3.1.2: arranging the n
// nodes into a path sorted by a locally known key (non-increasing), after
// which every node knows its rank and its sorted-order neighbors.
//
// Three interchangeable implementations exist:
//
//   - Oracle: an ncc.Collective, a package-level value every node enters,
//     which the simulator executes centrally and charges ⌈log₂ n⌉³
//     rounds: Theorem 3's O(log³ n) with an assumed constant of 1
//     (ChargedRounds). This is the default used by the realization
//     algorithms; it makes large benchmarks cheap, but the charge is set by
//     that constant, not by a protocol.
//   - OddEven: a real message-level odd-even transposition sort that takes
//     exactly n + 3 rounds (ablation A1 in DESIGN.md).
//   - Merge: the paper's real algorithm — bottom-up merging over the TBFS
//     with recursive median splitting (Algorithm 2), O(log³ n) rounds. See
//     protocol.go. Its constant is large: at n = 64 and n = 256 it takes
//     10,871 and 19,529 rounds, against odd-even's 67 and 259 (table T2),
//     so at the sizes this repo runs it is the slowest of the three.
//
// Rank order is by key descending, ties broken by node ID ascending, so the
// result is unique and deterministic. Tests cross-check that all methods
// produce identical ranks.
package sortnet

import (
	"fmt"
	"sort"

	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// Message kinds used by this package (0x90–0x9F block).
const (
	kExchange uint8 = 0x90 + iota
	kNeighbor
	kAssign
)

// Result is a node's view of the sorted path: its rank (0 = largest key)
// and its neighbors in sorted order (None at the ends).
type Result struct {
	Rank       int
	Pred, Succ ncc.ID
}

// Method selects a sorting implementation.
type Method int

const (
	// Oracle uses the charged collective described in the package comment.
	Oracle Method = iota
	// OddEven runs a real odd-even transposition sort (O(n) rounds).
	OddEven
	// Merge runs the paper's real merge-sort protocol (O(log³ n) rounds);
	// it requires Sorter.Tree. See protocol.go.
	Merge
)

// String names the method for benchmark labels.
func (m Method) String() string {
	switch m {
	case Oracle:
		return "oracle"
	case OddEven:
		return "oddeven"
	case Merge:
		return "merge"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Sorter carries the per-node structural state sorting needs: the undirected
// Gk path and the node's Gk position (from the annotated TBFS).
type Sorter struct {
	Method Method
	Path   primitives.Path
	Pos    int              // Gk position of this node
	Tree   *primitives.Tree // annotated TBFS; required by the Merge method
}

// oracle is the Oracle method's collective: it sorts (key, id) pairs
// centrally and hands every node its rank and sorted neighbors, charging
// the Theorem 3 round bound.
var oracle = ncc.Collective{Name: "oracle-sort", Run: runOracle}

func runOracle(s *ncc.Sim, ins []int64) ([]ncc.CollectiveOut, int) {
	n := s.N()
	ids := s.IDs()
	type kv struct {
		key int64
		id  ncc.ID
		pos int
	}
	pairs := make([]kv, n)
	for i := 0; i < n; i++ {
		pairs[i] = kv{key: ins[i], id: ids[i], pos: i}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].key != pairs[b].key {
			return pairs[a].key > pairs[b].key
		}
		return pairs[a].id < pairs[b].id
	})
	// One Result and one Learn backing array serve every node: a node's
	// output points into them, and the engine copies the IDs out before
	// the node resumes.
	outs := make([]ncc.CollectiveOut, n)
	res := make([]Result, n)
	learn := make([]ncc.ID, 0, 2*n)
	for rank, p := range pairs {
		r := &res[rank]
		*r = Result{Rank: rank, Pred: ncc.None, Succ: ncc.None}
		from := len(learn)
		if rank > 0 {
			r.Pred = pairs[rank-1].id
			learn = append(learn, r.Pred)
		}
		if rank+1 < n {
			r.Succ = pairs[rank+1].id
			learn = append(learn, r.Succ)
		}
		outs[p.pos] = ncc.CollectiveOut{Val: r, Learn: learn[from:len(learn):len(learn)]}
	}
	return outs, ChargedRounds(n)
}

// ChargedRounds is the round cost the oracle charges: ⌈log₂ n⌉³ (minimum 1),
// the Theorem 3 bound with constant 1.
func ChargedRounds(n int) int {
	k := ncc.CeilLog2(n)
	c := k * k * k
	if c < 1 {
		c = 1
	}
	return c
}

// Sort arranges the nodes by non-increasing key using the Sorter's
// method and delivers this node's rank and sorted neighbors to k. All nodes
// must enter the sort at the same protocol point.
func (s *Sorter) Sort(nd *ncc.Node, key int64, k func(Result) ncc.Op) ncc.Op {
	switch s.Method {
	case OddEven:
		return s.oddEvenSort(nd, key, k)
	case Merge:
		return s.mergeSort(nd, key, k)
	default:
		return ncc.Enter(&oracle, key, func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			return k(*w.Coll.(*Result))
		})
	}
}

// oddEvenSort is a real protocol: (key, id) pairs ripple along the Gk
// path via n rounds of alternating compare-exchanges; afterwards the holder
// of path position p owns the rank-p pair, learns its neighbors' pairs, and
// notifies the pair's owner of its rank and sorted neighbors.
//
// Rounds: exactly n + 3. Each node sends ≤ 2 messages per round.
func (s *Sorter) oddEvenSort(nd *ncc.Node, key int64, k func(Result) ncc.Op) ncc.Op {
	n := nd.N()
	curKey, curID := key, nd.ID()

	assign := func() ncc.Op {
		// Neighbor exchange: tell path neighbors which pair we hold.
		if s.Path.Pred != ncc.None {
			nd.Send(s.Path.Pred, ncc.Message{Kind: kNeighbor, A: 1}.WithIDs(curID))
		}
		if s.Path.Succ != ncc.None {
			nd.Send(s.Path.Succ, ncc.Message{Kind: kNeighbor, A: 0}.WithIDs(curID))
		}
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			predPair, succPair := ncc.None, ncc.None
			for _, m := range w.Msgs {
				if m.Kind != kNeighbor {
					continue
				}
				if m.A == 0 { // sent towards successors: sender precedes us
					predPair = m.IDs()[0]
				} else {
					succPair = m.IDs()[0]
				}
			}
			// Assignment: the holder notifies the pair's owner of rank/links.
			// None encodes a path end.
			msg := ncc.Message{Kind: kAssign, A: int64(s.Pos)}.WithIDs(predPair, succPair)
			if curID == nd.ID() {
				// We hold our own pair; no message needed.
				return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
					return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
						return k(Result{Rank: s.Pos, Pred: predPair, Succ: succPair})
					})
				})
			}
			nd.Send(curID, msg)
			res := Result{Rank: -1, Pred: ncc.None, Succ: ncc.None}
			return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
				for _, m := range w.Msgs {
					if m.Kind == kAssign {
						res = Result{Rank: int(m.A), Pred: m.IDs()[0], Succ: m.IDs()[1]}
					}
				}
				return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
					if res.Rank == -1 {
						// Our assignment arrives exactly one round after the
						// holders send; a second round is allowed for skew,
						// after which silence is a bug.
						panic(fmt.Sprintf("sortnet: node %d received no rank assignment", nd.ID()))
					}
					return k(res)
				})
			})
		})
	}

	// Compare-exchange phase. In even rounds positions (0,1),(2,3),…
	// exchange; in odd rounds (1,2),(3,4),…. The left partner keeps the
	// larger pair (descending order).
	var round func(r int) ncc.Op
	round = func(r int) ncc.Op {
		if r >= n {
			return assign()
		}
		var partner ncc.ID
		left := false // we are the left end of our compare pair
		if s.Pos%2 == r%2 {
			partner, left = s.Path.Succ, true
		} else {
			partner = s.Path.Pred
		}
		if partner != ncc.None {
			nd.Send(partner, ncc.Message{Kind: kExchange, A: curKey}.WithIDs(curID))
		}
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				if m.Kind != kExchange || m.Src != partner {
					continue
				}
				oKey, oID := m.A, m.IDs()[0]
				oLarger := oKey > curKey || (oKey == curKey && oID < curID)
				if left == oLarger {
					// Left keeps the larger pair; right keeps the smaller.
					curKey, curID = oKey, oID
				}
			}
			return round(r + 1)
		})
	}
	return round(0)
}
