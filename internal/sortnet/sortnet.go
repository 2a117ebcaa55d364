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
	"cmp"
	"fmt"
	"slices"

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
// Gk path and the node's Gk position (from the annotated TBFS). It also
// holds the state of the sort in progress, so a node that sorts again and
// again keeps one Sorter: an oracle or odd-even sort allocates nothing at
// the node. A Sorter runs one sort at a time.
type Sorter struct {
	Method Method
	Path   primitives.Path
	Pos    int              // Gk position of this node
	Tree   *primitives.Tree // annotated TBFS; required by the Merge method

	k  func(Result) ncc.Op // the oracle sort's continuation
	oe oddEvenState
}

// oracle is the Oracle method's collective: it sorts (key, id) pairs
// centrally and hands every node the kAssign message odd-even's last round
// would have sent it, charging the Theorem 3 round bound.
var oracle = ncc.Collective{Name: "oracle-sort", Run: runOracle}

func runOracle(s *ncc.Sim, ins []int64, outs []ncc.Message) int {
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
	slices.SortFunc(pairs, func(a, b kv) int {
		if a.key != b.key {
			return cmp.Compare(b.key, a.key)
		}
		return cmp.Compare(a.id, b.id)
	})
	for rank, p := range pairs {
		pred, succ := ncc.None, ncc.None
		if rank > 0 {
			pred = pairs[rank-1].id
		}
		if rank+1 < n {
			succ = pairs[rank+1].id
		}
		outs[p.pos] = ncc.Message{Kind: kAssign, A: int64(rank)}.WithIDs(pred, succ)
	}
	return ChargedRounds(n)
}

// assignment decodes a kAssign message: the rank in A, then the sorted
// predecessor and successor as IDs (None at a path end).
func assignment(m *ncc.Message) Result {
	ids := m.IDs()
	return Result{Rank: int(m.A), Pred: ids[0], Succ: ids[1]}
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
		s.oe = oddEvenState{s: s, n: nd.N(), curKey: key, curID: nd.ID(), k: k}
		return s.oe.exchange(nd)
	case Merge:
		return s.mergeSort(nd, key, k)
	default:
		s.k = k
		return nd.Enter(&oracle, key, s)
	}
}

// Resume is the oracle sort's continuation: the collective's kAssign
// message, first in the inbox, holds the node's rank and sorted neighbors,
// and its delivery taught the node their IDs.
func (s *Sorter) Resume(_ *ncc.Node, in []ncc.Message) ncc.Op {
	return s.k(assignment(&in[0]))
}

// oddEvenState is the odd-even sort's per-node state, and its continuation:
// (key, id) pairs ripple along the Gk path via n rounds of alternating
// compare-exchanges; afterwards the holder of path position p owns the
// rank-p pair, learns its neighbors' pairs, and notifies the pair's owner
// of its rank and sorted neighbors. phase says where Resume picks up.
//
// Rounds: exactly n + 3. Each node sends ≤ 2 messages per round.
type oddEvenState struct {
	s       *Sorter
	n, r    int // the node count, and the compare-exchange round
	curKey  int64
	curID   ncc.ID // curKey and curID: the (key, id) pair this node holds
	partner ncc.ID // round r's compare partner
	left    bool   // we are the left end of our compare pair
	res     Result // the rank assignment; Rank −1 until it arrives
	phase   oddEvenPhase
	k       func(Result) ncc.Op
}

type oddEvenPhase uint8

const (
	oeExchange  oddEvenPhase = iota // the partner's pair for round r
	oeNeighbors                     // the pairs the path neighbors hold
	oeAssign                        // the rank assignment from our pair's holder
	oeCheck                         // the round allowed for skew
)

// exchange sends round r's compare-exchange, or tells the path neighbors
// which pair we hold once the n rounds are done. In even rounds positions
// (0,1),(2,3),… exchange; in odd rounds (1,2),(3,4),…. The left partner
// keeps the larger pair (descending order).
func (o *oddEvenState) exchange(nd *ncc.Node) ncc.Op {
	path := o.s.Path
	if o.r >= o.n {
		if path.Pred != ncc.None {
			nd.Send(path.Pred, ncc.Message{Kind: kNeighbor, A: 1}.WithIDs(o.curID))
		}
		if path.Succ != ncc.None {
			nd.Send(path.Succ, ncc.Message{Kind: kNeighbor, A: 0}.WithIDs(o.curID))
		}
		o.phase = oeNeighbors
		return ncc.Next(o)
	}
	o.left = o.s.Pos%2 == o.r%2
	if o.left {
		o.partner = path.Succ
	} else {
		o.partner = path.Pred
	}
	if o.partner != ncc.None {
		nd.Send(o.partner, ncc.Message{Kind: kExchange, A: o.curKey}.WithIDs(o.curID))
	}
	o.phase = oeExchange
	return ncc.Next(o)
}

// Resume runs the round the node woke in.
func (o *oddEvenState) Resume(nd *ncc.Node, in []ncc.Message) ncc.Op {
	switch o.phase {
	case oeExchange:
		for _, m := range in {
			if m.Kind != kExchange || m.Src != o.partner {
				continue
			}
			oKey, oID := m.A, m.IDs()[0]
			oLarger := oKey > o.curKey || (oKey == o.curKey && oID < o.curID)
			if o.left == oLarger {
				// Left keeps the larger pair; right keeps the smaller.
				o.curKey, o.curID = oKey, oID
			}
		}
		o.r++
		return o.exchange(nd)
	case oeNeighbors:
		predPair, succPair := ncc.None, ncc.None
		for _, m := range in {
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
		// None encodes a path end. A node holding its own pair needs no
		// message.
		if o.curID == nd.ID() {
			o.res = Result{Rank: o.s.Pos, Pred: predPair, Succ: succPair}
		} else {
			nd.Send(o.curID, ncc.Message{Kind: kAssign, A: int64(o.s.Pos)}.WithIDs(predPair, succPair))
			o.res = Result{Rank: -1, Pred: ncc.None, Succ: ncc.None}
		}
		o.phase = oeAssign
		return ncc.Next(o)
	case oeAssign:
		for i := range in {
			if in[i].Kind == kAssign {
				o.res = assignment(&in[i])
			}
		}
		o.phase = oeCheck
		return ncc.Next(o)
	default: // oeCheck
		if o.res.Rank == -1 {
			// Our assignment arrives exactly one round after the holders
			// send; a second round is allowed for skew, after which
			// silence is a bug.
			panic(fmt.Sprintf("sortnet: node %d received no rank assignment", nd.ID()))
		}
		return o.k(o.res)
	}
}
