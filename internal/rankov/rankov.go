// Package rankov provides rank-addressed communication over a sorted path:
// after the sorting step of §3.1.2 each node knows its rank and its
// neighbors in sorted order, and Build gives it links to the nodes at
// rank ± 2^j (the structure L on the sorted path). On top of those doubling
// links this package implements the communication patterns the realization
// algorithms of §§4–6 actually use:
//
//   - Disseminate: deliver a token to every rank in a contiguous
//     interval by recursive halving — the paper's "smaller instance of the
//     global broadcast problem" used for multicast groups of consecutive
//     nodes.
//   - PrefixSum: the Hillis–Steele doubling scan used for the pᵢ prefix
//     sums of Algorithms 4 and 5.
//   - ShiftDown/ShiftUp: uniform-distance token shifts used by the second
//     phase of Algorithm 6 — every carrier moves its token the same
//     distance, so relays carry at most one token per step and the pattern
//     is congestion-free.
//
// All primitives are lockstep and take a deterministic number of rounds,
// except Disseminate whose routing prologue is adaptive (quiescence is
// detected by aggregation over the Gk tree).
//
// A realization re-ranks and disseminates once per phase, so every
// primitive here has reusable per-node state, owned by its caller and its
// own continuation (package primitives describes the convention): an
// Overlay rebuilds itself in place with its Build method, and a
// Disseminator, a Scanner and a Shifter run Disseminate, PrefixSum and the
// shifts. A repeat call on the same state allocates nothing once its
// buffers have grown. What a call delivers from that state (the *Overlay,
// the []Job, the []ShiftToken) stays valid until the next call on it. The
// package functions run each primitive once on fresh state.
package rankov

import (
	"graphrealize/internal/aggregate"
	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// Message kinds used by this package (0x50–0x6F block).
const (
	kPacket uint8 = 0x50 + iota
	kScan
	kShift
)

// Overlay is a node's view of a ranked path: its rank, and doubling links
// Pred[j]/Succ[j] to the holders of rank ∓/± 2^j. It also holds the
// structure-L builder whose arrays its links live in, so a caller that
// re-ranks again and again keeps one Overlay, by pointer, and rebuilds it
// with its Build method. The zero value is ready.
type Overlay struct {
	Rank int
	N    int
	Lv   primitives.Levels

	lb     primitives.LevelsBuilder
	k      func(*Overlay) ncc.Op
	builtK func(primitives.Levels) ncc.Op // o.built, bound on o's first Build
}

// Build constructs the overlay from sorted-path links by running the
// structure-L construction on the sorted path.
//
// Rounds: exactly ⌈log₂ n⌉.
func Build(nd *ncc.Node, rank int, pred, succ ncc.ID, k func(*Overlay) ncc.Op) ncc.Op {
	return new(Overlay).Build(nd, rank, pred, succ, k)
}

// Build runs the package function Build on o and delivers o itself. A
// repeat call overwrites o's links in place and allocates nothing, so the
// overlay a call delivered is valid until o's next Build.
func (o *Overlay) Build(nd *ncc.Node, rank int, pred, succ ncc.ID, k func(*Overlay) ncc.Op) ncc.Op {
	if o.builtK == nil {
		o.builtK = o.built
	}
	o.Rank, o.N, o.k = rank, nd.N(), k
	return o.lb.BuildLevels(nd, primitives.Path{Pred: pred, Succ: succ}, o.builtK)
}

// built takes the links BuildLevels delivered.
func (o *Overlay) built(lv primitives.Levels) ncc.Op {
	o.Lv = lv
	return o.k(o)
}

// succAt returns the link to rank+2^j, or None.
func (o *Overlay) succAt(j int) ncc.ID {
	if j > o.Lv.Top() {
		return ncc.None
	}
	return o.Lv.Succ[j]
}

// predAt returns the link to rank−2^j, or None.
func (o *Overlay) predAt(j int) ncc.ID {
	if j > o.Lv.Top() {
		return ncc.None
	}
	return o.Lv.Pred[j]
}

// Job is a token destined for every rank in [Lo, Hi]. Val is an arbitrary
// scalar and Payload an optional ID (typically "store this neighbor").
type Job struct {
	Val     int64
	Payload ncc.ID
	Lo, Hi  int
}

// Disseminate routes each initiator's Job to rank Lo (greedy doubling
// descent) and then floods it across [Lo, Hi] by recursive halving. Multiple
// jobs may run concurrently; the intervals the realization algorithms use
// are disjoint, which keeps the halving phase congestion-free, and the
// routing prologue's congestion is recorded by the simulator's metrics.
// Non-initiators pass nil. k receives the jobs delivered to this node's rank.
//
// Termination is adaptive: the caller's Gk tree is used to detect global
// quiescence, so the protocol costs O(log n) rounds per quiescence epoch and
// one aggregation per check.
func Disseminate(nd *ncc.Node, ov *Overlay, gk *primitives.Tree, job *Job, k func([]Job) ncc.Op) ncc.Op {
	return new(Disseminator).Disseminate(nd, ov, gk, job, k)
}

// Disseminator is Disseminate's per-node state, and its continuation: the
// jobs to forward this round, the jobs delivered here, the round r of the
// current quiescence epoch, and the aggregation that checks for
// quiescence. A caller that disseminates again and again keeps one; the
// zero value is ready.
type Disseminator struct {
	nd               *ncc.Node
	ov               *Overlay
	gk               *primitives.Tree
	k                func([]Job) ncc.Op
	queue, delivered []Job
	r, epoch         int
	agg              aggregate.Aggregator
	checkedK         func(int64) ncc.Op // s.checked, bound on s's first call
}

// Disseminate runs the package function Disseminate on s. A repeat call
// reuses s's job buffers and its aggregation; the []Job it delivers is
// s's own buffer, valid until s's next Disseminate.
func (s *Disseminator) Disseminate(nd *ncc.Node, ov *Overlay, gk *primitives.Tree, job *Job, k func([]Job) ncc.Op) ncc.Op {
	if s.checkedK == nil {
		s.checkedK = s.checked
	}
	s.nd, s.ov, s.gk, s.k = nd, ov, gk, k
	s.queue, s.delivered = s.queue[:0], s.delivered[:0]
	s.r, s.epoch = 0, 2*ncc.CeilLog2(nd.N())+4
	if job != nil {
		s.queue = append(s.queue, *job)
	}
	return s.round()
}

// round forwards the queued jobs, or checks for quiescence at the end of an
// epoch.
func (s *Disseminator) round() ncc.Op {
	if s.r >= s.epoch {
		busy := int64(0)
		if len(s.queue) > 0 {
			busy = 1
		}
		return s.agg.AggregateBroadcast(s.nd, s.gk, busy, aggregate.OrOp(), s.checkedK)
	}
	for _, j := range s.queue {
		processPacket(s.nd, s.ov, j, &s.delivered)
	}
	s.queue = s.queue[:0]
	return ncc.Next(s)
}

// Resume queues the jobs that arrived for the next round.
func (s *Disseminator) Resume(_ *ncc.Node, w ncc.Wake) ncc.Op {
	for _, m := range w.Msgs {
		if m.Kind != kPacket {
			continue
		}
		j := Job{Val: m.A, Lo: int(m.B), Hi: int(m.C)}
		if len(m.IDs()) > 0 {
			j.Payload = m.IDs()[0]
		}
		s.queue = append(s.queue, j)
	}
	s.r++
	return s.round()
}

// checked finishes once no node holds a job, or starts another epoch.
func (s *Disseminator) checked(busy int64) ncc.Op {
	if busy == 0 {
		return s.k(s.delivered)
	}
	s.r = 0
	return s.round()
}

// processPacket advances one job at this node: route toward Lo if we are
// before the interval, or deliver and issue all halving delegations for the
// remainder of the interval if we own Lo. Every outcome is an immediate
// send, so nothing is requeued locally.
func processPacket(nd *ncc.Node, ov *Overlay, j Job, delivered *[]Job) {
	r := ov.Rank
	switch {
	case r < j.Lo:
		// Greedy descent toward Lo: the largest jump not overshooting.
		d := j.Lo - r
		jj := bitLen(d) - 1
		dst := ov.succAt(jj)
		if dst == ncc.None {
			panic("rankov: missing forward link during routing")
		}
		sendJob(nd, dst, j)
	case r > j.Lo:
		panic("rankov: packet routed past its interval")
	default: // r == j.Lo
		*delivered = append(*delivered, j)
		// Recursive halving: delegate [r+2^t, Hi] for decreasing t.
		hi := j.Hi
		for hi > r {
			d := hi - r
			t := bitLen(d) - 1
			dst := ov.succAt(t)
			if dst == ncc.None {
				panic("rankov: missing halving link")
			}
			sendJob(nd, dst, Job{Val: j.Val, Payload: j.Payload, Lo: r + 1<<t, Hi: hi})
			hi = r + 1<<t - 1
		}
	}
}

func sendJob(nd *ncc.Node, dst ncc.ID, j Job) {
	m := ncc.Message{Kind: kPacket, A: j.Val, B: int64(j.Lo), C: int64(j.Hi)}
	if j.Payload != ncc.None {
		m = m.WithIDs(j.Payload)
	}
	nd.Send(dst, m)
}

func bitLen(v int) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// PrefixSum delivers the inclusive prefix sum of value over ranks 0..Rank
// via the Hillis–Steele doubling scan: in step j, every node passes its
// accumulator to rank+2^j and folds in the accumulator from rank−2^j.
//
// Rounds: exactly ⌈log₂ n⌉; ≤ 1 send and 1 receive per node per round.
func PrefixSum(nd *ncc.Node, ov *Overlay, value int64, k func(int64) ncc.Op) ncc.Op {
	return new(Scanner).PrefixSum(nd, ov, value, k)
}

// Scanner is PrefixSum's per-node state, and its continuation: the
// accumulator and the doubling step j in progress. The zero value is
// ready.
type Scanner struct {
	ov   *Overlay
	j, K int
	acc  int64
	k    func(int64) ncc.Op
}

// PrefixSum runs the package function PrefixSum on s; a repeat call
// allocates nothing.
func (s *Scanner) PrefixSum(nd *ncc.Node, ov *Overlay, value int64, k func(int64) ncc.Op) ncc.Op {
	*s = Scanner{ov: ov, K: ncc.CeilLog2(ov.N), acc: value, k: k}
	return s.pass(nd)
}

// pass sends the accumulator to rank+2^j, or delivers it after the last
// step.
func (s *Scanner) pass(nd *ncc.Node) ncc.Op {
	if s.j >= s.K {
		return s.k(s.acc)
	}
	if dst := s.ov.succAt(s.j); dst != ncc.None {
		nd.Send(dst, ncc.Message{Kind: kScan, A: s.acc})
	}
	return ncc.Next(s)
}

// Resume adds the accumulator received from rank−2^j.
func (s *Scanner) Resume(nd *ncc.Node, w ncc.Wake) ncc.Op {
	for _, m := range w.Msgs {
		if m.Kind == kScan {
			s.acc += m.A
		}
	}
	s.j++
	return s.pass(nd)
}

// ShiftToken is the payload moved by ShiftDown/ShiftUp.
type ShiftToken struct {
	A, B int64
	ID   ncc.ID
}

// ShiftDown moves every carrier's token from rank r to rank r−dist and
// delivers the tokens that land at this node to k; tokens whose destination
// would be negative must not be injected by the caller. dist must be common
// knowledge (same at every node). Because the shift is uniform, intermediate
// positions never collide: each node relays at most one token per step.
//
// Rounds: exactly ⌈log₂ n⌉ (one per bit of dist, missing bits idle).
func ShiftDown(nd *ncc.Node, ov *Overlay, tok *ShiftToken, dist int, k func([]ShiftToken) ncc.Op) ncc.Op {
	return new(Shifter).ShiftDown(nd, ov, tok, dist, k)
}

// ShiftUp moves every carrier's token from rank r to rank r+dist, like
// ShiftDown in the other direction.
func ShiftUp(nd *ncc.Node, ov *Overlay, tok *ShiftToken, dist int, k func([]ShiftToken) ncc.Op) ncc.Op {
	return new(Shifter).ShiftUp(nd, ov, tok, dist, k)
}

// Shifter is the per-node state of ShiftDown and ShiftUp, and their
// continuation: the tokens this node carries and the bit b of dist in
// progress. A caller that shifts again and again keeps one; the zero value
// is ready.
type Shifter struct {
	ov       *Overlay
	b, K     int
	dist     int
	up       bool
	carrying []ShiftToken
	k        func([]ShiftToken) ncc.Op
}

// ShiftDown runs the package function ShiftDown on s. A repeat shift
// reuses s's token buffer: the tokens it delivers are that buffer, valid
// until s's next shift.
func (s *Shifter) ShiftDown(nd *ncc.Node, ov *Overlay, tok *ShiftToken, dist int, k func([]ShiftToken) ncc.Op) ncc.Op {
	return s.shift(nd, ov, tok, dist, false, k)
}

// ShiftUp runs the package function ShiftUp on s, like ShiftDown.
func (s *Shifter) ShiftUp(nd *ncc.Node, ov *Overlay, tok *ShiftToken, dist int, k func([]ShiftToken) ncc.Op) ncc.Op {
	return s.shift(nd, ov, tok, dist, true, k)
}

func (s *Shifter) shift(nd *ncc.Node, ov *Overlay, tok *ShiftToken, dist int, up bool, k func([]ShiftToken) ncc.Op) ncc.Op {
	*s = Shifter{ov: ov, K: ncc.CeilLog2(ov.N), dist: dist, up: up, carrying: s.carrying[:0], k: k}
	if tok != nil {
		s.carrying = append(s.carrying, *tok)
	}
	return s.hop(nd)
}

// hop moves the carried tokens 2^b ranks when bit b of dist is set, or
// delivers them after the last bit.
func (s *Shifter) hop(nd *ncc.Node) ncc.Op {
	b := s.b
	if b >= s.K {
		return s.k(s.carrying)
	}
	if s.dist&(1<<b) != 0 {
		var dst ncc.ID
		if s.up {
			dst = s.ov.succAt(b)
		} else {
			dst = s.ov.predAt(b)
		}
		for _, tk := range s.carrying {
			if dst == ncc.None {
				panic("rankov: shift over the edge of the path")
			}
			m := ncc.Message{Kind: kShift, A: tk.A, B: tk.B}
			if tk.ID != ncc.None {
				m = m.WithIDs(tk.ID)
			}
			nd.Send(dst, m)
		}
		s.carrying = s.carrying[:0]
	}
	return ncc.Next(s)
}

// Resume picks up the tokens that arrived this round.
func (s *Shifter) Resume(nd *ncc.Node, w ncc.Wake) ncc.Op {
	for _, m := range w.Msgs {
		if m.Kind != kShift {
			continue
		}
		tk := ShiftToken{A: m.A, B: m.B}
		if len(m.IDs()) > 0 {
			tk.ID = m.IDs()[0]
		}
		s.carrying = append(s.carrying, tk)
	}
	s.b++
	return s.hop(nd)
}
