// Package rankov provides rank-addressed communication over a sorted path:
// after the sorting step of §3.1.2 each node knows its rank and its
// neighbors in sorted order, and BuildStep gives it links to the nodes at
// rank ± 2^j (the structure L on the sorted path). On top of those doubling
// links this package implements the communication patterns the realization
// algorithms of §§4–6 actually use:
//
//   - DisseminateStep: deliver a token to every rank in a contiguous
//     interval by recursive halving — the paper's "smaller instance of the
//     global broadcast problem" used for multicast groups of consecutive
//     nodes.
//   - PrefixSumStep: the Hillis–Steele doubling scan used for the pᵢ prefix
//     sums of Algorithms 4 and 5.
//   - ShiftDownStep/ShiftUpStep: uniform-distance token shifts used by the second
//     phase of Algorithm 6 — every carrier moves its token the same
//     distance, so relays carry at most one token per step and the pattern
//     is congestion-free.
//
// All primitives are lockstep and take a deterministic number of rounds,
// except DisseminateStep whose routing prologue is adaptive (quiescence is
// detected by aggregation over the Gk tree).
package rankov

import (
	"sort"

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
// Pred[j]/Succ[j] to the holders of rank ∓/± 2^j.
type Overlay struct {
	Rank int
	N    int
	Lv   primitives.Levels
}

// BuildStep constructs the overlay from sorted-path links by running the
// structure-L construction on the sorted path.
//
// Rounds: exactly ⌈log₂ n⌉.
func BuildStep(nd *ncc.Node, rank int, pred, succ ncc.ID, k func(*Overlay) ncc.Op) ncc.Op {
	return primitives.BuildLevelsStep(nd, primitives.Path{Pred: pred, Succ: succ}, func(lv primitives.Levels) ncc.Op {
		return k(&Overlay{Rank: rank, N: nd.N(), Lv: lv})
	})
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

// DisseminateStep routes each initiator's Job to rank Lo (greedy doubling
// descent) and then floods it across [Lo, Hi] by recursive halving. Multiple
// jobs may run concurrently; the intervals the realization algorithms use
// are disjoint, which keeps the halving phase congestion-free, and the
// routing prologue's congestion is recorded by the simulator's metrics.
// Non-initiators pass nil. k receives the jobs delivered to this node's rank.
//
// Termination is adaptive: the caller's Gk tree is used to detect global
// quiescence, so the protocol costs O(log n) rounds per quiescence epoch and
// one aggregation per check.
func DisseminateStep(nd *ncc.Node, ov *Overlay, gk *primitives.Tree, job *Job, k func([]Job) ncc.Op) ncc.Op {
	var queue []Job
	var delivered []Job
	if job != nil {
		queue = append(queue, *job)
	}
	K := ncc.CeilLog2(nd.N())
	epoch := 2*K + 4
	var epochLoop func() ncc.Op
	var roundLoop func(r int) ncc.Op
	roundLoop = func(r int) ncc.Op {
		if r >= epoch {
			busy := int64(0)
			if len(queue) > 0 {
				busy = 1
			}
			return aggregate.AggregateBroadcastStep(nd, gk, busy, aggregate.OrOp(), func(v int64) ncc.Op {
				if v == 0 {
					return k(delivered)
				}
				return epochLoop()
			})
		}
		for _, j := range queue {
			processPacket(nd, ov, j, &delivered)
		}
		queue = queue[:0]
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				if m.Kind != kPacket {
					continue
				}
				j := Job{Val: m.A, Lo: int(m.B), Hi: int(m.C)}
				if len(m.IDs()) > 0 {
					j.Payload = m.IDs()[0]
				}
				queue = append(queue, j)
			}
			return roundLoop(r + 1)
		})
	}
	epochLoop = func() ncc.Op { return roundLoop(0) }
	return epochLoop()
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

// PrefixSumStep delivers the inclusive prefix sum of value over ranks 0..Rank
// via the Hillis–Steele doubling scan: in step j, every node passes its
// accumulator to rank+2^j and folds in the accumulator from rank−2^j.
//
// Rounds: exactly ⌈log₂ n⌉; ≤ 1 send and 1 receive per node per round.
func PrefixSumStep(nd *ncc.Node, ov *Overlay, value int64, k func(int64) ncc.Op) ncc.Op {
	K := ncc.CeilLog2(ov.N)
	acc := value
	var scan func(j int) ncc.Op
	scan = func(j int) ncc.Op {
		if j >= K {
			return k(acc)
		}
		if dst := ov.succAt(j); dst != ncc.None {
			nd.Send(dst, ncc.Message{Kind: kScan, A: acc})
		}
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				if m.Kind == kScan {
					acc += m.A
				}
			}
			return scan(j + 1)
		})
	}
	return scan(0)
}

// ShiftToken is the payload moved by ShiftDownStep/ShiftUpStep.
type ShiftToken struct {
	A, B int64
	ID   ncc.ID
}

// ShiftDownStep moves every carrier's token from rank r to rank r−dist and
// delivers the tokens that land at this node to k; tokens whose destination
// would be negative must not be injected by the caller. dist must be common
// knowledge (same at every node). Because the shift is uniform, intermediate
// positions never collide: each node relays at most one token per step.
//
// Rounds: exactly ⌈log₂ n⌉ (one per bit of dist, missing bits idle).
func ShiftDownStep(nd *ncc.Node, ov *Overlay, tok *ShiftToken, dist int, k func([]ShiftToken) ncc.Op) ncc.Op {
	return shiftStep(nd, ov, tok, dist, false, k)
}

// ShiftUpStep moves every carrier's token from rank r to rank r+dist, like
// ShiftDownStep in the other direction.
func ShiftUpStep(nd *ncc.Node, ov *Overlay, tok *ShiftToken, dist int, k func([]ShiftToken) ncc.Op) ncc.Op {
	return shiftStep(nd, ov, tok, dist, true, k)
}

func shiftStep(nd *ncc.Node, ov *Overlay, tok *ShiftToken, dist int, up bool, k func([]ShiftToken) ncc.Op) ncc.Op {
	K := ncc.CeilLog2(ov.N)
	var carrying []ShiftToken
	if tok != nil {
		carrying = append(carrying, *tok)
	}
	var bit func(b int) ncc.Op
	bit = func(b int) ncc.Op {
		if b >= K {
			return k(append([]ShiftToken(nil), carrying...))
		}
		if dist&(1<<b) != 0 {
			var dst ncc.ID
			if up {
				dst = ov.succAt(b)
			} else {
				dst = ov.predAt(b)
			}
			for _, tk := range carrying {
				if dst == ncc.None {
					panic("rankov: shift over the edge of the path")
				}
				m := ncc.Message{Kind: kShift, A: tk.A, B: tk.B}
				if tk.ID != ncc.None {
					m = m.WithIDs(tk.ID)
				}
				nd.Send(dst, m)
			}
			carrying = carrying[:0]
		}
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				if m.Kind != kShift {
					continue
				}
				tk := ShiftToken{A: m.A, B: m.B}
				if len(m.IDs()) > 0 {
					tk.ID = m.IDs()[0]
				}
				carrying = append(carrying, tk)
			}
			return bit(b + 1)
		})
	}
	return bit(0)
}

// SortedNeighbors is a convenience for tests: given per-rank values it
// returns the ranks sorted (used only in verification helpers).
func SortedNeighbors(vals []int) []int {
	out := append([]int(nil), vals...)
	sort.Ints(out)
	return out
}
