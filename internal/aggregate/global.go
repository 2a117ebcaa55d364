// Package aggregate implements the global computational primitives of §3.2
// of "Distributed Graph Realizations": broadcast and aggregation (Theorem 4)
// and collection (Theorem 5), run over the balanced binary search tree TBFS
// from package primitives. The paper's local aggregation, multicast and
// token collection (Theorems 6–8) are not reproduced: no realization calls
// them, since the §4–§6 algorithms use package rankov's rank-addressed
// primitives, and the paper leaves their token routing unspecified
// (DESIGN.md §3).
//
// Every primitive is written in the resumable step form of package ncc: a
// call Foo(nd, …, k) performs the current round's compute slice and returns
// an ncc.Op whose continuation eventually invokes k with the result.
// AggregateBroadcast, which the realizations run several times per phase,
// keeps its state in an Aggregator that is its own continuation; a caller
// that aggregates again and again owns one and reuses it, so a repeat call
// allocates nothing (package primitives describes the convention). The
// primitives only the experiments run keep their closures, through
// ncc.ContFunc.
package aggregate

import (
	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// Message kinds used by this package (0x30–0x4F block).
const (
	kUp uint8 = 0x30 + iota
	kDown
	kAggUp
	kAggDown
	kToken
	kTokenDone
	kLeaderTok
	kPhaseEnd
)

// Op is a distributive aggregate operator with a neutral element, e.g.
// {Combine: max, Neutral: math.MinInt64}.
type Op struct {
	Combine func(a, b int64) int64
	Neutral int64
}

// MaxOp aggregates the maximum.
func MaxOp() Op {
	return Op{Combine: func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}, Neutral: -1 << 62}
}

// MinOp aggregates the minimum.
func MinOp() Op {
	return Op{Combine: func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}, Neutral: 1<<62 - 1}
}

// SumOp aggregates the sum.
func SumOp() Op {
	return Op{Combine: func(a, b int64) int64 { return a + b }, Neutral: 0}
}

// OrOp aggregates logical OR over {0,1}.
func OrOp() Op {
	return Op{Combine: func(a, b int64) int64 {
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	}, Neutral: 0}
}

// Broadcast delivers the leader's value to every node (Theorem 4). The
// leader is whichever single node passes have=true; its token travels up to
// the TBFS root and floods down. Every node receives the value via k.
//
// Rounds: exactly 2·⌈log₂ n⌉ + 5 from the caller's current round (K+2 up,
// K+3 down).
func Broadcast(nd *ncc.Node, t *primitives.Tree, have bool, value int64, k func(int64) ncc.Op) ncc.Op {
	K := ncc.CeilLog2(nd.N())
	start := nd.Round()
	upDeadline := start + K + 2
	got := have
	val := value
	// Up phase: the leader's token climbs to the root; intermediate nodes
	// relay, the root records.
	if have && !t.IsRoot {
		nd.Send(t.Parent, ncc.Message{Kind: kUp, A: value})
	}
	finish := func() ncc.Op {
		sendDown(nd, t, kDown, val)
		return primitives.SyncAt(nd, upDeadline+K+3, ncc.ContFunc(func(*ncc.Node, ncc.Wake) ncc.Op { return k(val) }))
	}
	// Down phase: flood from the root.
	down := func() ncc.Op {
		if t.IsRoot {
			if !got {
				panic("aggregate: Broadcast with no leader")
			}
			return finish()
		}
		var wait ncc.ContFunc
		wait = func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			waiting := true
			for _, m := range w.Msgs {
				if m.Kind == kDown {
					val = m.A
					waiting = false
				}
			}
			if waiting {
				return ncc.Await(wait)
			}
			return finish()
		}
		return ncc.Await(wait)
	}
	var up func() ncc.Op
	up = func() ncc.Op {
		if nd.Round() >= upDeadline {
			return down()
		}
		return primitives.SyncAt(nd, nd.Round()+1, ncc.ContFunc(func(_ *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				if m.Kind == kUp {
					if t.IsRoot {
						got, val = true, m.A
					} else {
						nd.Send(t.Parent, ncc.Message{Kind: kUp, A: m.A})
					}
				}
			}
			return up()
		}))
	}
	return up()
}

func sendDown(nd *ncc.Node, t *primitives.Tree, kind uint8, v int64) {
	if t.Left != ncc.None {
		nd.Send(t.Left, ncc.Message{Kind: kind, A: v})
	}
	if t.Right != ncc.None {
		nd.Send(t.Right, ncc.Message{Kind: kind, A: v})
	}
}

// AggregateBroadcast folds every node's value with the distributive
// operator op and delivers the global result to every node via k (Theorem 4's
// aggregation followed by a broadcast of the result, the form all realization
// algorithms use). Convergecast up the TBFS, flood down.
//
// Rounds: exactly 2·(⌈log₂ n⌉ + 3) from the caller's current round.
func AggregateBroadcast(nd *ncc.Node, t *primitives.Tree, value int64, op Op, k func(int64) ncc.Op) ncc.Op {
	return new(Aggregator).AggregateBroadcast(nd, t, value, op, k)
}

// Aggregator is AggregateBroadcast's per-node state, and its continuation:
// phase says where Resume picks up. A caller that aggregates again and
// again keeps one; the zero value is ready.
type Aggregator struct {
	t        *primitives.Tree
	combine  func(a, b int64) int64
	k        func(int64) ncc.Op
	K        int
	val      int64 // the subtree's aggregate, then the global result
	pending  int   // children whose aggregates have not arrived
	deadline int   // the round the current phase ends at
	phase    aggPhase
}

// AggregateBroadcast runs the package function AggregateBroadcast on s. It
// resets every field, so a repeat call, which may start from inside the
// previous call's k, allocates nothing.
func (s *Aggregator) AggregateBroadcast(nd *ncc.Node, t *primitives.Tree, value int64, op Op, k func(int64) ncc.Op) ncc.Op {
	K := ncc.CeilLog2(nd.N())
	pending := 0
	if t.Left != ncc.None {
		pending++
	}
	if t.Right != ncc.None {
		pending++
	}
	// Phase A: convergecast. A node at height h sends in round start+h, so
	// everything arrives within K+2 rounds.
	*s = Aggregator{t: t, combine: op.Combine, k: k, K: K, val: value, pending: pending, deadline: nd.Round() + K + 3}
	if pending == 0 {
		return s.passUp(nd)
	}
	return ncc.Await(s)
}

type aggPhase uint8

const (
	gatherUp  aggPhase = iota // awaiting the children's aggregates
	endUp                     // sleeping until phase A ends
	awaitDown                 // awaiting the result from the parent
	endDown                   // sleeping until phase B ends
)

// Resume runs the round the node woke in.
func (s *Aggregator) Resume(nd *ncc.Node, w ncc.Wake) ncc.Op {
	switch s.phase {
	case gatherUp:
		for _, m := range w.Msgs {
			if m.Kind == kAggUp {
				s.val = s.combine(s.val, m.A)
				s.pending--
			}
		}
		if s.pending > 0 {
			return ncc.Await(s)
		}
		return s.passUp(nd)
	case endUp:
		// Phase B: the root holds the result; it floods down the tree.
		s.deadline = nd.Round() + s.K + 3
		if s.t.IsRoot {
			return s.passDown(nd)
		}
		s.phase = awaitDown
		return ncc.Await(s)
	case awaitDown:
		waiting := true
		for _, m := range w.Msgs {
			if m.Kind == kAggDown {
				s.val = m.A
				waiting = false
			}
		}
		if waiting {
			return ncc.Await(s)
		}
		return s.passDown(nd)
	default: // endDown
		return s.k(s.val)
	}
}

// passUp passes the subtree's aggregate to the parent and sleeps out
// phase A.
func (s *Aggregator) passUp(nd *ncc.Node) ncc.Op {
	if !s.t.IsRoot {
		nd.Send(s.t.Parent, ncc.Message{Kind: kAggUp, A: s.val})
	}
	s.phase = endUp
	return primitives.SyncAt(nd, s.deadline, s)
}

// passDown passes the result to the children and sleeps out phase B.
func (s *Aggregator) passDown(nd *ncc.Node) ncc.Op {
	sendDown(nd, s.t, kAggDown, s.val)
	s.phase = endDown
	return primitives.SyncAt(nd, s.deadline, s)
}

// FindByPosition delivers the ID of the node whose annotated inorder
// position equals pos, made common knowledge via aggregation (the Corollary 2
// median primitive generalized to any position). Rounds: one
// AggregateBroadcast.
func FindByPosition(nd *ncc.Node, t *primitives.Tree, pos int, k func(ncc.ID) ncc.Op) ncc.Op {
	v := int64(0)
	if t.Pos == pos {
		v = int64(nd.ID())
	}
	return AggregateBroadcast(nd, t, v, MaxOp(), func(r int64) ncc.Op {
		id := ncc.ID(r)
		if id != ncc.None {
			nd.Learn(id)
		}
		return k(id)
	})
}

// Collect gathers every node's tokens at the leader (Theorem 5): tokens
// are pipelined up the TBFS with per-round throttling that respects the node
// capacity, then streamed from the root to the leader. All nodes must pass
// the same leader ID (normally learned via Broadcast beforehand); nodes
// without tokens pass nil. k receives the collected tokens at the leader (nil
// elsewhere). Termination is event-driven — the root floods a phase-end
// marker once everything has drained — so the round cost adapts to the token
// count k as O(k + log n). All nodes are resynchronized to the same round
// before k runs (the marker's flood time is corrected using each node's
// depth).
func Collect(nd *ncc.Node, t *primitives.Tree, tokens []int64, leader ncc.ID, k func([]int64) ncc.Op) ncc.Op {
	K := ncc.CeilLog2(nd.N())
	budget := nd.Capacity()/2 - 1
	if budget < 1 {
		budget = 1
	}
	children := 0
	if t.Left != ncc.None {
		children++
	}
	if t.Right != ncc.None {
		children++
	}
	queue := append([]int64(nil), tokens...)
	var atLeader []int64
	doneChildren := 0
	sentDone := false
	var leaderQueue []int64 // root only: tokens to stream to the leader
	// resync aligns every node to the same round after the phase-end flood:
	// a node at depth d learns of the end d rounds after the root flooded it.
	resync := func() ncc.Op {
		base := nd.Round() - t.Depth
		return primitives.SyncAt(nd, base+K+3, ncc.ContFunc(func(_ *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				if m.Kind == kLeaderTok {
					atLeader = append(atLeader, m.A)
				}
			}
			return k(atLeader)
		}))
	}
	// ended is the round in which the (relayed) flood departs; its inbox is
	// intentionally discarded, exactly as in the event loop below.
	ended := ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op { return resync() })
	var iter func() ncc.Op
	iter = func() ncc.Op {
		// Ship up to budget tokens towards the root (or buffer at the root).
		nSend := len(queue)
		if nSend > budget {
			nSend = budget
		}
		for i := 0; i < nSend; i++ {
			if t.IsRoot {
				leaderQueue = append(leaderQueue, queue[i])
			} else {
				nd.Send(t.Parent, ncc.Message{Kind: kToken, A: queue[i]})
			}
		}
		queue = queue[nSend:]
		if t.IsRoot {
			// Stream buffered tokens to the leader.
			nLead := len(leaderQueue)
			if nLead > budget {
				nLead = budget
			}
			for i := 0; i < nLead; i++ {
				if leader == nd.ID() {
					atLeader = append(atLeader, leaderQueue[i])
				} else {
					nd.Send(leader, ncc.Message{Kind: kLeaderTok, A: leaderQueue[i]})
				}
			}
			leaderQueue = leaderQueue[nLead:]
			if doneChildren == children && len(queue) == 0 && len(leaderQueue) == 0 {
				sendDown(nd, t, kPhaseEnd, 0)
				return ncc.Next(ended)
			}
		} else if doneChildren == children && len(queue) == 0 && !sentDone {
			nd.Send(t.Parent, ncc.Message{Kind: kTokenDone})
			sentDone = true
		}
		return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				switch m.Kind {
				case kToken:
					queue = append(queue, m.A)
				case kTokenDone:
					doneChildren++
				case kLeaderTok:
					atLeader = append(atLeader, m.A)
				case kPhaseEnd:
					// Relay and stop immediately; the rest of this inbox is
					// dead traffic from the drained phase.
					sendDown(nd, t, kPhaseEnd, 0)
					return ncc.Next(ended)
				}
			}
			return iter()
		}))
	}
	return iter()
}
