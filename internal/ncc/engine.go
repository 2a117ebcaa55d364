package ncc

import (
	"container/heap"
	"fmt"
	"time"
)

// engine.go is the round engine: the loop that steps the active nodes,
// then, between rounds, partitions them by suspension, runs collectives,
// invokes the delivery layer, advances the round, and decides the next
// active set. Stepping lives in program.go and message routing in
// delivery.go; this file owns only policy.

// drive is the engine loop. Everything runs on the calling goroutine: the
// nodes' steps, the hooks, and the engine's own bookkeeping.
func (s *Sim) drive() {
	pt := startPhaseTimer(s.cfg.Profile)
	for {
		for _, nd := range s.active {
			s.step(nd)
		}
		pt.endCompute()
		if s.firstErr == nil && s.cfg.Progress != nil {
			s.cfg.Progress(s.round, int(s.met.Messages))
		}
		if s.firstErr == nil && s.cfg.Stop != nil {
			select {
			case <-s.cfg.Stop:
				s.firstErr = ErrCanceled
			default:
			}
		}
		if s.firstErr != nil {
			s.killAll()
			return
		}

		// Partition the nodes that just stepped.
		var collective []*Node
		justDone := 0
		for _, nd := range s.active {
			switch nd.state {
			case stateDone:
				justDone++
			case stateAwait:
				s.awaiting++
			case stateSleep:
				heap.Push(&s.sleepers, nd)
			case stateCollective:
				collective = append(collective, nd)
			}
		}
		s.doneCnt += justDone

		if len(collective) > 0 && !s.runCollective(collective) {
			s.killAll()
			return
		}

		// Deliver messages sent this round.
		if s.sendViol > 0 {
			s.met.SendViolations += s.sendViol
			s.sendViol = 0
			if s.cfg.Strict {
				s.firstErr = capacityError(fmt.Sprintf("ncc: round %d: send capacity exceeded (capacity %d)", s.round, s.capacity))
			}
		}
		if s.doneCnt == s.n {
			// Every protocol finished during this round's steps; the final
			// slice performs no further communication and does not start a
			// new round. Deliver only to account for sent messages — a
			// strict-mode capacity violation here is still a run error.
			_, derr := s.del.route(s.active, s.round, &s.met)
			if derr != nil && s.firstErr == nil {
				s.firstErr = derr
			}
			return
		}
		pt.beginDelivery()
		woken, derr := s.del.route(s.active, s.round, &s.met)
		pt.endDelivery()
		s.awaiting -= len(woken)
		if derr != nil && s.firstErr == nil {
			s.firstErr = derr
		}
		if s.firstErr != nil {
			s.killAll()
			return
		}

		// Advance the round and compute the next active set.
		s.round++
		if s.round > s.cfg.MaxRounds {
			s.firstErr = fmt.Errorf("%w=%d", ErrMaxRounds, s.cfg.MaxRounds)
			s.killAll()
			return
		}
		next := s.nextActive(woken)
		if len(next) == 0 {
			if s.sleepers.Len() > 0 {
				// Fast-forward empty rounds to the earliest wake time.
				s.round = s.sleepers[0].wakeRound
				next = s.nextActive(nil)
			}
			if len(next) == 0 {
				s.firstErr = ErrDeadlock
				s.killAll()
				return
			}
		}
		pt.flushRound()
		s.wakeSet(next)
	}
}

// phaseTimer splits one round's wall time into the three Config.Profile
// phases. With a nil hook every method is a no-op with zero clock reads, so
// unprofiled runs pay nothing. The spans tile the engine loop exactly:
//
//	compute  — the active nodes' steps (plus the wake-set sort inside
//	           wakeSet, which precedes them — negligible by construction)
//	delivery — the del.route call
//	barrier  — everything else between rounds (Progress/Stop polls,
//	           partitioning, collectives, round advance)
//
// flushRound fires the hook immediately before the next round's steps, i.e.
// once per completed round; rounds that end the run (every node done, or an
// aborting error) never flush and are dropped.
type phaseTimer struct {
	hook                       func(compute, delivery, barrier time.Duration)
	mark                       time.Time
	compute, delivery, barrier time.Duration
}

func startPhaseTimer(hook func(compute, delivery, barrier time.Duration)) phaseTimer {
	pt := phaseTimer{hook: hook}
	if hook != nil {
		pt.mark = time.Now() //grlint:allow D001 -- profile-only clock read; conformance proves phase profiling is trace-inert
	}
	return pt
}

// lap returns the span since the previous mark and re-marks.
func (pt *phaseTimer) lap() time.Duration {
	now := time.Now() //grlint:allow D001 -- profile-only clock read; conformance proves phase profiling is trace-inert
	d := now.Sub(pt.mark)
	pt.mark = now
	return d
}

func (pt *phaseTimer) endCompute() {
	if pt.hook != nil {
		pt.compute += pt.lap()
	}
}

func (pt *phaseTimer) beginDelivery() {
	if pt.hook != nil {
		pt.barrier += pt.lap()
	}
}

func (pt *phaseTimer) endDelivery() {
	if pt.hook != nil {
		pt.delivery += pt.lap()
	}
}

func (pt *phaseTimer) flushRound() {
	if pt.hook == nil {
		return
	}
	pt.barrier += pt.lap()
	pt.hook(pt.compute, pt.delivery, pt.barrier)
	pt.compute, pt.delivery, pt.barrier = 0, 0, 0
}

// nextActive gathers the nodes that act in the (already advanced) round:
// nodes that suspended with Next, awaiters that received mail (woken), and
// sleepers whose wake round has arrived.
func (s *Sim) nextActive(woken []*Node) []*Node {
	// nextScratch is reused across rounds: wakeSet copies the result into
	// s.active before the next call, so the backing array is free again.
	next := s.nextScratch[:0]
	for _, nd := range s.active {
		if nd.state == stateRunning {
			next = append(next, nd)
		}
	}
	next = append(next, woken...)
	for s.sleepers.Len() > 0 && s.sleepers[0].wakeRound <= s.round {
		next = append(next, heap.Pop(&s.sleepers).(*Node))
	}
	s.nextScratch = next
	return next
}

// wakeSet makes the given nodes the new round's active set, in
// deterministic (Gk index) order.
func (s *Sim) wakeSet(next []*Node) {
	sortNodesByIdx(next)
	s.active = append(s.active[:0], next...)
	s.met.ActiveNodeRounds += int64(len(next))
}

// runCollective validates and executes a collective barrier. All live
// (non-done) nodes must have entered the same *Collective; sleeping or
// awaiting nodes indicate a protocol bug.
func (s *Sim) runCollective(coll []*Node) bool {
	c := coll[0].coll
	for _, nd := range coll {
		if nd.coll != c {
			s.firstErr = fmt.Errorf("ncc: mixed collectives %q and %q at round %d", c.Name, nd.coll.Name, s.round)
			return false
		}
	}
	if len(coll)+s.doneCnt != s.n || s.sleepers.Len() > 0 || s.awaiting > 0 {
		s.firstErr = fmt.Errorf("ncc: collective %q entered by %d of %d live nodes at round %d",
			c.Name, len(coll), s.n-s.doneCnt, s.round)
		return false
	}
	ins := make([]int64, s.n)
	for _, nd := range coll {
		ins[nd.idx] = nd.collIn
	}
	outs, charge := c.Run(s, ins)
	if charge < 0 {
		charge = 0
	}
	s.round += charge
	s.met.CollectiveRounds += charge
	s.met.CollectiveCalls[c.Name]++
	for _, nd := range coll {
		if outs != nil {
			nd.collOut = outs[nd.idx]
		}
		nd.state = stateRunning // they resume next round
	}
	return true
}

// killAll ends a failed run: every node still suspended is retired in place.
func (s *Sim) killAll() {
	for _, nd := range s.nodes {
		s.retire(nd)
	}
}

// sleepHeap orders sleeping nodes by wake round; the engine uses it to
// fast-forward rounds in which every node sleeps.
type sleepHeap []*Node

func (h sleepHeap) Len() int           { return len(h) }
func (h sleepHeap) Less(i, j int) bool { return h[i].wakeRound < h[j].wakeRound }
func (h sleepHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sleepHeap) Push(x any)        { *h = append(*h, x.(*Node)) }
func (h *sleepHeap) Pop() (x any)      { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }
