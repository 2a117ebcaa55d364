package ncc

import (
	"fmt"
	"math/bits"
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
		for i := 0; i < len(s.active); {
			i = s.stepFrom(i)
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
		collective := s.entered[:0]
		justDone := 0
		for _, nd := range s.active {
			switch nd.state {
			case stateDone:
				justDone++
			case stateAwait:
				s.awaiting++
			case stateSleep:
				s.sleepers.push(nd)
			case stateCollective:
				collective = append(collective, nd)
			}
		}
		s.doneCnt += justDone
		s.entered = collective

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
			if len(s.sleepers) > 0 {
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
//	compute  — the active nodes' steps
//	delivery — the del.route call
//	barrier  — everything else between rounds (Progress/Stop polls,
//	           partitioning, collectives, round advance, and the scan of
//	           the wake bitmap that lists the next active set in order)
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

// nextActive gathers the nodes that act in the (already advanced) round, in
// Gk order: nodes that suspended with Next, awaiters that received mail
// (woken), and sleepers whose wake round has arrived. Each is marked in the
// wake bitmap by Gk index, and a scan of the marked words lists them in
// order, so no round sorts its active set.
func (s *Sim) nextActive(woken []*Node) []*Node {
	for _, nd := range s.active {
		if nd.state == stateRunning {
			s.markWake(nd.idx)
		}
	}
	for _, nd := range woken {
		s.markWake(nd.idx)
	}
	for len(s.sleepers) > 0 && s.sleepers[0].wakeRound <= s.round {
		s.markWake(s.sleepers.pop().idx)
	}
	// nextScratch is free: wakeSet swapped it out of s.active last round.
	next := s.nextScratch[:0]
	for w, word := range s.wake {
		if word == 0 {
			continue
		}
		s.wake[w] = 0
		for word != 0 {
			next = append(next, s.nodes[w<<6|bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	s.nextScratch = next
	return next
}

// markWake marks the node at Gk index i active in the next round.
func (s *Sim) markWake(i int) {
	s.wake[i>>6] |= 1 << (i & 63)
}

// wakeSet makes next, which nextActive built in Gk order, the new round's
// active set; the old active set's array becomes the next scratch.
func (s *Sim) wakeSet(next []*Node) {
	s.active, s.nextScratch = next, s.active
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
	if len(coll)+s.doneCnt != s.n || len(s.sleepers) > 0 || s.awaiting > 0 {
		s.firstErr = fmt.Errorf("ncc: collective %q entered by %d of %d live nodes at round %d",
			c.Name, len(coll), s.n-s.doneCnt, s.round)
		return false
	}
	if s.collIns == nil {
		s.collIns = make([]int64, s.n)
	}
	ins := s.collIns
	clear(ins)
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

// sleepHeap is a binary min-heap of sleeping nodes by wake round; the
// engine uses it to wake sleepers on time and to fast-forward rounds in
// which every node sleeps. Nodes due in the same round leave it in no
// particular order: the wake bitmap puts them in Gk order.
type sleepHeap []*Node

func (h *sleepHeap) push(nd *Node) {
	a := append(*h, nd)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].wakeRound <= nd.wakeRound {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = nd
	*h = a
}

// pop removes and returns the node with the earliest wake round.
func (h *sleepHeap) pop() *Node {
	a := *h
	top, n := a[0], len(a)-1
	last := a[n]
	a = a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a[c+1].wakeRound < a[c].wakeRound {
			c++
		}
		if last.wakeRound <= a[c].wakeRound {
			break
		}
		a[i] = a[c]
		i = c
	}
	if n > 0 {
		a[i] = last
	}
	*h = a
	return top
}
