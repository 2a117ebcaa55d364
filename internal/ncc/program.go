package ncc

import (
	"fmt"
	"runtime/debug"
)

// program.go defines the resumable-step (CPS) protocol form the engine runs
// and the step that runs it. A protocol never blocks: each step performs one
// node's compute slice for a round and *returns* the suspension it wants as
// an Op carrying an explicit continuation; the engine applies the op and
// invokes the continuation when the node wakes. A node's between-round state
// is nothing but its stored continuation, so a whole simulation runs on the
// goroutine that calls RunProgram, whatever n is.
//
// The suspensions: Next checks in for the next round, Await sleeps until a
// message arrives, Sleep sleeps a fixed number of rounds, Collective enters
// a centrally executed collective, and Done finishes the protocol. A
// continuation runs as the node's compute slice for the round it wakes in —
// it may Send, read Round(), and must end by returning the next Op.

// Wake carries what a resumed continuation receives: the inbox for message
// wakes (valid only until the node's next suspension) or the collective
// output for collective wakes.
type Wake struct {
	// Msgs is the delivered inbox (nil after a collective).
	Msgs []Message
	// Coll is the collective output (nil unless woken from a collective).
	Coll any
}

// Cont is a resumable protocol continuation: the node's compute slice for the
// round it wakes in.
type Cont func(nd *Node, w Wake) Op

// Proto is a step-form protocol entry point: it runs the node's round-0
// compute slice and returns the first suspension.
type Proto func(nd *Node) Op

// opKind enumerates the suspension kinds.
type opKind uint8

const (
	opDone opKind = iota
	opNext
	opAwait
	opSleep
	opCollective
)

// Op is one explicit suspension: what to wait for and where to resume.
type Op struct {
	kind   opKind
	sleep  int
	tag    string
	collIn any
	k      Cont
}

// Done finishes the protocol.
func Done() Op { return Op{kind: opDone} }

// Next checks in at the barrier; k resumes with next round's inbox.
func Next(k Cont) Op { return Op{kind: opNext, k: k} }

// Await sleeps until a round delivers at least one message; k resumes with
// that round's inbox. The node takes no part in the rounds it sleeps
// through, so waiting is cheap regardless of duration. If every live node
// would sleep forever the run fails with ErrDeadlock.
func Await(k Cont) Op { return Op{kind: opAwait, k: k} }

// Sleep sleeps for rounds ≥ 1 rounds; k resumes with everything delivered
// while asleep. Receive-capacity accounting still applies per delivery round.
func Sleep(rounds int, k Cont) Op { return Op{kind: opSleep, sleep: rounds, k: k} }

// Collective enters the named collective with the given input; k resumes,
// once every live node has entered it and the engine has run its handler
// and charged its rounds, with the node's output in Wake.Coll. See
// RegisterCollective for the contract.
func Collective(tag string, in any, k Cont) Op {
	return Op{kind: opCollective, tag: tag, collIn: in, k: k}
}

// RunProgram executes a step-form protocol on every node and drives the
// synchronous rounds to completion, stepping every node on the calling
// goroutine. It returns the Trace and the first error encountered (protocol
// violation, deadlock, strict capacity violation, round limit, cancellation,
// or panic).
func (s *Sim) RunProgram(entry Proto) (*Trace, error) {
	s.entry = entry
	s.active = append(s.active[:0], s.nodes...)
	s.drive()
	return s.buildTrace(), s.firstErr
}

// step runs one node's compute slice for the current round: take the
// delivered inbox (and the collective output), run the stored continuation —
// or the entry in round 0 — and record the Op it returns as the node's
// suspension.
func (s *Sim) step(nd *Node) {
	var w Wake
	k := nd.cont
	if k != nil {
		nd.sentThisRound = 0
		in := nd.inbox
		nd.inbox = nil
		nd.retired = in
		if s.cfg.Model == NCC0 {
			for i := range in {
				nd.known.add(in[i].Src)
				for _, id := range in[i].IDs() {
					if id != nd.id {
						nd.known.add(id)
					}
				}
			}
		}
		if nd.suspended == opCollective {
			// The delivered inbox (always empty at a collective barrier) was
			// still taken and learned above.
			out := nd.collOut
			nd.collOut = nil
			nd.collIn = nil
			if co, ok := out.(CollectiveOut); ok {
				for _, id := range co.Learn {
					nd.Learn(id)
				}
				w.Coll = co.Val
			} else {
				w.Coll = out
			}
		} else {
			w.Msgs = in
		}
	}

	op, ok := s.invoke(nd, k, w)
	if !ok || op.kind == opDone {
		// A finished node keeps its last inbox: it is never recycled.
		s.retire(nd)
		return
	}

	// The inbox handed to this step is dead once the node suspends again.
	if nd.retired != nil {
		s.del.recycle(nd.retired)
		nd.retired = nil
	}
	switch op.kind {
	case opNext:
		nd.state = stateRunning
		nd.wakeRound = 0
	case opAwait:
		nd.state = stateAwait
		nd.wakeRound = 0
	case opSleep:
		nd.state = stateSleep
		nd.wakeRound = s.round + op.sleep
	case opCollective:
		nd.collTag = op.tag
		nd.collIn = op.collIn
		nd.state = stateCollective
		nd.wakeRound = 0
	}
	nd.cont = op.k
	nd.suspended = op.kind
}

// retire marks a node finished and drops its continuation.
func (s *Sim) retire(nd *Node) {
	nd.state = stateDone
	nd.cont = nil
}

// invoke runs the continuation k, or the entry when k is nil, and validates
// the returned Op. A panic, including a protocol violation, fails the step
// and becomes the run's error unless an earlier one is set.
func (s *Sim) invoke(nd *Node, k Cont, w Wake) (op Op, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			var err error
			if pe, isProto := r.(protoError); isProto {
				err = pe.err
			} else {
				err = fmt.Errorf("ncc: node %d panicked: %v\n%s", nd.id, r, debug.Stack())
			}
			if s.firstErr == nil {
				s.firstErr = err
			}
			ok = false
		}
	}()
	if k != nil {
		op = k(nd, w)
	} else {
		op = s.entry(nd)
	}
	if op.kind == opSleep && op.sleep < 1 {
		nd.fail("Sleep(%d): rounds must be ≥ 1", op.sleep)
	}
	if op.kind != opDone && op.k == nil {
		nd.fail("step yielded a suspension with a nil continuation")
	}
	return op, true
}
