package ncc

import (
	"fmt"
	"runtime/debug"
)

// program.go defines the resumable-step (CPS) protocol form the engine runs
// and the step that runs it. A protocol never blocks: each step performs one
// node's compute slice for a round and *returns* the suspension it wants as
// an Op carrying an explicit continuation; the engine applies the op and
// resumes the continuation when the node wakes. A node's between-round state
// is nothing but its stored continuation, so a whole simulation runs on the
// goroutine that calls RunProgram, whatever n is.
//
// The suspensions: Next checks in for the next round, Await sleeps until a
// message arrives, Sleep sleeps a fixed number of rounds, Node.Enter enters
// a centrally executed Collective, and Done finishes the protocol. A
// continuation runs as the node's compute slice for the round it wakes in —
// it may Send, read Round(), and must end by returning the next Op.

// Cont is a resumable protocol continuation: Resume is the node's compute
// slice for the round it wakes in, and in is the inbox delivered since its
// last step, valid only until the node suspends again. A protocol's per-node
// state struct is normally its own continuation — a pointer to it suspends
// the node, so suspending allocates nothing — and ContFunc adapts a closure.
type Cont interface {
	Resume(nd *Node, in []Message) Op
}

// ContFunc adapts a function to Cont.
type ContFunc func(nd *Node, in []Message) Op

// Resume calls f.
func (f ContFunc) Resume(nd *Node, in []Message) Op { return f(nd, in) }

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

// Op is one explicit suspension: what to wait for and where to resume. It
// holds the kind, Sleep's rounds and the two-word continuation: 32 bytes on
// amd64, the largest struct the compiler keeps in registers, so an Op goes
// from the step that returns it to the engine without a trip through
// memory. (Enter records its collective and input on the node instead.)
type Op struct {
	kind   opKind
	rounds int // Sleep's rounds
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
func Sleep(rounds int, k Cont) Op { return Op{kind: opSleep, rounds: rounds, k: k} }

// Collective is an operation the engine executes centrally, standing in for
// a primitive whose round cost has an analytic bound. A protocol holds it as
// a value and enters it with Node.Enter. In one round every live node must
// enter the same *Collective: two collectives that share a Name are still
// two.
type Collective struct {
	// Name keys Metrics.CollectiveCalls and names the collective in errors.
	Name string
	// Run executes the collective once every live node has entered it.
	// ins[i] is the input of the node at Gk position i (0 for a node that
	// has finished), and Run writes that node's result into outs[i], which
	// the engine zeroes first. The engine reuses both, so they are valid
	// only during Run. Run returns the number of rounds to charge, which
	// must be justified by an analytic bound on the primitive being
	// replaced. outs[i] reaches the node at Gk position i as the first
	// message of its inbox, delivered like a sent one (in NCC0 it teaches
	// the IDs it carries) but counted nowhere in Metrics: the charged rounds
	// pay for the messages it stands in for.
	Run func(s *Sim, ins []int64, outs []Message) (chargeRounds int)
}

// Enter enters collective c with input in; k resumes, once every live node
// has entered c and the engine has run it and charged its rounds, with the
// collective's message first in its inbox. Enter records c and in on the
// node, so the Op it returns must be the step's suspension.
func (nd *Node) Enter(c *Collective, in int64, k Cont) Op {
	if c == nil || c.Run == nil {
		nd.fail("Enter: nil collective")
	}
	nd.coll, nd.collIn = c, in
	return Op{kind: opCollective, k: k}
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
// delivered inbox, run the stored continuation on it — or the entry in round
// 0 — and record the Op it returns as the node's suspension. stepFrom
// recovers a panic in it.
func (s *Sim) step(nd *Node) {
	k := nd.cont
	if k == nil {
		s.suspend(nd, s.entry(nd))
		return
	}
	in := nd.inbox
	nd.inbox = nil
	nd.retired = in
	s.suspend(nd, k.Resume(nd, in))
}

// suspend records op as nd's suspension, or retires nd if op is Done. It
// panics on an Op that breaks the model; stepFrom recovers. (Taking op as
// an argument keeps the Op in registers from the step that returned it.)
func (s *Sim) suspend(nd *Node, op Op) {
	switch {
	case op.kind == opDone:
		// A finished node keeps its last inbox: it is never recycled.
		s.retire(nd)
		return
	case op.kind == opSleep && op.rounds < 1:
		nd.fail("Sleep(%d): rounds must be ≥ 1", op.rounds)
	case (op.kind == opCollective) != (nd.coll != nil):
		nd.fail("a step must suspend on the Op of the Enter it called, and only then")
	case op.k == nil:
		nd.fail("step yielded a suspension with a nil continuation")
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
		nd.wakeRound = s.round + op.rounds
	case opCollective:
		nd.state = stateCollective
		nd.wakeRound = 0
	}
	nd.cont = op.k
}

// retire marks a node finished and drops its continuation.
func (s *Sim) retire(nd *Node) {
	nd.state = stateDone
	nd.cont = nil
}

// stepFrom runs the steps of the active nodes from index i on, under one
// recover, and returns the index the caller continues from. A panic in a
// step, including a protocol violation, retires that node and becomes the
// run's error unless an earlier one is set; stepFrom then returns the index
// after it, so the rest of the round still steps. Recovering per run of
// steps rather than per step keeps a defer off the per-step path.
func (s *Sim) stepFrom(i int) (next int) {
	defer func() {
		if r := recover(); r != nil {
			nd := s.active[next]
			var err error
			if pe, isProto := r.(protoError); isProto {
				err = pe.err
			} else {
				err = fmt.Errorf("ncc: node %d panicked: %v\n%s", nd.id, r, debug.Stack())
			}
			if s.firstErr == nil {
				s.firstErr = err
			}
			s.retire(nd)
			next++
		}
	}()
	for next = i; next < len(s.active); next++ {
		s.step(s.active[next])
	}
	return next
}
