package ncc

// program.go defines the resumable-step (CPS) protocol form the flat driver
// executes. A blocking protocol is a function that calls NextRound /
// AwaitMessage / SkipRounds / Collective and owns a goroutine stack between
// rounds. A step-form protocol instead *returns* the suspension it wants as an
// Op carrying an explicit continuation; the driver applies the op and invokes
// the continuation when the node wakes. The two forms are interconvertible:
//
//   - RunOps drives a step-form protocol through the blocking Node API, so the
//     same compiled protocol runs unchanged under Sim.Run on the barrier
//     driver (and step-form subprotocols compose into blocking callers).
//   - Sim.RunProgram runs a step-form protocol natively on the flat driver,
//     with zero per-node goroutines.
//
// The contract mirrors the blocking API exactly: Next ≙ NextRound, Await ≙
// AwaitMessage, Sleep ≙ SkipRounds, Collective ≙ Node.Collective, Done ≙
// returning from the protocol function. A continuation runs as the node's
// compute slice for the wake round — it may Send, read Round(), and must end
// by returning the next Op.

// Wake carries what a resumed continuation receives: the inbox for message
// wakes (valid, like park's return, only until the node's next suspension) or
// the collective output for collective wakes.
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

// opKind enumerates the suspension kinds, one per blocking Node call.
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

// Done finishes the protocol (the step analogue of returning).
func Done() Op { return Op{kind: opDone} }

// Next checks in at the barrier; k resumes with next round's inbox.
func Next(k Cont) Op { return Op{kind: opNext, k: k} }

// Await sleeps until a round delivers at least one message; k resumes with
// that round's inbox.
func Await(k Cont) Op { return Op{kind: opAwait, k: k} }

// Sleep sleeps for rounds ≥ 1 rounds; k resumes with everything delivered
// while asleep.
func Sleep(rounds int, k Cont) Op { return Op{kind: opSleep, sleep: rounds, k: k} }

// Collective enters the named collective with the given input; k resumes with
// the node's output in Wake.Coll.
func Collective(tag string, in any, k Cont) Op {
	return Op{kind: opCollective, tag: tag, collIn: in, k: k}
}

// RunOps drives a step-form protocol fragment through the blocking Node API
// until it yields Done. It is the adapter that runs compiled protocols under
// Sim.Run, and the bridge that lets blocking wrappers embed step-form
// subprotocols (Done only terminates this driver loop, not the node).
func RunOps(nd *Node, op Op) {
	for {
		switch op.kind {
		case opDone:
			return
		case opNext:
			op = op.k(nd, Wake{Msgs: nd.NextRound()})
		case opAwait:
			op = op.k(nd, Wake{Msgs: nd.AwaitMessage()})
		case opSleep:
			op = op.k(nd, Wake{Msgs: nd.SkipRounds(op.sleep)})
		case opCollective:
			op = op.k(nd, Wake{Coll: nd.Collective(op.tag, op.collIn)})
		}
	}
}

// RunProgram executes a step-form protocol on every node and drives the
// rounds to completion, like Run but for compiled protocols: the flat driver
// steps every node inline on the calling goroutine, with zero per-node
// goroutines. Run(RunOps·entry) on the same Config produces a byte-identical
// trace.
func (s *Sim) RunProgram(entry Proto) (*Trace, error) {
	f := &flatScheduler{
		sim:    s,
		entry:  entry,
		conts:  make([]Cont, s.n),
		kinds:  make([]opKind, s.n),
		panics: make(chan error, s.n),
	}
	s.sched = f
	s.active = append(s.active[:0], s.nodes...)
	f.Release(s.active)
	s.drive(f.panics)
	return s.buildTrace(), s.firstErr
}
