package ncc

import (
	"fmt"
	"math/rand"
)

// nodeState is the parked state a node reports at its barrier check-in.
type nodeState int32

const (
	stateRunning    nodeState = iota // checked in via NextRound; acts next round
	stateAwait                       // sleeping until a message is delivered
	stateSleep                       // sleeping until wakeRound
	stateCollective                  // waiting inside a collective operation
	stateDone                        // protocol function returned (or was killed)
)

// Node is the per-node handle a protocol function receives. All methods must
// be called only from that node's protocol goroutine.
type Node struct {
	sim *Sim
	id  ID
	idx int // internal index in Gk order; not exposed to protocols

	rng   *rand.Rand      // seeded on first Rand call; most nodes never draw
	known map[ID]struct{} // NCC0 knowledge set; nil in NCC1

	initialSucc ID  // Gk successor (None for the tail)
	input       any // protocol input (e.g. required degree), set by the runner

	// Barrier plumbing. The protocol writes state/outbox/collIn and then
	// checks in; the driver reads them, fills inbox/collOut, and wakes. wake
	// is the node goroutine's park channel, created by Sim.Run only; started
	// records that the flat driver has run the node's entry step.
	wake      chan struct{}
	state     nodeState
	wakeRound int
	killed    bool
	started   bool

	outbox  []Message
	inbox   []Message
	retired []Message // inbox handed out at the last park; recycled next park
	collTag string
	collIn  any
	collOut any

	sentThisRound int
	seq           uint32

	neighbors    []ID
	outputs      map[string]int64
	unrealizable bool
}

// killedPanic is the sentinel the driver uses to unwind killed protocol
// goroutines; the runner recovers it silently.
type killedPanic struct{}

// protoError wraps a protocol violation detected node-side; the runner
// converts it into a Run error.
type protoError struct{ err error }

func (nd *Node) fail(format string, args ...any) {
	panic(protoError{fmt.Errorf("ncc: node %d (round %d): %s", nd.id, nd.sim.round, fmt.Sprintf(format, args...))})
}

// ID returns this node's identifier.
func (nd *Node) ID() ID { return nd.id }

// N returns the total number of nodes, which the paper assumes is common
// knowledge (§3.1.1: "We assume that n is known").
func (nd *Node) N() int { return nd.sim.n }

// Model returns the knowledge variant the simulation runs under.
func (nd *Node) Model() Model { return nd.sim.cfg.Model }

// Capacity returns the per-round per-node message budget (both directions).
func (nd *Node) Capacity() int { return nd.sim.capacity }

// Round returns the current synchronous round number. Round 0 is the initial
// compute slice before any message has been delivered.
func (nd *Node) Round() int { return nd.sim.round }

// Rand returns this node's deterministic private random source. It is
// seeded on first use from (Config.Seed, node ID), so a node's draws do not
// depend on when it first asks, and nodes that never draw cost nothing.
func (nd *Node) Rand() *rand.Rand {
	if nd.rng == nil {
		nd.rng = rand.New(rand.NewSource(mix64(nd.sim.cfg.Seed, int64(nd.id))))
	}
	return nd.rng
}

// Input returns the protocol input installed for this node (nil if none).
func (nd *Node) Input() any { return nd.input }

// InitialSucc returns the ID of this node's successor in the directed initial
// knowledge graph Gk, or None for the tail. This is the entirety of a node's
// initial knowledge in NCC0.
func (nd *Node) InitialSucc() ID { return nd.initialSucc }

// AllIDs returns the sorted list of all node IDs. It is only available in
// NCC1 (where the paper grants full ID knowledge); calling it in NCC0 is a
// protocol violation. The returned slice is shared and must not be modified.
func (nd *Node) AllIDs() []ID {
	if nd.sim.cfg.Model != NCC1 {
		nd.fail("AllIDs is only available in NCC1")
	}
	return nd.sim.allIDs
}

// Knows reports whether this node currently knows the given ID.
func (nd *Node) Knows(id ID) bool {
	if id == nd.id {
		return true
	}
	if nd.sim.cfg.Model == NCC1 {
		_, ok := nd.sim.index[id]
		return ok
	}
	_, ok := nd.known[id]
	return ok
}

// Learn records that this node knows id without a message exchange. It is
// used by the runner to install pre-existing knowledge and by collective
// operations whose outputs carry IDs. Protocols themselves never need it.
func (nd *Node) Learn(id ID) {
	if nd.known != nil && id != None && id != nd.id {
		nd.known[id] = struct{}{}
	}
}

// Send enqueues a message to dst for delivery at the end of the current
// round. It enforces the model: dst must exist, differ from the sender, and —
// in NCC0 — be known to the sender. Exceeding the per-round send capacity is
// recorded as a violation (an error in Strict mode).
func (nd *Node) Send(dst ID, m Message) {
	if dst == nd.id {
		nd.fail("send to self")
	}
	if _, ok := nd.sim.index[dst]; !ok {
		nd.fail("send to nonexistent ID %d", dst)
	}
	if nd.known != nil {
		if _, ok := nd.known[dst]; !ok {
			nd.fail("NCC0 send to unknown ID %d", dst)
		}
	}
	if err := m.validate(); err != nil {
		nd.fail("%v", err)
	}
	nd.sentThisRound++
	if nd.sentThisRound > nd.sim.capacity {
		nd.sim.noteSendViolation(nd)
	}
	m.Src = nd.id
	m.dst = dst
	m.seq = nd.seq
	nd.seq++
	nd.outbox = append(nd.outbox, m)
}

// NextRound checks in at the barrier and returns the messages delivered to
// this node at the start of the next round (possibly none).
func (nd *Node) NextRound() []Message {
	return nd.park(stateRunning, 0)
}

// AwaitMessage sleeps until some round delivers at least one message to this
// node, then returns that round's inbox. The node does not participate in the
// barrier while asleep, so waiting is cheap regardless of duration. If the
// whole system would sleep forever the driver reports a deadlock.
func (nd *Node) AwaitMessage() []Message {
	return nd.park(stateAwait, 0)
}

// SkipRounds sleeps for k ≥ 1 rounds. Messages delivered while asleep are
// accumulated and returned together on wake-up. Receive-capacity accounting
// still applies per delivery round.
func (nd *Node) SkipRounds(k int) []Message {
	if k < 1 {
		nd.fail("SkipRounds(%d): k must be ≥ 1", k)
	}
	return nd.park(stateSleep, nd.sim.round+k)
}

// park is the single barrier entry point. The returned inbox slice is owned
// by the delivery layer's buffer pool and stays valid only until this node's
// next barrier call (NextRound, AwaitMessage, SkipRounds, or Collective);
// protocols that need messages longer must copy them out.
func (nd *Node) park(st nodeState, wakeRound int) []Message {
	if nd.retired != nil {
		nd.sim.del.recycle(nd.retired)
		nd.retired = nil
	}
	nd.state = st
	nd.wakeRound = wakeRound
	nd.sim.sched.Park(nd)
	if nd.killed {
		panic(killedPanic{})
	}
	nd.sentThisRound = 0
	in := nd.inbox
	nd.inbox = nil
	nd.retired = in
	if nd.known != nil {
		for i := range in {
			nd.known[in[i].Src] = struct{}{}
			for _, id := range in[i].IDs {
				if id != None && id != nd.id {
					nd.known[id] = struct{}{}
				}
			}
		}
	}
	return in
}

// Collective enters the named collective operation with the given input and
// blocks until every live node has entered the same collective, the driver
// has executed its handler centrally, and rounds have been charged. It
// returns this node's output. See RegisterCollective for the contract.
func (nd *Node) Collective(tag string, in any) any {
	nd.collTag = tag
	nd.collIn = in
	_ = nd.park(stateCollective, 0)
	out := nd.collOut
	nd.collOut = nil
	nd.collIn = nil
	if co, ok := out.(CollectiveOut); ok {
		for _, id := range co.Learn {
			nd.Learn(id)
		}
		return co.Val
	}
	return out
}

// AddEdge stores an overlay edge to peer in this node's neighbor list. This
// is how realizations are output: an implicit edge is stored at one endpoint,
// an explicit edge at both. Self-edges are protocol violations.
func (nd *Node) AddEdge(peer ID) {
	if peer == nd.id || peer == None {
		nd.fail("AddEdge(%d): invalid peer", peer)
	}
	nd.neighbors = append(nd.neighbors, peer)
}

// SetOutput declares a named scalar output collected into the Trace.
func (nd *Node) SetOutput(key string, v int64) {
	if nd.outputs == nil {
		nd.outputs = make(map[string]int64)
	}
	nd.outputs[key] = v
}

// Unrealizable marks the instance as unrealizable from this node's view.
func (nd *Node) Unrealizable() { nd.unrealizable = true }
