package ncc

import (
	"fmt"
	"math/rand"
)

// nodeState is the suspension a node reports at the end of its step.
type nodeState int32

const (
	stateRunning    nodeState = iota // suspended with Next; acts next round
	stateAwait                       // sleeping until a message is delivered
	stateSleep                       // sleeping until wakeRound
	stateCollective                  // waiting inside a collective operation
	stateWoken                       // an awaiter that received mail; acts next round
	stateDone                        // protocol finished (or the run failed)
)

// Node is the per-node handle a protocol step receives. Its methods may be
// called only from within that node's own steps.
type Node struct {
	sim *Sim
	id  ID
	idx int // internal index in Gk order; not exposed to protocols

	rng   *rand.Rand // seeded on first Rand call; most nodes never draw
	known idSet      // NCC0 knowledge set; empty in NCC1

	initialSucc ID  // Gk successor (None for the tail)
	input       int // protocol input (e.g. required degree), set by the runner

	// Round plumbing. A step writes outbox, sets coll and collIn if it
	// calls Enter, and returns its next Op, which sets state, wakeRound and
	// cont; the engine reads them, fills inbox or collOut, and resumes cont
	// when the node wakes. cont is nil until the entry step has run and
	// again once the node is done; coll is non-nil from Enter until the
	// node wakes.
	state     nodeState
	wakeRound int
	cont      Cont

	outbox  []Message
	inbox   []Message
	retired []Message // inbox handed to the last step; recycled at the next suspension
	coll    *Collective
	collIn  int64
	collOut CollectiveOut

	sentThisRound int

	neighbors    []ID
	outputs      map[string]int64
	unrealizable bool
}

// protoError wraps a protocol violation detected node-side; the engine
// converts it into the run's error.
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

// Input returns the protocol input installed for this node (0 if none).
func (nd *Node) Input() int { return nd.input }

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
		_, ok := nd.sim.index.lookup(id)
		return ok
	}
	return nd.known.has(id)
}

// Learn records that this node knows id without a message exchange. It is
// used by the runner to install pre-existing knowledge and by collective
// operations whose outputs carry IDs. Protocols themselves never need it.
func (nd *Node) Learn(id ID) {
	if nd.sim.cfg.Model == NCC0 && id != nd.id {
		nd.known.add(id)
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
	dsti, ok := nd.sim.index.lookup(dst)
	if !ok {
		nd.fail("send to nonexistent ID %d", dst)
	}
	if nd.sim.cfg.Model == NCC0 && !nd.known.has(dst) {
		nd.fail("NCC0 send to unknown ID %d", dst)
	}
	if err := m.validate(); err != nil {
		nd.fail("%v", err)
	}
	nd.sentThisRound++
	if nd.sentThisRound > nd.sim.capacity {
		nd.sim.sendViol++
	}
	m.Src = nd.id
	m.dstIdx = int32(dsti)
	nd.outbox = append(nd.outbox, m)
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
