package ncc

import "sync/atomic"

// Scheduler owns the round barrier: it collects the released nodes' barrier
// check-ins and releases the next round's active set. The engine (engine.go)
// decides *which* nodes run each round; the scheduler decides *how* they are
// suspended and resumed. The entry point picks the driver:
//
//   - Sim.Run runs blocking protocols on barrierScheduler (below): one
//     goroutine per node, every released node made runnable at once. It is
//     the reference the step-form protocols are checked against.
//   - Sim.RunProgram runs step-form protocols on flatScheduler (flat.go):
//     every node is stepped inline on the engine goroutine, with no node
//     goroutines at all.
//
// Both produce byte-identical traces because the engine alone decides
// ordering.
//
// AwaitAll and Release are called only from the engine goroutine; Park only
// from node protocol code. The happens-before edges a correct implementation
// must provide are: every write a node makes before checking in is visible
// to the engine after AwaitAll returns, and every write the engine makes
// before Release is visible to the released node when Park returns.
type Scheduler interface {
	// AwaitAll blocks until every node released into the current round has
	// parked (via Park) or departed.
	AwaitAll()
	// Release resumes the given nodes for one round. The engine passes the
	// set already sorted in deterministic (Gk index) order.
	Release(nodes []*Node)
	// Park is the node-side barrier entry: check in and block until the
	// engine releases this node again.
	Park(nd *Node)
}

// barrierScheduler is the goroutine-barrier implementation: one goroutine per
// node, a shared countdown of outstanding check-ins, and a one-slot channel
// that hands control to the engine when the countdown hits zero. Each node
// blocks on its own one-slot wake channel while parked.
type barrierScheduler struct {
	pending atomic.Int64
	allIn   chan struct{}
}

func newBarrierScheduler() *barrierScheduler {
	return &barrierScheduler{allIn: make(chan struct{}, 1)}
}

// spawn starts body on its own goroutine for every node; the engine observes
// their first check-ins via AwaitAll.
func (b *barrierScheduler) spawn(nodes []*Node, body func(*Node)) {
	b.pending.Store(int64(len(nodes)))
	for _, nd := range nodes {
		nd.wake = make(chan struct{}, 1)
	}
	for _, nd := range nodes {
		go body(nd)
	}
}

func (b *barrierScheduler) AwaitAll() { <-b.allIn }

func (b *barrierScheduler) Release(nodes []*Node) {
	b.pending.Store(int64(len(nodes)))
	for _, nd := range nodes {
		nd.wake <- struct{}{}
	}
}

// checkin is called by a node goroutine after it has written its parked
// state, or as its final check-in when its protocol function returns (or
// unwinds); the final check-in of a round hands control to the engine.
func (b *barrierScheduler) checkin() {
	if b.pending.Add(-1) == 0 {
		b.allIn <- struct{}{}
	}
}

func (b *barrierScheduler) Park(nd *Node) {
	b.checkin()
	<-nd.wake
}

// sleepHeap orders sleeping nodes by wake round; the engine uses it to
// fast-forward rounds in which every node sleeps.
type sleepHeap []*Node

func (h sleepHeap) Len() int           { return len(h) }
func (h sleepHeap) Less(i, j int) bool { return h[i].wakeRound < h[j].wakeRound }
func (h sleepHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sleepHeap) Push(x any)        { *h = append(*h, x.(*Node)) }
func (h *sleepHeap) Pop() (x any)      { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }
