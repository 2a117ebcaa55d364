package ncc

import (
	"fmt"
	"runtime/debug"
)

// flat.go is the zero-goroutine columnar Scheduler behind Sim.RunProgram,
// and so behind every realization the facade runs. The barrier driver
// suspends a blocking protocol by parking its goroutine; the flat driver
// runs step-form protocols (program.go) instead, so a node's between-round
// state is nothing but its stored continuation. All per-node
// "scheduler state" lives in struct-of-arrays slices indexed by Gk position —
// one continuation column and one op-kind column — and Release is a tight
// loop on the engine goroutine that invokes each released node's continuation
// inline. No node goroutines exist, so AwaitAll has nothing to wait for and
// the whole simulation is a single goroutine regardless of n.
//
// Trace identity with the barrier driver is achieved by mirroring, step by
// step, exactly what a blocking node observes around a park:
//
//	park entry:  recycle retired inbox → write state/wakeRound → check in
//	park return: killed? unwind · clear sentThisRound · take inbox · NCC0 learn
//	Collective:  additionally consume collOut (CollectiveOut → Learn + Val)
//
// step() performs the park-return bookkeeping before invoking the stored
// continuation and the park-entry bookkeeping after it returns the next Op,
// in the same order, against the same fields, so the engine — which is shared
// verbatim — sees byte-identical check-in states every round.
//
// Phase profiling (Config.Profile): Release steps every node inline, so the
// whole round's protocol work happens inside the engine's compute span
// (Release → AwaitAll, where AwaitAll is a no-op here). Compute therefore
// means the same thing on both drivers — time spent running node slices —
// and barrier shrinks to pure engine bookkeeping.
type flatScheduler struct {
	sim   *Sim
	entry Proto
	// conts[i] / kinds[i] are node i's stored continuation and the op kind it
	// suspended with; kinds discriminates the collective wake path (blocking
	// code leaves collTag set after a collective, so the tag can't).
	conts []Cont
	kinds []opKind
	// panics collects classified node failures for the engine loop, exactly
	// like the channel Run passes to drive.
	panics chan error
}

// Release advances every released node by one step, inline on the engine
// goroutine. The engine passes the set already in deterministic order.
func (f *flatScheduler) Release(nodes []*Node) {
	for _, nd := range nodes {
		f.step(nd)
	}
}

// AwaitAll is a no-op: Release already ran every check-in synchronously.
func (f *flatScheduler) AwaitAll() {}

// Park is the node-side barrier entry; a step-form protocol has no goroutine
// to block, so reaching it means a continuation called into the blocking
// Node API. The panic surfaces through step's recover as a protocol error on
// the offending node.
func (f *flatScheduler) Park(nd *Node) {
	panic("ncc: blocking Node call (NextRound/AwaitMessage/SkipRounds/Collective) inside a flat-driver step; return an Op instead")
}

// finish retires a node: the flat analogue of the body goroutine returning
// (or unwinding) into its final check-in.
func (f *flatScheduler) finish(nd *Node) {
	nd.state = stateDone
	f.conts[nd.idx] = nil
}

// step runs one node's compute slice for the current round: park-return
// bookkeeping, continuation, park-entry bookkeeping.
func (f *flatScheduler) step(nd *Node) {
	if nd.killed {
		// Blocking nodes unwind via killedPanic straight from park, before any
		// post-wake bookkeeping; mirror that by touching nothing.
		f.finish(nd)
		return
	}

	var w Wake
	started := nd.started
	if started {
		// park-return bookkeeping (node.go park, after sched.Park returns).
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
		if f.kinds[nd.idx] == opCollective {
			// Node.Collective's post-park consumption. collTag stays set, as
			// in the blocking code; the delivered inbox (always empty at a
			// collective barrier) was still taken and learned above.
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
	} else {
		nd.started = true
	}

	op, ok := f.invoke(nd, w, started)
	if !ok || op.kind == opDone {
		// Depart path: no retired-inbox recycle — a blocking body's final
		// return never re-enters park either.
		f.finish(nd)
		return
	}

	// park-entry bookkeeping (node.go park, before sched.Park).
	if nd.retired != nil {
		f.sim.del.recycle(nd.retired)
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
		nd.wakeRound = f.sim.round + op.sleep
	case opCollective:
		nd.collTag = op.tag
		nd.collIn = op.collIn
		nd.state = stateCollective
		nd.wakeRound = 0
	}
	f.conts[nd.idx] = op.k
	f.kinds[nd.idx] = op.kind
}

// invoke runs the node's continuation (or entry) with the same panic
// classification Run's deferred recover applies, then validates the returned
// Op against the blocking API's preconditions so violations carry identical
// error text and round numbers.
func (f *flatScheduler) invoke(nd *Node, w Wake, started bool) (op Op, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case killedPanic:
				// intentional unwind
			case protoError:
				f.panics <- v.err
			default:
				f.panics <- fmt.Errorf("ncc: node %d panicked: %v\n%s", nd.id, r, debug.Stack())
			}
			ok = false
		}
	}()
	if started {
		op = f.conts[nd.idx](nd, w)
	} else {
		op = f.entry(nd)
	}
	if op.kind == opSleep && op.sleep < 1 {
		nd.fail("SkipRounds(%d): k must be ≥ 1", op.sleep)
	}
	if op.kind != opDone && op.k == nil {
		nd.fail("step yielded a suspension with a nil continuation")
	}
	return op, true
}
