package ncc

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// sched_conformance_test.go is the driver-conformance suite: every test runs
// against each way of executing a protocol, pinning the contract that the
// driver never changes a run's observable outcome — traces, metrics, error
// classification, progress-hook ordering, and sleep fast-forwarding are all
// engine policy.
//
// Every test protocol exists in two forms: a blocking body (the legacy node
// API, run by Sim.Run on the barrier driver) and a step-form twin
// (program.go, run by Sim.RunProgram on the flat driver). The barrier-steps
// variant runs the step form through RunOps under Sim.Run, pinning that the
// adapter is observably identical to native blocking code — which, combined
// with the flat variant, proves blocking ≡ steps ≡ flat.
//
// The pool variants host the flat run the way the Runner hosts every
// realization: on one goroutine of a worker pool, while the other workers
// step simulations of their own. Concurrent simulations share no state, so
// neither the run under test nor any neighbor may observe the other.

// schedVariant names one driver configuration under test: steps selects the
// step-form protocol twin, flat runs it via RunProgram instead of RunOps, and
// workers > 0 hosts that flat run on a pool of that many worker goroutines.
type schedVariant struct {
	name    string
	steps   bool
	flat    bool
	workers int
}

// run executes the variant's preferred protocol form on s.
func (v schedVariant) run(t *testing.T, s *Sim, blocking func(*Node), entry Proto) (*Trace, error) {
	t.Helper()
	switch {
	case v.workers > 0:
		return hostOnPool(t, v.workers, s, entry)
	case v.flat:
		return s.RunProgram(entry)
	case v.steps:
		return s.Run(func(nd *Node) { RunOps(nd, entry(nd)) })
	default:
		return s.Run(blocking)
	}
}

func schedVariants() []schedVariant {
	return []schedVariant{
		{name: "barrier"},
		// The zero-goroutine columnar driver; runs the step-form twins.
		{name: "flat", steps: true, flat: true},
		// Step-form protocols on the barrier driver: pins RunOps ≡ blocking,
		// so flat-vs-barrier diffs can be attributed to the driver, not the
		// protocol translation.
		{name: "barrier-steps", steps: true},
		// Flat runs hosted on a worker pool sized like NewRunner(0), on a
		// single worker goroutine, and on three workers, which overlap the
		// run under test with two neighbors even on a single-core machine.
		{name: "pool", steps: true, flat: true, workers: runtime.GOMAXPROCS(0)},
		{name: "pool-1worker", steps: true, flat: true, workers: 1},
		{name: "pool-3workers", steps: true, flat: true, workers: 3},
	}
}

// hostOnPool runs entry on s from one goroutine of a pool of the given size.
// Every other worker repeats a neighbor simulation — the mixed protocol at
// its own seed — from before the run under test starts until it returns, and
// each neighbor trace must equal the neighbor's solo run.
func hostOnPool(t *testing.T, workers int, s *Sim, entry Proto) (*Trace, error) {
	t.Helper()
	neighbor := func(seed int64) (*Trace, error) {
		ns := New(Config{N: 64, Seed: seed})
		registerTally(ns)
		return ns.RunProgram(mixedProtoStep(24))
	}
	var (
		done     = make(chan struct{})
		started  sync.WaitGroup
		finished sync.WaitGroup
		faults   = make(chan string, workers)
	)
	for w := 1; w < workers; w++ {
		seed := int64(100 + w)
		want, err := neighbor(seed)
		if err != nil {
			t.Fatalf("neighbor seed=%d solo: %v", seed, err)
		}
		started.Add(1)
		finished.Add(1)
		go func() {
			defer finished.Done()
			started.Done()
			for {
				got, err := neighbor(seed)
				if err != nil {
					faults <- fmt.Sprintf("neighbor seed=%d: %v", seed, err)
					return
				}
				if d := traceDiff(want, got); d != "" {
					faults <- fmt.Sprintf("neighbor seed=%d: %s", seed, d)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	started.Wait()

	type outcome struct {
		tr  *Trace
		err error
	}
	out := make(chan outcome, 1)
	go func() {
		tr, err := s.RunProgram(entry)
		out <- outcome{tr, err}
	}()
	o := <-out
	close(done)
	finished.Wait()
	close(faults)
	for f := range faults {
		t.Fatalf("run under test disturbed a pool neighbor: %s", f)
	}
	return o.tr, o.err
}

// forEachScheduler runs fn as a subtest per driver variant.
func forEachScheduler(t *testing.T, fn func(t *testing.T, v schedVariant)) {
	t.Helper()
	for _, v := range schedVariants() {
		t.Run("sched="+v.name, func(t *testing.T) { fn(t, v) })
	}
}

// mixedProto exercises every suspension kind the engine supports: fan-out
// sends, await, timed sleep, a collective, and staggered departure times.
func mixedProto(rounds int) func(*Node) {
	return func(nd *Node) {
		succ := nd.InitialSucc()
		for r := 0; r < rounds; r++ {
			switch {
			case r%5 == 3 && succ != None:
				nd.Send(succ, Message{Kind: 1, A: int64(r)})
				nd.NextRound()
			case r%7 == 5:
				nd.SkipRounds(2)
			default:
				nd.NextRound()
			}
		}
		total := nd.Collective("tally", int64(1)).(int64)
		nd.SetOutput("total", total)
		if succ != None {
			nd.AddEdge(succ)
		}
	}
}

// mixedProtoStep is mixedProto compiled to step form: the loop variable lives
// in the closure chain instead of on a goroutine stack.
func mixedProtoStep(rounds int) Proto {
	return func(nd *Node) Op {
		succ := nd.InitialSucc()
		var loop func(r int) Op
		loop = func(r int) Op {
			if r >= rounds {
				return Collective("tally", int64(1), func(nd *Node, w Wake) Op {
					nd.SetOutput("total", w.Coll.(int64))
					if succ != None {
						nd.AddEdge(succ)
					}
					return Done()
				})
			}
			k := func(nd *Node, w Wake) Op { return loop(r + 1) }
			switch {
			case r%5 == 3 && succ != None:
				nd.Send(succ, Message{Kind: 1, A: int64(r)})
				return Next(k)
			case r%7 == 5:
				return Sleep(2, k)
			default:
				return Next(k)
			}
		}
		return loop(0)
	}
}

func registerTally(s *Sim) {
	s.RegisterCollective("tally", func(s *Sim, ins []any) ([]any, int) {
		var sum int64
		for _, in := range ins {
			if v, ok := in.(int64); ok {
				sum += v
			}
		}
		outs := make([]any, len(ins))
		for i := range outs {
			outs[i] = sum
		}
		return outs, CeilLog2(s.N())
	})
}

// runMixed executes the mixed protocol on one driver variant and returns its
// trace.
func runMixed(t *testing.T, v schedVariant, n int, seed int64) *Trace {
	t.Helper()
	s := New(Config{N: n, Seed: seed})
	registerTally(s)
	tr, err := v.run(t, s, mixedProto(24), mixedProtoStep(24))
	if err != nil {
		t.Fatalf("%s: %v", v.name, err)
	}
	return tr
}

// traceDiff compares everything a Trace exposes and describes the first
// difference, or returns "" when the traces are identical.
func traceDiff(want, got *Trace) string {
	switch {
	case !reflect.DeepEqual(want.Metrics, got.Metrics):
		return fmt.Sprintf("metrics differ:\nwant %+v\ngot  %+v", want.Metrics, got.Metrics)
	case !reflect.DeepEqual(want.IDs, got.IDs):
		return "ID layouts differ"
	case want.Unrealizable != got.Unrealizable:
		return "unrealizable flags differ"
	case !reflect.DeepEqual(want.Nodes, got.Nodes):
		return "per-node results differ"
	}
	return ""
}

// tracesEqual fails the test unless the traces are identical.
func tracesEqual(t *testing.T, want, got *Trace, label string) {
	t.Helper()
	if d := traceDiff(want, got); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// TestSchedConformanceTraceIdentical is the core guarantee: same seed, same
// protocol, byte-identical Trace on every driver, across several sizes and
// seeds from n=1 to n=700.
func TestSchedConformanceTraceIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 700} {
		for _, seed := range []int64{1, 42} {
			ref := runMixed(t, schedVariants()[0], n, seed)
			for _, v := range schedVariants()[1:] {
				got := runMixed(t, v, n, seed)
				tracesEqual(t, ref, got, fmt.Sprintf("n=%d seed=%d %s", n, seed, v.name))
			}
		}
	}
}

// TestSchedConformanceProfileInert pins the observability contract from
// Config.Profile's doc: enabling phase profiling changes nothing observable.
// The same (n, seed) run with the hook set produces a Trace byte-identical to
// the unprofiled run on every driver — wall-clock timings flow only through
// the hook, never into Metrics or per-node results.
func TestSchedConformanceProfileInert(t *testing.T) {
	for _, n := range []int{1, 6, 64} {
		for _, seed := range []int64{1, 42} {
			for _, v := range schedVariants() {
				ref := runMixed(t, v, n, seed)

				rounds := 0
				var total time.Duration
				s := New(Config{N: n, Seed: seed, Profile: func(c, d, b time.Duration) {
					rounds++
					total += c + d + b
				}})
				registerTally(s)
				got, err := v.run(t, s, mixedProto(24), mixedProtoStep(24))
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", v.name, n, seed, err)
				}
				tracesEqual(t, ref, got, fmt.Sprintf("profiled n=%d seed=%d %s", n, seed, v.name))
				if rounds == 0 {
					t.Fatalf("%s n=%d seed=%d: profile hook never fired", v.name, n, seed)
				}
				if rounds > got.Metrics.Rounds {
					t.Fatalf("%s n=%d seed=%d: %d profile calls for %d rounds (final round must not report)",
						v.name, n, seed, rounds, got.Metrics.Rounds)
				}
				if total <= 0 {
					t.Fatalf("%s n=%d seed=%d: profiled phase time %v, want > 0", v.name, n, seed, total)
				}
			}
		}
	}
}

func TestSchedConformanceDeadlock(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, v schedVariant) {
		s := New(Config{N: 5, Seed: 2})
		_, err := v.run(t, s,
			func(nd *Node) {
				nd.AwaitMessage() // nobody will ever write
			},
			func(nd *Node) Op {
				return Await(func(nd *Node, w Wake) Op { return Done() })
			})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("want ErrDeadlock, got %v", err)
		}
	})
}

func TestSchedConformanceStopAtBarrier(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, v schedVariant) {
		stop := make(chan struct{})
		cfg := Config{N: 4, Seed: 3, Stop: stop}
		s := New(cfg)
		first := s.IDs()[0]
		spin := func(nd *Node, r int) {
			if nd.ID() == first && r == 50 {
				close(stop)
			}
		}
		tr, err := v.run(t, s,
			func(nd *Node) {
				for r := 0; ; r++ {
					spin(nd, r)
					nd.NextRound()
				}
			},
			func(nd *Node) Op {
				var loop func(r int) Op
				loop = func(r int) Op {
					spin(nd, r)
					return Next(func(nd *Node, w Wake) Op { return loop(r + 1) })
				}
				return loop(0)
			})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
		if tr == nil || tr.Metrics.Rounds < 50 {
			t.Fatalf("run stopped before the protocol closed Stop (trace %+v)", tr)
		}
	})
}

// TestSchedConformanceProgressOrdering pins the hook contract: one invocation
// per barrier on the engine goroutine, (round, msgs) nondecreasing, and the
// exact same sequence on every driver.
func TestSchedConformanceProgressOrdering(t *testing.T) {
	type tick struct{ round, msgs int }
	record := func(v schedVariant) []tick {
		var ticks []tick
		cfg := Config{N: 6, Seed: 9, Progress: func(round, msgs int) {
			ticks = append(ticks, tick{round, msgs})
		}}
		s := New(cfg)
		registerTally(s)
		if _, err := v.run(t, s, mixedProto(16), mixedProtoStep(16)); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		return ticks
	}
	variants := schedVariants()
	ref := record(variants[0])
	if len(ref) == 0 {
		t.Fatal("progress hook never fired")
	}
	for i := 1; i < len(ref); i++ {
		if ref[i].round < ref[i-1].round || ref[i].msgs < ref[i-1].msgs {
			t.Fatalf("progress not monotone at %d: %+v after %+v", i, ref[i], ref[i-1])
		}
	}
	for _, v := range variants[1:] {
		if got := record(v); !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s: progress sequence differs from barrier's (%d vs %d ticks)", v.name, len(got), len(ref))
		}
	}
}

// TestSchedConformanceSleepFastForward pins the sleepHeap contract: rounds in
// which every node sleeps are skipped in O(1), on every driver, with
// identical round accounting.
func TestSchedConformanceSleepFastForward(t *testing.T) {
	const skip = 1_000_000
	forEachScheduler(t, func(t *testing.T, v schedVariant) {
		s := New(Config{N: 8, Seed: 4})
		tr, err := v.run(t, s,
			func(nd *Node) {
				nd.SkipRounds(skip)
				nd.NextRound()
			},
			func(nd *Node) Op {
				return Sleep(skip, func(nd *Node, w Wake) Op {
					return Next(func(nd *Node, w Wake) Op { return Done() })
				})
			})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Metrics.Rounds < skip {
			t.Fatalf("rounds=%d, want ≥ %d (fast-forwarded)", tr.Metrics.Rounds, skip)
		}
		// The engine charges no active-node rounds for skipped rounds.
		if tr.Metrics.ActiveNodeRounds > 3*8 {
			t.Fatalf("fast-forward was not cheap: %d active node-rounds", tr.Metrics.ActiveNodeRounds)
		}
	})
}

func TestSchedConformancePanicPropagates(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, v schedVariant) {
		s := New(Config{N: 4, Seed: 6})
		victim := s.IDs()[1]
		_, err := v.run(t, s,
			func(nd *Node) {
				nd.NextRound()
				if nd.ID() == victim {
					panic("boom")
				}
				for {
					nd.NextRound()
				}
			},
			func(nd *Node) Op {
				var loop Cont
				loop = func(nd *Node, w Wake) Op { return Next(loop) }
				return Next(func(nd *Node, w Wake) Op {
					if nd.ID() == victim {
						panic("boom")
					}
					return Next(loop)
				})
			})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("want propagated panic, got %v", err)
		}
	})
}

// TestSchedConformanceStrictViolation pins that strict-mode capacity errors
// (raised by the delivery layer, not the driver) classify identically.
func TestSchedConformanceStrictViolation(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, v schedVariant) {
		s := New(Config{N: 4, Seed: 8, CapMul: 1, Strict: true, Model: NCC1})
		flood := func(nd *Node) {
			if nd.ID() == 1 {
				// Flood node 2 beyond the capacity from a single sender.
				for i := 0; i < nd.Capacity()+1; i++ {
					nd.Send(2, Message{Kind: 1})
				}
			}
		}
		_, err := v.run(t, s,
			func(nd *Node) {
				flood(nd)
				nd.NextRound()
			},
			func(nd *Node) Op {
				flood(nd)
				return Next(func(nd *Node, w Wake) Op { return Done() })
			})
		if err == nil {
			t.Fatal("want a strict capacity violation error")
		}
	})
}

// TestFlatZeroNodeGoroutines is the acceptance check on the tentpole's whole
// point: a flat run at large n keeps the process goroutine count O(1) — the
// engine runs everything — instead of O(n).
func TestFlatZeroNodeGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	maxG := 0
	s := New(Config{N: 20_000, Seed: 5, Progress: func(round, msgs int) {
		if g := runtime.NumGoroutine(); g > maxG {
			maxG = g
		}
	}})
	registerTally(s)
	_, err := s.RunProgram(mixedProtoStep(8))
	if err != nil {
		t.Fatal(err)
	}
	if maxG > base+8 {
		t.Fatalf("flat run grew the goroutine count: base=%d max=%d (want O(1), not O(n))", base, maxG)
	}
}

// TestFlatRefusesBlockingRun pins the guard rail: a blocking Node call
// smuggled into a step classifies as a node panic naming the offense.
func TestFlatRefusesBlockingRun(t *testing.T) {
	s := New(Config{N: 2, Seed: 1})
	_, err := s.RunProgram(func(nd *Node) Op {
		nd.NextRound() // blocking call inside a step
		return Done()
	})
	if err == nil || !strings.Contains(err.Error(), "flat-driver step") {
		t.Fatalf("want a blocking-call-inside-step panic error, got %v", err)
	}
}

// TestFlatNilContinuation pins that a malformed Op (suspension without a
// continuation) is reported as a protocol violation, not a nil-call crash.
func TestFlatNilContinuation(t *testing.T) {
	s := New(Config{N: 1, Seed: 1})
	_, err := s.RunProgram(func(nd *Node) Op { return Op{kind: opNext} })
	if err == nil || !strings.Contains(err.Error(), "nil continuation") {
		t.Fatalf("want a nil-continuation violation, got %v", err)
	}
}
