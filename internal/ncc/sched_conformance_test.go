package ncc_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"graphrealize/internal/ncc"
	"graphrealize/internal/ncctest"
)

// sched_conformance_test.go is the engine-conformance suite: every test runs
// its step-form protocol both on the calling goroutine and hosted on a
// worker pool, pinning the contract that the host never changes a run's
// observable outcome — traces, metrics, error classification, progress-hook
// ordering, and sleep fast-forwarding are all engine policy.
//
// The mixed protocol is also pinned to the outcome its blocking form had on
// the retired goroutine-barrier driver: mixedDigests and progressTicks
// record that run's trace digests and progress-hook sequence.
//
// The pool variants host the run the way the Runner hosts every
// realization: on one goroutine of a worker pool, while the other workers
// step simulations of their own. Concurrent simulations share no state, so
// neither the run under test nor any neighbor may observe the other.

// schedVariant names one way of hosting a run: workers > 0 hosts it on a pool
// of that many worker goroutines, zero runs it on the calling goroutine.
type schedVariant struct {
	name    string
	workers int
}

// run executes entry on s under the variant's host.
func (v schedVariant) run(t *testing.T, s *ncc.Sim, entry ncc.Proto) (*ncc.Trace, error) {
	t.Helper()
	if v.workers > 0 {
		return hostOnPool(t, v.workers, s, entry)
	}
	return s.RunProgram(entry)
}

func schedVariants() []schedVariant {
	return []schedVariant{
		{name: "flat"},
		// Runs hosted on a worker pool sized like NewRunner(0), on a single
		// worker goroutine, and on three workers, which overlap the run
		// under test with two neighbors even on a single-core machine.
		{name: "pool", workers: runtime.GOMAXPROCS(0)},
		{name: "pool-1worker", workers: 1},
		{name: "pool-3workers", workers: 3},
	}
}

// hostOnPool runs entry on s from one goroutine of a pool of the given size.
// Every other worker repeats a neighbor simulation — the mixed protocol at
// its own seed — from before the run under test starts until it returns, and
// each neighbor trace must equal the neighbor's solo run.
func hostOnPool(t *testing.T, workers int, s *ncc.Sim, entry ncc.Proto) (*ncc.Trace, error) {
	t.Helper()
	neighbor := func(seed int64) (*ncc.Trace, error) {
		return ncc.New(ncc.Config{N: 64, Seed: seed}).RunProgram(mixedProto(24))
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
		tr  *ncc.Trace
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

// forEachScheduler runs fn as a subtest per host variant.
func forEachScheduler(t *testing.T, fn func(t *testing.T, v schedVariant)) {
	t.Helper()
	for _, v := range schedVariants() {
		t.Run("sched="+v.name, func(t *testing.T) { fn(t, v) })
	}
}

// mixedProto exercises every suspension kind the engine supports: fan-out
// sends, await, timed sleep, a collective, and staggered departure times.
func mixedProto(rounds int) ncc.Proto {
	return func(nd *ncc.Node) ncc.Op {
		succ := nd.InitialSucc()
		var loop func(r int) ncc.Op
		loop = func(r int) ncc.Op {
			if r >= rounds {
				return nd.Enter(tally, 1, ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
					nd.SetOutput("total", w.Coll.(int64))
					if succ != ncc.None {
						nd.AddEdge(succ)
					}
					return ncc.Done()
				}))
			}
			k := ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op { return loop(r + 1) })
			switch {
			case r%5 == 3 && succ != ncc.None:
				nd.Send(succ, ncc.Message{Kind: 1, A: int64(r)})
				return ncc.Next(k)
			case r%7 == 5:
				return ncc.Sleep(2, k)
			default:
				return ncc.Next(k)
			}
		}
		return loop(0)
	}
}

// tally sums its inputs and hands every node the total, charging
// ⌈log₂ n⌉ rounds.
var tally = &ncc.Collective{Name: "tally", Run: func(s *ncc.Sim, ins []int64) ([]ncc.CollectiveOut, int) {
	var sum int64
	for _, in := range ins {
		sum += in
	}
	outs := make([]ncc.CollectiveOut, len(ins))
	for i := range outs {
		outs[i].Val = sum
	}
	return outs, ncc.CeilLog2(s.N())
}}

// runMixed executes the mixed protocol under one host variant and returns its
// trace.
func runMixed(t *testing.T, v schedVariant, n int, seed int64) *ncc.Trace {
	t.Helper()
	tr, err := v.run(t, ncc.New(ncc.Config{N: n, Seed: seed}), mixedProto(24))
	if err != nil {
		t.Fatalf("%s: %v", v.name, err)
	}
	return tr
}

// mixedDigests records, per "n=<n>/seed=<seed>", the digest of the mixed
// protocol's trace (mixedProto(24)), taken from its blocking form on the
// goroutine-barrier driver.
var mixedDigests = map[string]string{
	"n=1/seed=1":    "4f90369012201dc2",
	"n=1/seed=42":   "1377b3c852b48965",
	"n=2/seed=1":    "ed3fb6f6dae4e213",
	"n=2/seed=42":   "242215da2f37d00a",
	"n=6/seed=1":    "8dfd84c5cd9b8ac2",
	"n=6/seed=42":   "7bc23d53011c21dd",
	"n=7/seed=1":    "e5c07fc115defb61",
	"n=7/seed=42":   "9e76503d294d5836",
	"n=64/seed=1":   "ce5e04d1f8d4987c",
	"n=64/seed=42":  "d382319741bf958c",
	"n=700/seed=1":  "83be757bf5aff3a6",
	"n=700/seed=42": "97ff590a7745a3c5",
}

func mixedKey(n int, seed int64) string { return fmt.Sprintf("n=%d/seed=%d", n, seed) }

// traceDiff compares everything a Trace exposes and describes the first
// difference, or returns "" when the traces are identical.
func traceDiff(want, got *ncc.Trace) string {
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
func tracesEqual(t *testing.T, want, got *ncc.Trace, label string) {
	t.Helper()
	if d := traceDiff(want, got); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// TestSchedConformanceTraceIdentical is the core guarantee: same seed, same
// protocol, byte-identical Trace on every host and equal to the recorded
// digest, across several sizes and seeds from n=1 to n=700.
func TestSchedConformanceTraceIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 700} {
		for _, seed := range []int64{1, 42} {
			ref := runMixed(t, schedVariants()[0], n, seed)
			ncctest.Expect(t, mixedKey(n, seed), ref, nil, mixedDigests[mixedKey(n, seed)])
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
// the unprofiled run on every host — wall-clock timings flow only through
// the hook, never into Metrics or per-node results.
func TestSchedConformanceProfileInert(t *testing.T) {
	for _, n := range []int{1, 6, 64} {
		for _, seed := range []int64{1, 42} {
			for _, v := range schedVariants() {
				ref := runMixed(t, v, n, seed)

				rounds := 0
				var total time.Duration
				s := ncc.New(ncc.Config{N: n, Seed: seed, Profile: func(c, d, b time.Duration) {
					rounds++
					total += c + d + b
				}})
				got, err := v.run(t, s, mixedProto(24))
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", v.name, n, seed, err)
				}
				tracesEqual(t, ref, got, fmt.Sprintf("profiled n=%d seed=%d %s", n, seed, v.name))
				ncctest.Expect(t, "profiled "+mixedKey(n, seed)+" "+v.name, got, nil, mixedDigests[mixedKey(n, seed)])
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
		s := ncc.New(ncc.Config{N: 5, Seed: 2})
		_, err := v.run(t, s, func(nd *ncc.Node) ncc.Op {
			// Nobody will ever write.
			return ncc.Await(ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op { return ncc.Done() }))
		})
		if !errors.Is(err, ncc.ErrDeadlock) {
			t.Fatalf("want ErrDeadlock, got %v", err)
		}
	})
}

func TestSchedConformanceStopAtBarrier(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, v schedVariant) {
		stop := make(chan struct{})
		cfg := ncc.Config{N: 4, Seed: 3, Stop: stop}
		s := ncc.New(cfg)
		first := s.IDs()[0]
		spin := func(nd *ncc.Node, r int) {
			if nd.ID() == first && r == 50 {
				close(stop)
			}
		}
		tr, err := v.run(t, s, func(nd *ncc.Node) ncc.Op {
			var loop func(r int) ncc.Op
			loop = func(r int) ncc.Op {
				spin(nd, r)
				return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op { return loop(r + 1) }))
			}
			return loop(0)
		})
		if !errors.Is(err, ncc.ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
		if tr == nil || tr.Metrics.Rounds < 50 {
			t.Fatalf("run stopped before the protocol closed Stop (trace %+v)", tr)
		}
	})
}

// progressTicks records the hook's (round, msgs) sequence for mixedProto(16)
// at N=6, Seed=9, taken from its blocking form on the goroutine-barrier
// driver.
var progressTicks = []tick{
	{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 5}, {5, 5}, {7, 5}, {8, 5}, {9, 5},
	{10, 10}, {11, 10}, {12, 10}, {13, 10}, {15, 10}, {16, 15}, {17, 15}, {18, 15}, {22, 15},
}

type tick struct{ round, msgs int }

// TestSchedConformanceProgressOrdering pins the hook contract: one invocation
// per barrier, (round, msgs) nondecreasing, the recorded sequence, and the
// exact same sequence on every host.
func TestSchedConformanceProgressOrdering(t *testing.T) {
	record := func(v schedVariant) []tick {
		var ticks []tick
		cfg := ncc.Config{N: 6, Seed: 9, Progress: func(round, msgs int) {
			ticks = append(ticks, tick{round, msgs})
		}}
		if _, err := v.run(t, ncc.New(cfg), mixedProto(16)); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		return ticks
	}
	variants := schedVariants()
	ref := record(variants[0])
	if len(ref) == 0 {
		t.Fatal("progress hook never fired")
	}
	if !reflect.DeepEqual(ref, progressTicks) {
		t.Fatalf("progress sequence %v, recorded %v", ref, progressTicks)
	}
	for i := 1; i < len(ref); i++ {
		if ref[i].round < ref[i-1].round || ref[i].msgs < ref[i-1].msgs {
			t.Fatalf("progress not monotone at %d: %+v after %+v", i, ref[i], ref[i-1])
		}
	}
	for _, v := range variants[1:] {
		if got := record(v); !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s: progress sequence differs from %s's (%d vs %d ticks)", v.name, variants[0].name, len(got), len(ref))
		}
	}
}

// TestSchedConformanceSleepFastForward pins the sleepHeap contract: rounds in
// which every node sleeps are skipped in O(1), on every host, with
// identical round accounting.
func TestSchedConformanceSleepFastForward(t *testing.T) {
	const skip = 1_000_000
	forEachScheduler(t, func(t *testing.T, v schedVariant) {
		s := ncc.New(ncc.Config{N: 8, Seed: 4})
		tr, err := v.run(t, s, func(nd *ncc.Node) ncc.Op {
			return ncc.Sleep(skip, ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
				return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op { return ncc.Done() }))
			}))
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
		s := ncc.New(ncc.Config{N: 4, Seed: 6})
		victim := s.IDs()[1]
		_, err := v.run(t, s, func(nd *ncc.Node) ncc.Op {
			var loop ncc.ContFunc
			loop = func(nd *ncc.Node, w ncc.Wake) ncc.Op { return ncc.Next(loop) }
			return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
				if nd.ID() == victim {
					panic("boom")
				}
				return ncc.Next(loop)
			}))
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("want propagated panic, got %v", err)
		}
	})
}

// TestSchedConformanceStrictViolation pins that strict-mode capacity errors
// classify identically on every host, and that both the send and the
// receive violation match ncc.ErrCapacity.
func TestSchedConformanceStrictViolation(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, v schedVariant) {
		for _, tc := range []struct {
			name  string
			flood func(nd *ncc.Node)
		}{
			{"send", func(nd *ncc.Node) {
				if nd.ID() == 1 {
					// Flood node 2 beyond the capacity from a single sender.
					for i := 0; i < nd.Capacity()+1; i++ {
						nd.Send(2, ncc.Message{Kind: 1})
					}
				}
			}},
			{"receive", func(nd *ncc.Node) {
				// Every other node sends node 2 one message: 3 > capacity 2.
				if nd.ID() != 2 {
					nd.Send(2, ncc.Message{Kind: 1})
				}
			}},
		} {
			s := ncc.New(ncc.Config{N: 4, Seed: 8, CapMul: 1, Strict: true, Model: ncc.NCC1})
			_, err := v.run(t, s, func(nd *ncc.Node) ncc.Op {
				tc.flood(nd)
				return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op { return ncc.Done() }))
			})
			if !errors.Is(err, ncc.ErrCapacity) {
				t.Fatalf("%s: want a strict capacity violation matching ErrCapacity, got %v", tc.name, err)
			}
		}
	})
}

// TestFlatZeroNodeGoroutines pins the engine's defining property: a run at
// large n keeps the process goroutine count O(1) — the engine runs
// everything — instead of O(n).
func TestFlatZeroNodeGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	maxG := 0
	s := ncc.New(ncc.Config{N: 20_000, Seed: 5, Progress: func(round, msgs int) {
		if g := runtime.NumGoroutine(); g > maxG {
			maxG = g
		}
	}})
	_, err := s.RunProgram(mixedProto(8))
	if err != nil {
		t.Fatal(err)
	}
	if maxG > base+8 {
		t.Fatalf("flat run grew the goroutine count: base=%d max=%d (want O(1), not O(n))", base, maxG)
	}
}

// TestFlatNilContinuation pins that a malformed Op (suspension without a
// continuation) is reported as a protocol violation, not a nil-call crash.
func TestFlatNilContinuation(t *testing.T) {
	s := ncc.New(ncc.Config{N: 1, Seed: 1})
	_, err := s.RunProgram(func(nd *ncc.Node) ncc.Op { return ncc.Next(nil) })
	if err == nil || !strings.Contains(err.Error(), "nil continuation") {
		t.Fatalf("want a nil-continuation violation, got %v", err)
	}
}
