package jobs_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"graphrealize"
	"graphrealize/internal/jobs"
)

// fakeBackend scripts the Backend seam. Its submit func decides admission;
// the helpers below model an instantly succeeding job and a long-running
// engine that reports progress until its context dies.
type fakeBackend struct {
	submit func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error)
	replay func(ctx context.Context, j graphrealize.Job) <-chan graphrealize.Result
}

func (f *fakeBackend) SubmitCtx(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
	return f.submit(ctx, j)
}

// SubmitReplayCtx scripts the recovery path: replay, unless overridden,
// behaves like a regular submission (the fake has no admission bound). No
// test recovers through a submit func that refuses.
func (f *fakeBackend) SubmitReplayCtx(ctx context.Context, j graphrealize.Job) <-chan graphrealize.Result {
	if f.replay != nil {
		return f.replay(ctx, j)
	}
	ch, _ := f.submit(ctx, j)
	return ch
}

func (f *fakeBackend) Stats() graphrealize.RunnerStats { return graphrealize.RunnerStats{} }

// instantBackend completes every job immediately with a success result.
func instantBackend() *fakeBackend {
	return &fakeBackend{submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
		ch := make(chan graphrealize.Result, 1)
		ch <- graphrealize.Result{Job: j, Graph: &graphrealize.Graph{N: len(j.Seq)}, Stats: &graphrealize.Stats{N: len(j.Seq), Rounds: 1}}
		return ch, nil
	}}
}

// engineBackend mimics the NCC engine's cooperative cancellation: a driver
// goroutine fires the job's Progress hook once per simulated round barrier
// and stops only when the job context dies, exactly like ncc.Config.Stop.
func engineBackend(roundLen time.Duration) *fakeBackend {
	return &fakeBackend{submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
		ch := make(chan graphrealize.Result, 1)
		go func() {
			for round := 0; ; round++ {
				if j.Progress != nil {
					j.Progress(round, 3*round)
				}
				select {
				case <-ctx.Done():
					ch <- graphrealize.Result{Job: j, Err: ctx.Err()}
					return
				case <-time.After(roundLen):
				}
			}
		}()
		return ch, nil
	}}
}

func job(seed int64) graphrealize.Job {
	return graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: []int{2, 2, 2}, Opt: &graphrealize.Options{Seed: seed}}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, m *jobs.Manager, id string, want jobs.State) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatalf("job %s vanished while waiting for %s: %v", id, want, err)
		}
		if snap.State == want {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (stuck at %s)", id, want, snap.State)
	return jobs.Snapshot{}
}

func closeNow(t *testing.T, m *jobs.Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestLifecycleAgainstRealRunner(t *testing.T) {
	// End to end through a real Runner and the real engine hook: a 4-regular
	// degree realization is large enough to cross many round barriers.
	m := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2)})
	defer closeNow(t, m)

	seq := make([]int, 64)
	for i := range seq {
		seq[i] = 4
	}
	snap, err := m.Submit(graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: seq, Opt: &graphrealize.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.State != jobs.StateQueued {
		t.Fatalf("fresh job must be queued with an ID: %+v", snap)
	}

	events, cancel, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	lastRound := -1
	var final jobs.Event
	for ev := range events {
		if ev.Round < lastRound {
			t.Fatalf("round went backwards: %d after %d", ev.Round, lastRound)
		}
		lastRound = ev.Round
		final = ev
	}
	if !final.Terminal || final.State != jobs.StateDone {
		t.Fatalf("stream must end in done, got %+v", final)
	}

	done, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone || done.Result == nil || done.Result.Graph == nil {
		t.Fatalf("done job must carry its result: %+v", done)
	}
	if done.Round <= 0 {
		t.Fatal("a multi-round run must have reported progress")
	}
	if done.Result.Stats.Rounds < done.Round {
		t.Fatalf("final stats (%d rounds) inconsistent with progress watermark %d",
			done.Result.Stats.Rounds, done.Round)
	}
	if done.Started.IsZero() || done.Finished.Before(done.Started) {
		t.Fatalf("timestamps out of order: %+v", done)
	}
}

func TestCancelStopsRealEngineRun(t *testing.T) {
	// The acceptance path: DELETE-style cancellation must stop the engine at
	// a round barrier (ncc.ErrCanceled → context.Canceled → StateCanceled).
	// OddEvenSort at n=256 runs long enough that cancellation after the
	// first progress barrier always lands mid-run.
	m := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2)})
	defer closeNow(t, m)

	seq := make([]int, 256)
	for i := range seq {
		seq[i] = 4
	}
	snap, err := m.Submit(graphrealize.Job{
		Kind: graphrealize.JobDegrees,
		Seq:  seq,
		Opt:  &graphrealize.Options{Seed: 2, Sort: graphrealize.OddEvenSort},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobs.StateRunning)
	if _, initiated, err := m.Cancel(snap.ID); err != nil || !initiated {
		t.Fatalf("cancel of a running job must initiate: initiated=%v err=%v", initiated, err)
	}
	got := waitState(t, m, snap.ID, jobs.StateCanceled)
	if !errors.Is(got.Err, context.Canceled) {
		t.Fatalf("canceled job must record the context error, got %v", got.Err)
	}
	if got.Result != nil {
		t.Fatal("canceled job must not carry a result")
	}
	// Cancel is idempotent: on a terminal job it is a no-op, not an error.
	if _, initiated, err := m.Cancel(snap.ID); err != nil || initiated {
		t.Fatalf("cancel of a terminal job must be a no-op: initiated=%v err=%v", initiated, err)
	}
}

func TestProgressStreamFromEngineHook(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: engineBackend(time.Millisecond)})
	defer closeNow(t, m)

	snap, err := m.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	events, cancel, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Watch progress accumulate, then cancel mid-flight.
	sawProgress := false
	for ev := range events {
		if ev.State == jobs.StateRunning && ev.Round >= 3 {
			sawProgress = true
			if _, _, err := m.Cancel(snap.ID); err != nil {
				t.Fatal(err)
			}
		}
		if ev.Terminal {
			if ev.State != jobs.StateCanceled || ev.Err == "" {
				t.Fatalf("terminal event must report cancellation: %+v", ev)
			}
			break
		}
	}
	if !sawProgress {
		t.Fatal("never observed running progress before cancellation")
	}
}

func TestSubscribeTerminalJobYieldsOneEvent(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: instantBackend()})
	defer closeNow(t, m)
	snap, err := m.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobs.StateDone)
	events, cancel, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var got []jobs.Event
	for ev := range events {
		got = append(got, ev)
	}
	if len(got) != 1 || !got[0].Terminal || got[0].State != jobs.StateDone {
		t.Fatalf("want exactly the terminal event, got %+v", got)
	}
}

func TestSubscribeUnknownJob(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: instantBackend()})
	defer closeNow(t, m)
	if _, _, err := m.Subscribe("nope"); !errors.Is(err, jobs.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestTwoPhaseGC(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: instantBackend(), Retention: time.Minute})
	defer closeNow(t, m)
	snap, err := m.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobs.StateDone)

	// Before retention: untouched.
	if n := m.GC(time.Now()); n != 0 {
		t.Fatalf("fresh job must survive GC, removed %d", n)
	}
	// After retention, phase one: still queryable, but expired.
	if n := m.GC(time.Now().Add(2 * time.Minute)); n != 0 {
		t.Fatalf("first sweep must only mark expired, removed %d", n)
	}
	got, err := m.Get(snap.ID)
	if err != nil || got.State != jobs.StateExpired {
		t.Fatalf("want queryable expired job, got %+v err %v", got, err)
	}
	// Phase two: removed; lookups now 404.
	if n := m.GC(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("second sweep must remove the expired job, removed %d", n)
	}
	if _, err := m.Get(snap.ID); !errors.Is(err, jobs.ErrNotFound) {
		t.Fatalf("GC'd job must be gone, got %v", err)
	}
	if st := m.StatsSnapshot(); st.Evictions != 1 || st.Retained != 0 {
		t.Fatalf("eviction accounting wrong: %+v", st)
	}
}

func TestGCLoopRunsOnItsOwn(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: instantBackend(), Retention: 20 * time.Millisecond, GCInterval: 10 * time.Millisecond})
	defer closeNow(t, m)
	snap, err := m.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobs.StateDone)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := m.Get(snap.ID); errors.Is(err, jobs.ErrNotFound) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background GC never removed the finished job")
}

func TestMaxJobsEvictsFinishedFirst(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: instantBackend(), MaxJobs: 2})
	defer closeNow(t, m)
	first, err := m.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, jobs.StateDone)
	if _, err := m.Submit(job(2)); err != nil {
		t.Fatal(err)
	}
	third, err := m.Submit(job(3))
	if err != nil {
		t.Fatalf("at the cap, a finished job must be evicted to admit: %v", err)
	}
	if _, err := m.Get(first.ID); !errors.Is(err, jobs.ErrNotFound) {
		t.Fatalf("oldest finished job must have been evicted, got %v", err)
	}
	if _, err := m.Get(third.ID); err != nil {
		t.Fatalf("newest job must be retained: %v", err)
	}
	if st := m.StatsSnapshot(); st.Evictions != 1 {
		t.Fatalf("capacity eviction must be counted: %+v", st)
	}
}

func TestMaxJobsAllLiveRefuses(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: engineBackend(time.Millisecond), MaxJobs: 1})
	defer closeNow(t, m)
	live, err := m.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(job(2)); !errors.Is(err, jobs.ErrTooManyJobs) {
		t.Fatalf("a cap full of live jobs must refuse, got %v", err)
	}
	if _, _, err := m.Cancel(live.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedSubmitEvictsNothing: eviction happens only after admission, so
// a backend rejection at the MaxJobs cap must not destroy a retained result.
func TestRejectedSubmitEvictsNothing(t *testing.T) {
	full := false
	fb := &fakeBackend{submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
		if full {
			return nil, graphrealize.ErrQueueFull
		}
		ch := make(chan graphrealize.Result, 1)
		ch <- graphrealize.Result{Job: j, Graph: &graphrealize.Graph{N: len(j.Seq)}, Stats: &graphrealize.Stats{}}
		return ch, nil
	}}
	m := openManager(t, jobs.Config{Backend: fb, MaxJobs: 1})
	defer closeNow(t, m)
	done, err := m.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, done.ID, jobs.StateDone)

	full = true
	if _, err := m.Submit(job(2)); !errors.Is(err, graphrealize.ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if _, err := m.Get(done.ID); err != nil {
		t.Fatalf("rejected submission must not evict the finished job: %v", err)
	}
	if st := m.StatsSnapshot(); st.Evictions != 0 {
		t.Fatalf("no eviction may be counted on rejection: %+v", st)
	}

	// Once the backend admits again, the finished job is evicted to make room.
	full = false
	fresh, err := m.Submit(job(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(done.ID); !errors.Is(err, jobs.ErrNotFound) {
		t.Fatalf("admitted submission at the cap must evict the finished job, got %v", err)
	}
	waitState(t, m, fresh.ID, jobs.StateDone)
}

func TestBackpressurePassesThrough(t *testing.T) {
	fb := &fakeBackend{submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
		return nil, graphrealize.ErrQueueFull
	}}
	m := openManager(t, jobs.Config{Backend: fb})
	defer closeNow(t, m)
	if _, err := m.Submit(job(1)); !errors.Is(err, graphrealize.ErrQueueFull) {
		t.Fatalf("want ErrQueueFull passthrough, got %v", err)
	}
	if st := m.StatsSnapshot(); st.Retained != 0 {
		t.Fatal("rejected submissions must not be retained")
	}
}

func TestJobTimeoutLandsInFailed(t *testing.T) {
	fb := &fakeBackend{submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
		ch := make(chan graphrealize.Result, 1)
		ch <- graphrealize.Result{Job: j, Err: context.DeadlineExceeded}
		return ch, nil
	}}
	m := openManager(t, jobs.Config{Backend: fb})
	defer closeNow(t, m)
	snap, err := m.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, snap.ID, jobs.StateFailed)
	if !errors.Is(got.Err, context.DeadlineExceeded) {
		t.Fatalf("timeout must be recorded as the failure cause, got %v", got.Err)
	}
}

// TestCallerProgressHookIsChained: a caller-supplied Job.Progress keeps
// firing alongside the manager's own snapshot reporter.
func TestCallerProgressHookIsChained(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: engineBackend(100 * time.Microsecond)})
	defer closeNow(t, m)
	var callerRounds atomic.Int64
	j := job(1)
	j.Progress = func(round, msgs int) { callerRounds.Store(int64(round)) }
	snap, err := m.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		got, err := m.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Round >= 3 && callerRounds.Load() >= 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if callerRounds.Load() < 3 {
		t.Fatalf("caller hook must keep firing, last saw round %d", callerRounds.Load())
	}
	got, err := m.Get(snap.ID)
	if err != nil || got.Round < 3 {
		t.Fatalf("manager snapshot must advance too: %+v err %v", got, err)
	}
	if _, _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
}

// TestJobTimeoutConfigThreadsThrough: the manager stamps its JobTimeout
// override onto submitted jobs (without clobbering an explicit per-job one),
// so async jobs can outlive the Runner's synchronous deadline.
func TestJobTimeoutConfigThreadsThrough(t *testing.T) {
	var got []time.Duration
	fb := &fakeBackend{submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
		got = append(got, j.Timeout)
		ch := make(chan graphrealize.Result, 1)
		ch <- graphrealize.Result{Job: j, Graph: &graphrealize.Graph{N: len(j.Seq)}, Stats: &graphrealize.Stats{}}
		return ch, nil
	}}
	m := openManager(t, jobs.Config{Backend: fb, JobTimeout: -1})
	defer closeNow(t, m)
	if _, err := m.Submit(job(1)); err != nil {
		t.Fatal(err)
	}
	explicit := job(2)
	explicit.Timeout = time.Minute
	if _, err := m.Submit(explicit); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != -1 || got[1] != time.Minute {
		t.Fatalf("timeout threading wrong: %v", got)
	}
}

func TestListAndFilter(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: instantBackend()})
	defer closeNow(t, m)
	var ids []string
	for i := 0; i < 3; i++ {
		snap, err := m.Submit(job(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	for _, id := range ids {
		waitState(t, m, id, jobs.StateDone)
	}
	all := m.List("", 0)
	if len(all) != 3 {
		t.Fatalf("want 3 jobs, got %d", len(all))
	}
	if all[0].ID != ids[2] {
		t.Fatal("list must be newest-first")
	}
	if got := m.List(jobs.StateDone, 2); len(got) != 2 {
		t.Fatalf("limit must cap the listing, got %d", len(got))
	}
	if got := m.List(jobs.StateRunning, 0); len(got) != 0 {
		t.Fatalf("state filter must apply, got %d", len(got))
	}
}

func TestCloseDrainsThenForcesCancellation(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: engineBackend(time.Millisecond)})
	snap, err := m.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobs.StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a drain that had to force must report the deadline, got %v", err)
	}
	got, err := m.Get(snap.ID)
	if err != nil || got.State != jobs.StateCanceled {
		t.Fatalf("forced drain must cancel live jobs, got %+v err %v", got, err)
	}
	if _, err := m.Submit(job(2)); !errors.Is(err, jobs.ErrShuttingDown) {
		t.Fatalf("submissions after Close must be refused, got %v", err)
	}
	// Close is idempotent.
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestGCSubscribeRaceNeverLosesTerminalEvent is the regression test for the
// TTL-GC vs. subscriber-attach race on one job ID: a GC sweep can decide to
// expire (or remove) a record in the same instant a subscriber registers on
// it. The audited invariants — addSub happens before the pump's first
// snapshot read, the pump re-reads the snapshot after every wake-up, and
// expire()/notifyAll() follow states that only move rightward — mean every
// subscriber that found the record must observe exactly one terminal event
// and the stream must close; a subscriber that lost the lookup race gets
// ErrNotFound. Run under -race in CI, this also proves the window is free of
// data races (no generation check was needed: a subscriber attached to a
// record GC already unlinked still sees its terminal state, it just streams
// one event for a job whose GET now 404s).
func TestGCSubscribeRaceNeverLosesTerminalEvent(t *testing.T) {
	for i := 0; i < 50; i++ {
		m := openManager(t, jobs.Config{Backend: instantBackend(), Retention: time.Nanosecond, GCInterval: time.Hour})
		snap, err := m.Submit(job(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, snap.ID, jobs.StateDone)

		// One goroutine drives both GC phases while another subscribes.
		sweep := make(chan struct{})
		go func() {
			defer close(sweep)
			m.GC(time.Now().Add(time.Minute)) // done → expired
			m.GC(time.Now().Add(time.Minute)) // expired → removed
		}()
		events, cancel, err := m.Subscribe(snap.ID)
		if err != nil {
			// The sweep won the lookup race: the job is gone, which a GET
			// would report the same way.
			if !errors.Is(err, jobs.ErrNotFound) {
				t.Fatalf("subscribe may only fail NotFound, got %v", err)
			}
			<-sweep
			closeNow(t, m)
			continue
		}
		var final jobs.Event
		got := 0
		timeout := time.After(5 * time.Second)
	drain:
		for {
			select {
			case ev, open := <-events:
				if !open {
					break drain
				}
				got++
				final = ev
			case <-timeout:
				t.Fatal("subscriber hung: terminal event lost to the GC race")
			}
		}
		if got == 0 || !final.Terminal {
			t.Fatalf("subscriber must see a terminal event, got %d events (last %+v)", got, final)
		}
		cancel()
		<-sweep
		closeNow(t, m)
	}
}

func TestSubscriberGaugeAndSlowConsumerCoalesces(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: engineBackend(100 * time.Microsecond)})
	defer closeNow(t, m)
	snap, err := m.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	events, cancel, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.StatsSnapshot(); st.Subscribers != 1 {
		t.Fatalf("want 1 subscriber, got %d", st.Subscribers)
	}
	// Sleep instead of reading: hundreds of barriers fire while we are away,
	// but the coalescing stream only owes us the latest snapshot and the
	// terminal event — the engine side never blocks.
	time.Sleep(20 * time.Millisecond)
	if _, _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	var sawTerminal atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			if ev.Terminal {
				sawTerminal.Store(true)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream never terminated")
	}
	if !sawTerminal.Load() {
		t.Fatal("slow consumer must still receive the terminal event")
	}
	cancel()
	deadline := time.Now().Add(time.Second)
	for m.StatsSnapshot().Subscribers != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.StatsSnapshot().Subscribers; got != 0 {
		t.Fatalf("subscriber gauge must drop to 0, got %d", got)
	}
}
