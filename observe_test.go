package graphrealize

import (
	"testing"
	"time"
)

// TestRunnerObsInstruments pins the executeAdmitted instrumentation: an
// executed job lands in the latency histograms, its engine rounds feed the
// phase profile, and the flight recorder retains the job's trace ID and
// phase breakdown.
func TestRunnerObsInstruments(t *testing.T) {
	r := NewRunner(2)
	j := Job{
		Kind:    JobDegrees,
		Seq:     []int{3, 3, 2, 2, 2, 2},
		Opt:     &Options{Seed: 11},
		Label:   "obs-test",
		TraceID: "trace-abc",
	}
	res := <-r.Submit(j)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if res.Job.TraceID != "trace-abc" {
		t.Fatalf("TraceID not preserved on Result.Job: %q", res.Job.TraceID)
	}

	o := r.Obs()
	if got := o.Run.Snapshot().Count; got != 1 {
		t.Fatalf("run histogram count = %d, want 1", got)
	}
	if got := o.QueueWait.Snapshot().Count; got != 1 {
		t.Fatalf("queue-wait histogram count = %d, want 1", got)
	}
	prof := o.Phases.Snapshot()
	if prof.Rounds == 0 {
		t.Fatal("phase profile recorded no rounds")
	}
	if total := prof.Compute + prof.Delivery + prof.Barrier; total <= 0 {
		t.Fatalf("phase time = %v, want > 0", total)
	}

	slow := o.Recorder.Slowest()
	if len(slow) != 1 {
		t.Fatalf("flight recorder holds %d entries, want 1", len(slow))
	}
	e := slow[0]
	if e.TraceID != "trace-abc" || e.Kind != "degrees" || e.Label != "obs-test" ||
		e.N != 6 || e.Seed != 11 {
		t.Fatalf("flight entry fields wrong: %+v", e)
	}
	if e.Rounds != prof.Rounds {
		t.Fatalf("flight entry rounds %d != profile rounds %d", e.Rounds, prof.Rounds)
	}
	if e.Run <= 0 || e.Err != "" {
		t.Fatalf("flight entry run/err wrong: %+v", e)
	}

	// A cache hit is served without execution: no new histogram samples, no
	// new flight entry, and the submitter's own Profile hook never fires.
	profiled := 0
	j2 := j
	opt := *j.Opt
	opt.Profile = func(c, d, b time.Duration) { profiled++ }
	j2.Opt = &opt
	res2 := <-r.Submit(j2)
	if res2.Err != nil || !res2.Cached {
		t.Fatalf("second submit: err=%v cached=%v, want cached hit", res2.Err, res2.Cached)
	}
	if profiled != 0 {
		t.Fatalf("cache hit fired the Profile hook %d times", profiled)
	}
	if got := o.Run.Snapshot().Count; got != 1 {
		t.Fatalf("cache hit added a run histogram sample (count %d)", got)
	}
	if got := len(o.Recorder.Slowest()); got != 1 {
		t.Fatalf("cache hit added a flight entry (%d total)", got)
	}
}

// TestRunnerObsChainsCallerProfile pins that the Runner's instrumentation
// hook chains — not replaces — a caller-supplied Options.Profile.
func TestRunnerObsChainsCallerProfile(t *testing.T) {
	r := NewRunner(1)
	calls := 0
	var total time.Duration
	j := Job{Kind: JobDegrees, Seq: []int{2, 2, 2}, Opt: &Options{
		Seed:    3,
		Profile: func(c, d, b time.Duration) { calls++; total += c + d + b },
	}}
	if res := <-r.Submit(j); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if calls == 0 {
		t.Fatal("caller Profile hook never fired")
	}
	prof := r.Obs().Phases.Snapshot()
	if int64(calls) != prof.Rounds {
		t.Fatalf("caller saw %d rounds, profile recorded %d", calls, prof.Rounds)
	}
	if total <= 0 {
		t.Fatalf("caller accumulated %v phase time, want > 0", total)
	}
}
