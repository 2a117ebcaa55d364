package jobs_test

// ownership_test.go pins the cluster-worker recovery contract of CLUSTER.md
// §6.4: a process that no longer owns a recovered in-flight job must not
// re-run it — while it was down, its coordinator already failed the job
// over or failed it to the client — but must surface it as failed with
// ErrReassigned rather than silently dropping the record.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"graphrealize"
	"graphrealize/internal/jobs"
)

// crashWithInFlight runs one job to completion and leaves a second
// in-flight on disk, then crashes, returning the data dir and both IDs.
func crashWithInFlight(t *testing.T) (dir, doneID, inflightID string) {
	t.Helper()
	dir = t.TempDir()
	cs := &crashStore{Store: openFileStore(t, dir)}
	m := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: cs})

	fast, err := m.Submit(graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: []int{3, 3, 2, 2, 2, 2}, Opt: &graphrealize.Options{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, fast.ID, jobs.StateDone)

	seq := make([]int, 192)
	for i := range seq {
		seq[i] = 4
	}
	slow, err := m.Submit(graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: seq, Opt: &graphrealize.Options{Seed: 5, Sort: graphrealize.OddEvenSort}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, slow.ID, jobs.StateRunning)
	cs.crashed.Store(true)
	crashClose(m)
	return dir, fast.ID, slow.ID
}

// TestRecoveryReassignedNotRerun: with ReassignInFlight set — how
// cmd/grserved opens the manager on a -join worker — recovery
// re-runs nothing, records the in-flight job as failed with ErrReassigned,
// still reloads terminal jobs, and counts the outcome (CLUSTER.md §6.4).
func TestRecoveryReassignedNotRerun(t *testing.T) {
	dir, doneID, inflightID := crashWithInFlight(t)

	var replays atomic.Int64
	runner := graphrealize.NewRunner(2)
	backend := &fakeBackend{
		submit: runner.SubmitCtx,
		replay: func(ctx context.Context, j graphrealize.Job) <-chan graphrealize.Result {
			replays.Add(1)
			return runner.SubmitReplayCtx(ctx, j)
		},
	}
	m := openManager(t, jobs.Config{
		Backend:          backend,
		Store:            openFileStore(t, dir),
		ReassignInFlight: true,
	})
	defer closeNow(t, m)

	if got := replays.Load(); got != 0 {
		t.Fatalf("reassigned job was replayed %d times; §6.4 forbids re-running it here", got)
	}

	// Terminal jobs always reload: a finished result is correct wherever it
	// is read.
	done, err := m.Get(doneID)
	if err != nil || done.State != jobs.StateDone || !done.Recovered {
		t.Fatalf("terminal job after owned-elsewhere recovery: %+v, %v", done, err)
	}

	// The in-flight job is retained as failed — visible, never dropped.
	snap, err := m.Get(inflightID)
	if err != nil {
		t.Fatalf("reassigned job vanished: %v", err)
	}
	if snap.State != jobs.StateFailed || !snap.Recovered {
		t.Fatalf("reassigned job state = %+v, want recovered failed", snap)
	}
	if snap.Err == nil || !errors.Is(snap.Err, jobs.ErrReassigned) {
		t.Fatalf("reassigned job error = %v, want ErrReassigned", snap.Err)
	}

	st := m.StatsSnapshot()
	if st.RecoveredReassigned != 1 || st.RecoveredRequeued != 0 || st.RecoveredTerminal != 1 {
		t.Fatalf("recovery counters = %+v, want 1 reassigned, 0 requeued, 1 terminal", st)
	}
}

// TestReassignedSurvivesSecondRestart: the ErrReassigned verdict is itself
// durable — after another restart the job reloads as a terminal failure
// (CLUSTER.md §6.4), not as a fresh in-flight record.
func TestReassignedSurvivesSecondRestart(t *testing.T) {
	dir, _, inflightID := crashWithInFlight(t)

	m1 := openManager(t, jobs.Config{
		Backend:          instantBackend(),
		Store:            openFileStore(t, dir),
		ReassignInFlight: true,
	})
	closeNow(t, m1)

	m2 := openManager(t, jobs.Config{Backend: instantBackend(), Store: openFileStore(t, dir)})
	defer closeNow(t, m2)
	snap, err := m2.Get(inflightID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateFailed {
		t.Fatalf("reassigned job after second restart = %+v, want failed", snap)
	}
	if snap.Err == nil || !strings.Contains(snap.Err.Error(), "reassigned") {
		t.Fatalf("reassigned error string lost across restart: %v", snap.Err)
	}
	if st := m2.StatsSnapshot(); st.RecoveredRequeued != 0 {
		t.Fatalf("terminal reassigned job was requeued on second restart: %+v", st)
	}
}
