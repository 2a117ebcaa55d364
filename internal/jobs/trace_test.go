package jobs_test

import (
	"testing"
	"time"

	"graphrealize"
	"graphrealize/internal/jobs"
)

// trace_test.go pins request-trace propagation through the async layer: a
// submitted Job's TraceID must surface in snapshots and events, survive a
// restart via the durable log, and ride the recovered job spec.

func TestTraceIDInSnapshotAndEvents(t *testing.T) {
	m := openManager(t, jobs.Config{Backend: instantBackend()})
	defer closeNow(t, m)

	snap, err := m.Submit(graphrealize.Job{
		Kind: graphrealize.JobDegrees, Seq: []int{2, 2, 2},
		TraceID: "trace-xyz",
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.TraceID != "trace-xyz" {
		t.Fatalf("submit snapshot TraceID = %q, want trace-xyz", snap.TraceID)
	}
	final := waitState(t, m, snap.ID, jobs.StateDone)
	if final.TraceID != "trace-xyz" {
		t.Fatalf("terminal snapshot TraceID = %q, want trace-xyz", final.TraceID)
	}

	events, cancel, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	for ev := range events {
		if ev.TraceID != "trace-xyz" {
			t.Fatalf("event TraceID = %q, want trace-xyz (event %+v)", ev.TraceID, ev)
		}
	}
}

func TestTraceIDSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(1), Store: openFileStore(t, dir)})
	snap, err := m.Submit(graphrealize.Job{
		Kind: graphrealize.JobDegrees, Seq: []int{2, 2, 2},
		Opt:     &graphrealize.Options{Seed: 5},
		TraceID: "trace-restart",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobs.StateDone)
	closeNow(t, m)

	m2 := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(1), Store: openFileStore(t, dir)})
	defer closeNow(t, m2)
	got := waitStateFor(t, m2, snap.ID, jobs.StateDone, 5*time.Second)
	if got.TraceID != "trace-restart" {
		t.Fatalf("recovered snapshot TraceID = %q, want trace-restart", got.TraceID)
	}
	if !got.Recovered {
		t.Fatalf("job %s not marked recovered after restart", snap.ID)
	}
}
