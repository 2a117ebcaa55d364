package jobs_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"graphrealize"
	"graphrealize/internal/jobs"
)

// wireera_test.go covers the at-rest graphwire adoption (WIRE.md §10):
// new records persist graphs as graph_wire streams, and JSON-era data
// directories — represented by the committed testdata/jsonera fixture,
// generated with the pre-wire code — still recover and are converted to
// the wire form by the open-time compaction.

// copyFixture clones a testdata directory into a temp dir, because opening
// a store compacts (rewrites) it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join("testdata", name, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// readStoreBytes returns the concatenated snapshot + WAL of a data dir.
func readStoreBytes(t *testing.T, dir string) []byte {
	t.Helper()
	var out []byte
	for _, f := range []string{"snapshot.json", "wal.log"} {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// TestJSONEraDirRecoversAndConverts opens a data directory written entirely
// by the pre-wire code: the edges-form done job must be served with its
// graph intact, the failed job with its error, and the open-time compaction
// must rewrite the store in graph_wire form (the version sniff of WIRE.md
// §8 — no migration step, old dirs convert on first open).
func TestJSONEraDirRecoversAndConverts(t *testing.T) {
	dir := copyFixture(t, "jsonera")
	m := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: openFileStore(t, dir)})

	done := waitStateFor(t, m, "j1-00000000a1b2", jobs.StateDone, 5*time.Second)
	if !done.Recovered || done.Result == nil || done.Result.Graph == nil {
		t.Fatalf("JSON-era done job recovered as %+v", done)
	}
	wantAdj := [][]int{{1, 2, 3}, {0, 2}, {0, 1}, {0}}
	if !reflect.DeepEqual(done.Result.Graph.Adj, wantAdj) {
		t.Fatalf("JSON-era graph = %v, want %v", done.Result.Graph.Adj, wantAdj)
	}
	if done.Result.Stats == nil || done.Result.Stats.Rounds != 3 {
		t.Fatalf("JSON-era stats not preserved: %+v", done.Result.Stats)
	}

	failed := waitStateFor(t, m, "j2-00000000c3d4", jobs.StateFailed, 5*time.Second)
	if failed.Err == nil || failed.Err.Error() != "degree sequence is not graphic" {
		t.Fatalf("JSON-era failed job error = %v", failed.Err)
	}

	if err := m.Close(t.Context()); err != nil {
		t.Fatal(err)
	}

	// The open-time compaction rewrote the store: the done job's graph now
	// travels as graph_wire, and no record carries a JSON edge list.
	disk := readStoreBytes(t, dir)
	if !bytes.Contains(disk, []byte(`"graph_wire"`)) {
		t.Fatal("converted store has no graph_wire field")
	}
	if bytes.Contains(disk, []byte(`"edges"`)) {
		t.Fatal("converted store still carries a JSON-era edges field")
	}

	// And the converted directory recovers identically.
	m2 := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: openFileStore(t, dir)})
	defer crashClose(m2)
	again := waitStateFor(t, m2, "j1-00000000a1b2", jobs.StateDone, 5*time.Second)
	if !reflect.DeepEqual(again.Result.Graph.Adj, wantAdj) {
		t.Fatalf("wire-era graph = %v, want %v", again.Result.Graph.Adj, wantAdj)
	}
}

// TestNewRecordsPersistGraphWire runs a real job against a FileStore and
// checks the written form: graph_wire present, edges absent, and the graph
// identical after a reopen.
func TestNewRecordsPersistGraphWire(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: openFileStore(t, dir)})
	snap, err := m.Submit(graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: []int{3, 2, 2, 2, 1}, Opt: &graphrealize.Options{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	got := waitStateFor(t, m, snap.ID, jobs.StateDone, 10*time.Second)
	if err := m.Close(t.Context()); err != nil {
		t.Fatal(err)
	}

	disk := readStoreBytes(t, dir)
	if !bytes.Contains(disk, []byte(`"graph_wire"`)) {
		t.Fatal("new terminal record does not carry graph_wire")
	}
	if bytes.Contains(disk, []byte(`"edges"`)) {
		t.Fatal("new terminal record still writes the JSON-era edges field")
	}

	m2 := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: openFileStore(t, dir)})
	defer crashClose(m2)
	rec := waitStateFor(t, m2, snap.ID, jobs.StateDone, 5*time.Second)
	if !reflect.DeepEqual(rec.Result.Graph.Adj, got.Result.Graph.Adj) {
		t.Fatal("graph served after reopen differs from the original result")
	}
}

// TestCorruptGraphWireSurfacesAsFailure: a terminal record whose embedded
// stream no longer decodes (out-of-band damage past the WAL checksum) must
// surface as a failed job naming the loss — never a done job with a wrong
// graph, and never a dropped job.
func TestCorruptGraphWireSurfacesAsFailure(t *testing.T) {
	dir := t.TempDir()
	st := openFileStore(t, dir)
	pj := jobs.PersistedJob{
		ID:      "j1-deadbeef0000",
		Kind:    int(graphrealize.JobDegrees),
		Seq:     []int{1, 1},
		State:   jobs.StateDone,
		Created: time.Now(),
		Result:  &jobs.PersistedResult{N: 2, GraphWire: []byte("GRWF\x01 not a stream")},
	}
	if err := st.LogTerminal(pj); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	m := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: openFileStore(t, dir)})
	defer crashClose(m)
	snap := waitStateFor(t, m, pj.ID, jobs.StateFailed, 5*time.Second)
	if snap.Err == nil {
		t.Fatal("corrupt graph_wire surfaced without an error")
	}
	if snap.Result != nil {
		t.Fatalf("corrupt graph_wire still served a result: %+v", snap.Result)
	}
}

// TestRetiredSchedulerFieldReplays: records written when the engine had
// several drivers persist the chosen one as options.scheduler (2 was the
// pool driver). The field is gone from PersistedOptions; such a record must
// still replay — a queued job from the WAL re-runs to exactly the result a
// fresh run of the same job produces, and a done job in the snapshot is
// served as stored.
func TestRetiredSchedulerFieldReplays(t *testing.T) {
	dir := t.TempDir()
	snapshot := `{"format":1,"wal_seq":1,"saved_at":"2026-09-01T00:00:00Z","jobs":[` +
		`{"id":"j1-0000000000a1","kind":0,"seq":[3,2,2,1],"options":{"seed":7,"scheduler":2},"state":"done",` +
		`"created":"2026-09-01T00:00:00Z","finished":"2026-09-01T00:00:01Z",` +
		`"result":{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2]],"stats":{"Rounds":3}}}]}`
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(snapshot), 0o600); err != nil {
		t.Fatal(err)
	}
	payload := `{"seq":2,"op":"submit","job":{"id":"j2-0000000000b2","kind":0,"seq":[3,3,2,2,2,2],` +
		`"options":{"seed":11,"scheduler":2},"state":"queued","created":"2026-09-01T00:00:02Z"}}`
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte(line), 0o600); err != nil {
		t.Fatal(err)
	}

	m := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: openFileStore(t, dir)})
	defer crashClose(m)
	if st := m.StatsSnapshot().Store; st.ReplayErrors != 0 {
		t.Fatalf("replay dropped %d records", st.ReplayErrors)
	}

	done := waitStateFor(t, m, "j1-0000000000a1", jobs.StateDone, 5*time.Second)
	if done.Result == nil || !reflect.DeepEqual(done.Result.Graph.Adj, [][]int{{1, 2, 3}, {0, 2}, {0, 1}, {0}}) {
		t.Fatalf("snapshot job with a scheduler field recovered as %+v", done)
	}

	rerun := waitStateFor(t, m, "j2-0000000000b2", jobs.StateDone, 10*time.Second)
	fresh := graphrealize.Execute(t.Context(), graphrealize.Job{
		Kind: graphrealize.JobDegrees, Seq: []int{3, 3, 2, 2, 2, 2}, Opt: &graphrealize.Options{Seed: 11},
	})
	if fresh.Err != nil {
		t.Fatal(fresh.Err)
	}
	if !rerun.Recovered || rerun.Result == nil ||
		!reflect.DeepEqual(rerun.Result.Graph.Edges(), fresh.Graph.Edges()) ||
		!reflect.DeepEqual(rerun.Result.Stats, fresh.Stats) {
		t.Fatalf("replayed job differs from a fresh run:\n got %+v\nwant %+v", rerun.Result, fresh)
	}
}
