package jobs_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphrealize"
	"graphrealize/internal/jobs"
	"graphrealize/internal/wire"
)

// persist_test.go is the black-box half of the persistence tests: FileStore
// recovery through the Manager — crash simulation, terminal reload,
// in-flight re-queue, determinism of recovered runs, GC-driven compaction
// of the on-disk store, and the at-rest graphwire form (WIRE.md §10),
// checked on reload by Result.Verify.

// crashStore wraps a Store and, once crashed, silently swallows every write
// — the closest a test can get to kill -9 without leaving the process: the
// disk freezes at the pre-crash state while the in-memory Manager runs on.
type crashStore struct {
	jobs.Store
	crashed atomic.Bool
}

func (c *crashStore) LogSubmitted(pj jobs.PersistedJob) error {
	if c.crashed.Load() {
		return nil
	}
	return c.Store.LogSubmitted(pj)
}

func (c *crashStore) LogTerminal(pj jobs.PersistedJob) error {
	if c.crashed.Load() {
		return nil
	}
	return c.Store.LogTerminal(pj)
}

func (c *crashStore) LogExpired(id string) error {
	if c.crashed.Load() {
		return nil
	}
	return c.Store.LogExpired(id)
}

func (c *crashStore) LogRemoved(ids []string) error {
	if c.crashed.Load() {
		return nil
	}
	return c.Store.LogRemoved(ids)
}

func (c *crashStore) Compact(live []jobs.PersistedJob) error {
	if c.crashed.Load() {
		return nil
	}
	return c.Store.Compact(live)
}

func (c *crashStore) Close() error {
	if c.crashed.Load() {
		return nil
	}
	return c.Store.Close()
}

func openFileStore(t *testing.T, dir string) *jobs.FileStore {
	t.Helper()
	fs, err := jobs.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func openManager(t *testing.T, cfg jobs.Config) *jobs.Manager {
	t.Helper()
	m, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// crashClose tears a manager down with a near-zero drain budget — the
// in-flight jobs are force-canceled, standing in for the process dying.
func crashClose(m *jobs.Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_ = m.Close(ctx)
}

// waitStateFor is waitState with a caller-chosen deadline, for recovered
// re-runs that take real simulation time.
func waitStateFor(t *testing.T, m *jobs.Manager, id string, want jobs.State, timeout time.Duration) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
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

// TestCrashRecoveryServesTerminalAndRequeuesInFlight is the tentpole's core
// guarantee: after a crash, completed jobs are served from disk with their
// results and in-flight jobs re-run through the replay path.
func TestCrashRecoveryServesTerminalAndRequeuesInFlight(t *testing.T) {
	dir := t.TempDir()
	cs := &crashStore{Store: openFileStore(t, dir)}
	m1 := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: cs})

	// A fast job completes (its terminal record is fsynced)...
	fast, err := m1.Submit(graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: []int{3, 3, 2, 2, 2, 2}, Opt: &graphrealize.Options{Seed: 7}, Label: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	fastDone := waitState(t, m1, fast.ID, jobs.StateDone)
	wantEdges := fastDone.Result.Graph.Edges()

	// ...and a slow job (odd-even sort, n=192) is mid-run at crash time.
	seq := make([]int, 192)
	for i := range seq {
		seq[i] = 4
	}
	slowJob := graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: seq, Opt: &graphrealize.Options{Seed: 5, Sort: graphrealize.OddEvenSort}, Label: "slow"}
	slow, err := m1.Submit(slowJob)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, slow.ID, jobs.StateRunning)

	// Crash: the disk freezes here; the doomed manager's forced shutdown
	// (which would log a canceled terminal state) never reaches it.
	cs.crashed.Store(true)
	crashClose(m1)

	// Restart on the same directory.
	var replays atomic.Int64
	runner := graphrealize.NewRunner(2)
	backend := &fakeBackend{
		submit: runner.SubmitCtx,
		replay: func(ctx context.Context, j graphrealize.Job) <-chan graphrealize.Result {
			replays.Add(1)
			return runner.SubmitReplayCtx(ctx, j)
		},
	}
	m2 := openManager(t, jobs.Config{Backend: backend, Store: openFileStore(t, dir)})
	defer closeNow(t, m2)

	// The completed job is served from disk, marked recovered, same graph.
	got, err := m2.Get(fast.ID)
	if err != nil {
		t.Fatalf("completed job lost in crash: %v", err)
	}
	if got.State != jobs.StateDone || !got.Recovered {
		t.Fatalf("want recovered done job, got %+v", got)
	}
	if got.Label != "fast" || got.Kind != graphrealize.JobDegrees || got.N != 6 {
		t.Fatalf("job spec mangled by recovery: %+v", got)
	}
	if got.Result == nil || !reflect.DeepEqual(got.Result.Graph.Edges(), wantEdges) {
		t.Fatal("persisted result must match the pre-crash realization")
	}
	if got.Result.Stats == nil || got.Result.Stats.Rounds != fastDone.Result.Stats.Rounds {
		t.Fatal("persisted stats must survive recovery")
	}

	// The in-flight job was re-queued through the replay path and re-runs
	// to completion with the identical graph (same recorded seed).
	if replays.Load() != 1 {
		t.Fatalf("want exactly 1 replay submission, got %d", replays.Load())
	}
	reslow, err := m2.Get(slow.ID)
	if err != nil {
		t.Fatalf("in-flight job lost in crash: %v", err)
	}
	if !reslow.Recovered {
		t.Fatalf("re-queued job must be marked recovered: %+v", reslow)
	}
	redone := waitStateFor(t, m2, slow.ID, jobs.StateDone, 60*time.Second)
	ref, _, err := graphrealize.RealizeDegrees(slowJob.Seq, &graphrealize.Options{Seed: 5, Sort: graphrealize.OddEvenSort})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(redone.Result.Graph.Edges(), ref.Edges()) {
		t.Fatal("recovered re-run must realize the seed-identical graph")
	}

	st := m2.StatsSnapshot()
	if st.RecoveredTerminal != 1 || st.RecoveredRequeued != 1 {
		t.Fatalf("recovery counters wrong: %+v", st)
	}
	if !st.Store.Durable {
		t.Fatal("file-backed manager must report a durable store")
	}
}

// TestFailedAndCanceledOutcomesSurviveRestart: non-done terminal states are
// persisted too — their error strings included.
func TestFailedAndCanceledOutcomesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	m1 := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: openFileStore(t, dir)})
	failed, err := m1.Submit(graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: []int{3, 3, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, failed.ID, jobs.StateFailed)
	closeNow(t, m1)

	m2 := openManager(t, jobs.Config{Backend: instantBackend(), Store: openFileStore(t, dir)})
	defer closeNow(t, m2)
	got, err := m2.Get(failed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateFailed || !got.Recovered || got.Err == nil {
		t.Fatalf("failed outcome must survive restart with its cause: %+v", got)
	}
	if got.Err.Error() == "" {
		t.Fatal("recovered failure must carry the error string")
	}
}

// TestInMemoryManagerSurvivesNothing pins the default: without a Store,
// restarting means starting empty (the pre-persistence behaviour).
func TestInMemoryManagerSurvivesNothing(t *testing.T) {
	m1 := openManager(t, jobs.Config{Backend: instantBackend()})
	snap, err := m1.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, snap.ID, jobs.StateDone)
	closeNow(t, m1)

	m2 := openManager(t, jobs.Config{Backend: instantBackend()})
	defer closeNow(t, m2)
	if _, err := m2.Get(snap.ID); !errors.Is(err, jobs.ErrNotFound) {
		t.Fatalf("in-memory jobs must not survive, got %v", err)
	}
	if st := m2.StatsSnapshot(); st.Store.Durable || st.RecoveredTerminal != 0 {
		t.Fatalf("in-memory manager must report a non-durable empty store: %+v", st)
	}
}

// TestGCCompactsDiskStore: the two-phase TTL GC physically shrinks the
// on-disk store, so a restart after GC recovers nothing.
func TestGCCompactsDiskStore(t *testing.T) {
	dir := t.TempDir()
	m1 := openManager(t, jobs.Config{Backend: instantBackend(), Store: openFileStore(t, dir), Retention: time.Minute})
	snap, err := m1.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, snap.ID, jobs.StateDone)
	m1.GC(time.Now().Add(2 * time.Minute)) // phase one: expired
	m1.GC(time.Now().Add(4 * time.Minute)) // phase two: removed + compacted
	if st := m1.StatsSnapshot(); st.Store.Compactions == 0 {
		t.Fatalf("GC removal must compact the store: %+v", st.Store)
	}
	closeNow(t, m1)

	// The snapshot now holds the (empty) live set and the WAL is truncated.
	fs2 := openFileStore(t, dir)
	recovered, err := fs2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("GC'd jobs must be gone from disk, recovered %d", len(recovered))
	}
	fs2.Close()
}

// TestExpiredJobSurvivesAsExpired: phase-one jobs are still queryable after
// a restart, and the next sweep removes them.
func TestExpiredJobSurvivesAsExpired(t *testing.T) {
	dir := t.TempDir()
	m1 := openManager(t, jobs.Config{Backend: instantBackend(), Store: openFileStore(t, dir), Retention: time.Minute})
	snap, err := m1.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, snap.ID, jobs.StateDone)
	m1.GC(time.Now().Add(2 * time.Minute))
	closeNow(t, m1)

	m2 := openManager(t, jobs.Config{Backend: instantBackend(), Store: openFileStore(t, dir), Retention: time.Minute})
	defer closeNow(t, m2)
	got, err := m2.Get(snap.ID)
	if err != nil || got.State != jobs.StateExpired {
		t.Fatalf("expired job must still be queryable after restart, got %+v err %v", got, err)
	}
	if m2.GC(time.Now().Add(4*time.Minute)) != 1 {
		t.Fatal("restarted GC must remove the recovered expired job")
	}
}

// TestCorruptWALTailToleratedOnOpen: garbage appended to the WAL (a torn
// write at crash time) is dropped and counted, and everything before it is
// recovered.
func TestCorruptWALTailToleratedOnOpen(t *testing.T) {
	dir := t.TempDir()
	cs := &crashStore{Store: openFileStore(t, dir)}
	m1 := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: cs})
	snap, err := m1.Submit(job(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, snap.ID, jobs.StateDone)
	cs.crashed.Store(true) // skip Close's compaction: keep records in the WAL
	crashClose(m1)

	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef torn-half-record"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs2 := openFileStore(t, dir)
	if st := fs2.Stats(); st.ReplayErrors == 0 {
		t.Fatalf("dropped tail must be counted: %+v", st)
	}
	m2 := openManager(t, jobs.Config{Backend: instantBackend(), Store: fs2})
	defer closeNow(t, m2)
	got, err := m2.Get(snap.ID)
	if err != nil || got.State != jobs.StateDone || got.Result == nil {
		t.Fatalf("records before the torn tail must recover, got %+v err %v", got, err)
	}
}

// TestCompactionTriggersOnWALGrowth: a job whose sequence is 2 MiB of JSON
// is logged twice, at submission and at its end, which grows the WAL past
// its 4 MiB bound, so compaction runs without GC.
func TestCompactionTriggersOnWALGrowth(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, jobs.Config{Backend: instantBackend(), Store: openFileStore(t, dir)})
	defer closeNow(t, m)
	big := job(1)
	big.Seq = make([]int, 1<<20)
	snap, err := m.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobs.StateDone)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.StatsSnapshot().Store.Compactions > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("WAL growth past 4 MiB must trigger compaction: %+v", m.StatsSnapshot().Store)
}

// TestIDSequenceContinuesAfterRecovery: freshly minted IDs must not reuse
// the numeric prefixes of recovered ones.
func TestIDSequenceContinuesAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	m1 := openManager(t, jobs.Config{Backend: instantBackend(), Store: openFileStore(t, dir)})
	var lastID string
	for i := 0; i < 3; i++ {
		snap, err := m1.Submit(job(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		lastID = snap.ID
		waitState(t, m1, snap.ID, jobs.StateDone)
	}
	closeNow(t, m1)

	m2 := openManager(t, jobs.Config{Backend: instantBackend(), Store: openFileStore(t, dir)})
	defer closeNow(t, m2)
	fresh, err := m2.Submit(job(9))
	if err != nil {
		t.Fatal(err)
	}
	// IDs are "j<seq>-<hex>": the restarted sequence must continue past the
	// recovered maximum, not restart at 1.
	if seqOf(t, fresh.ID) <= seqOf(t, lastID) {
		t.Fatalf("fresh ID %s does not continue past recovered %s", fresh.ID, lastID)
	}
	if _, err := m2.Get(lastID); err != nil {
		t.Fatalf("recovered job %s must coexist with fresh submissions: %v", lastID, err)
	}
}

// seqOf parses the numeric sequence prefix of a job ID.
func seqOf(t *testing.T, id string) int64 {
	t.Helper()
	head, _, _ := strings.Cut(id, "-")
	n, err := strconv.ParseInt(strings.TrimPrefix(head, "j"), 10, 64)
	if err != nil {
		t.Fatalf("unparseable job ID %q: %v", id, err)
	}
	return n
}

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

// TestJSONEraDirRecoversAndConverts opens a copy of a data directory written
// by the pre-wire code (the committed testdata/jsonera fixture). This build
// reads no JSON edge list, so the done job recovers as failed with an error
// naming graph_wire, the failed job keeps its own error, the open-time
// compaction leaves no "edges" on disk, and the verdict survives a reopen.
func TestJSONEraDirRecoversAndConverts(t *testing.T) {
	dir := copyFixture(t, "jsonera")
	m := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: openFileStore(t, dir)})

	done := waitStateFor(t, m, "j1-00000000a1b2", jobs.StateFailed, 5*time.Second)
	if !done.Recovered || done.Result != nil || done.Err == nil || !strings.Contains(done.Err.Error(), "graph_wire") {
		t.Fatalf("JSON-era done job recovered as %+v, want failed naming graph_wire", done)
	}
	failed := waitStateFor(t, m, "j2-00000000c3d4", jobs.StateFailed, 5*time.Second)
	if failed.Err == nil || failed.Err.Error() != "degree sequence is not graphic" {
		t.Fatalf("JSON-era failed job error = %v", failed.Err)
	}
	if err := m.Close(t.Context()); err != nil {
		t.Fatal(err)
	}

	if bytes.Contains(readStoreBytes(t, dir), []byte(`"edges"`)) {
		t.Fatal("compacted store still carries a JSON-era edges field")
	}
	m2 := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: openFileStore(t, dir)})
	defer crashClose(m2)
	again := waitStateFor(t, m2, "j1-00000000a1b2", jobs.StateFailed, 5*time.Second)
	if again.Err == nil || again.Err.Error() != done.Err.Error() {
		t.Fatalf("reopened JSON-era job error = %v, want %v", again.Err, done.Err)
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

// recoverFailed logs a done degrees job on seq whose stored result is res,
// reopens the data directory under a Manager, and returns the job once it
// has surfaced as failed. It must carry an error and no result.
func recoverFailed(t *testing.T, seq []int, res *jobs.PersistedResult) jobs.Snapshot {
	t.Helper()
	dir := t.TempDir()
	st := openFileStore(t, dir)
	pj := jobs.PersistedJob{
		ID:      "j1-deadbeef0000",
		Kind:    int(graphrealize.JobDegrees),
		Seq:     seq,
		State:   jobs.StateDone,
		Created: time.Now(),
		Result:  res,
	}
	if err := st.LogTerminal(pj); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	m := openManager(t, jobs.Config{Backend: graphrealize.NewRunner(2), Store: openFileStore(t, dir)})
	t.Cleanup(func() { crashClose(m) })
	snap := waitStateFor(t, m, pj.ID, jobs.StateFailed, 5*time.Second)
	if snap.Err == nil {
		t.Fatal("damaged result surfaced without an error")
	}
	if snap.Result != nil {
		t.Fatalf("damaged result still served: %v", snap.Result.Graph.Adj)
	}
	return snap
}

// TestCorruptGraphWireSurfacesAsFailure: a terminal record whose embedded
// stream no longer decodes (out-of-band damage past the WAL checksum) must
// surface as a failed job naming the loss — never a done job with a wrong
// graph, and never a dropped job.
func TestCorruptGraphWireSurfacesAsFailure(t *testing.T) {
	recoverFailed(t, []int{0, 0}, &jobs.PersistedResult{N: 2, GraphWire: []byte("GRWF\x01 not a stream")})
}

// TestUnverifiedDoneRecordSurfacesAsFailure: recovery checks every done
// record with Result.Verify, so a stored graph that decodes but does not
// realize its job — a path where [2,2,2] asks for a triangle — and a done
// record without a result surface as failed jobs that name the cause.
func TestUnverifiedDoneRecordSurfacesAsFailure(t *testing.T) {
	path, err := wire.EncodeGraph(3, [][]int{{1}, {0, 2}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		res  *jobs.PersistedResult
		want string
	}{
		{"missing-edge", &jobs.PersistedResult{N: 3, GraphWire: path}, "deg(0) = 1, want 2"},
		{"no-result", nil, "lacks its stats or a graph"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := recoverFailed(t, []int{2, 2, 2}, tc.res)
			if !strings.Contains(snap.Err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", snap.Err, tc.want)
			}
		})
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
	adj := [][]int{{1, 2, 3}, {0, 2}, {0, 1}, {0}}
	gw, err := wire.EncodeGraph(4, adj)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := `{"format":1,"wal_seq":1,"saved_at":"2026-09-01T00:00:00Z","jobs":[` +
		`{"id":"j1-0000000000a1","kind":0,"seq":[3,2,2,1],"options":{"seed":7,"scheduler":2},"state":"done",` +
		`"created":"2026-09-01T00:00:00Z","finished":"2026-09-01T00:00:01Z",` +
		`"result":{"n":4,"graph_wire":"` + base64.StdEncoding.EncodeToString(gw) + `","stats":{"Rounds":3}}}]}`
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
	if done.Result == nil || !reflect.DeepEqual(done.Result.Graph.Adj, adj) {
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
