package cluster_test

// backend_test.go is the cluster integration test: real workers — stock
// serve.Server handlers over real Runners, exactly the processes CLUSTER.md
// §1 describes — behind httptest listeners, with a coordinator Backend
// routing to them over the actual JSON/graphwire data plane (CLUSTER.md §5).

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"graphrealize"
	"graphrealize/internal/cluster"
	"graphrealize/internal/jobs"
	"graphrealize/internal/serve"
)

// testWorker is one stock grserved worker under httptest.
type testWorker struct {
	name   string
	runner *graphrealize.Runner
	srv    *httptest.Server
}

// newTestCluster registers n real workers (w1..wn) into a fresh registry
// and returns a Backend routing over them.
func newTestCluster(t *testing.T, n int) (*cluster.Backend, []*testWorker) {
	t.Helper()
	reg := cluster.NewRegistry(cluster.RegistryConfig{
		SuspectAfter: time.Minute, // liveness driven by ReportFailure, not clocks
	})
	workers := make([]*testWorker, 0, n)
	for i := 0; i < n; i++ {
		runner := graphrealize.NewRunnerConfig(graphrealize.RunnerConfig{Workers: 2, Queue: -1})
		h := serve.New(serve.Config{Backend: runner, MaxN: 4096}).Handler()
		srv := httptest.NewServer(h)
		w := &testWorker{name: "w" + string(rune('0'+i+1)), runner: runner, srv: srv}
		t.Cleanup(srv.Close)
		if err := reg.Register(cluster.RegisterRequest{Name: w.name, Addr: srv.URL}); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	return cluster.NewBackend(cluster.BackendConfig{Registry: reg, Logf: t.Logf}), workers
}

func submit(t *testing.T, b *cluster.Backend, j graphrealize.Job) graphrealize.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ch, err := b.SubmitCtx(ctx, j)
	if err != nil {
		t.Fatalf("SubmitCtx: %v", err)
	}
	return <-ch
}

func sortedEdges(t *testing.T, g *graphrealize.Graph) [][2]int {
	t.Helper()
	if g == nil {
		t.Fatal("nil graph")
	}
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// TestBackendRoutingDeterminism: repeated submissions of one key land on one
// worker — proven from the outside by the second response arriving from that
// worker's result cache — while a different seed routes independently, and
// the proxied graph matches a local single-node run byte for byte
// (CLUSTER.md §1, §4.1, §5.3).
func TestBackendRoutingDeterminism(t *testing.T) {
	b, _ := newTestCluster(t, 3)
	job := graphrealize.Job{
		Kind: graphrealize.JobDegrees,
		Seq:  []int{3, 3, 2, 2, 1, 1},
		Opt:  &graphrealize.Options{Seed: 7},
	}

	first := submit(t, b, job)
	if first.Err != nil {
		t.Fatalf("first submit: %v", first.Err)
	}
	if first.Cached {
		t.Fatal("first submit reported cached")
	}
	second := submit(t, b, job)
	if second.Err != nil {
		t.Fatalf("second submit: %v", second.Err)
	}
	if !second.Cached {
		t.Fatal("second submit of the same key missed the owner's cache; routing is not deterministic (CLUSTER.md §4.1)")
	}
	if !reflect.DeepEqual(sortedEdges(t, first.Graph), sortedEdges(t, second.Graph)) {
		t.Fatal("cached result differs from first result")
	}

	// The proxied graph must equal a local run of the same job (§5.3: the
	// graph crosses as a graphwire graph section, rebuilt losslessly).
	local := graphrealize.NewRunner(2)
	ch, err := local.SubmitCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	ref := <-ch
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	if !reflect.DeepEqual(sortedEdges(t, ref.Graph), sortedEdges(t, first.Graph)) {
		t.Fatal("proxied graph differs from local run of the same job")
	}
	if first.Stats == nil || first.Stats.N != 6 {
		t.Fatalf("proxied stats not rebuilt: %+v", first.Stats)
	}

	// A different seed is a different key and may live on a different
	// worker; it must not hit seed 7's cache entry.
	other := submit(t, b, graphrealize.Job{
		Kind: graphrealize.JobDegrees,
		Seq:  []int{3, 3, 2, 2, 1, 1},
		Opt:  &graphrealize.Options{Seed: 8},
	})
	if other.Err != nil {
		t.Fatalf("seed-8 submit: %v", other.Err)
	}
	if other.Cached {
		t.Fatal("seed-8 submission reported cached; keys are colliding")
	}
}

// TestBackendFailoverByteIdentical kills the owning worker and checks the
// CLUSTER.md §6 contract end to end: the job re-routes to the old rank[1]
// (§6.1), the failed-over graph is byte-identical to a single-node run of
// the same seed (§6.5), and the registry/proxy counters record the event.
func TestBackendFailoverByteIdentical(t *testing.T) {
	b, workers := newTestCluster(t, 3)
	job := graphrealize.Job{
		Kind: graphrealize.JobDegrees,
		Seq:  []int{4, 3, 3, 2, 2, 1, 1},
		Opt:  &graphrealize.Options{Seed: 42},
	}

	// Reference run on a plain single-node Runner.
	local := graphrealize.NewRunner(2)
	ch, err := local.SubmitCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	ref := <-ch
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}

	// Kill the key's owner before the first submission.
	names := make([]string, len(workers))
	byName := make(map[string]*testWorker, len(workers))
	for i, w := range workers {
		names[i] = w.name
		byName[w.name] = w
	}
	rank := cluster.Rank(names, job.RouteKey())
	byName[rank[0]].srv.Close()

	res := submit(t, b, job)
	if res.Err != nil {
		t.Fatalf("failover submit: %v", res.Err)
	}
	if !reflect.DeepEqual(sortedEdges(t, ref.Graph), sortedEdges(t, res.Graph)) {
		t.Fatal("failed-over graph differs from single-node run; seed determinism broken (CLUSTER.md §6.5)")
	}

	// The dead owner is now marked dead and out of the routing set (§6.1);
	// the surviving pair must not include it.
	routable := b.Registry().Routable()
	if len(routable) != 2 {
		t.Fatalf("routing set after failover = %v, want the 2 survivors", routable)
	}
	for _, m := range routable {
		if m.Name == rank[0] {
			t.Fatalf("dead worker %s still routable", rank[0])
		}
	}
	if c := b.Registry().Counters(); c.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", c.Failovers)
	}
	if pc := b.ProxyCounters(); pc.ProxyErrors != 1 || pc.Proxied < 2 {
		t.Fatalf("proxy counters = %+v, want 1 error and ≥2 attempts", pc)
	}

	// The re-run landed on the old rank[1] — rendezvous' post-death owner
	// (§4.2) — so resubmitting now is a cache hit there.
	again := submit(t, b, job)
	if again.Err != nil || !again.Cached {
		t.Fatalf("resubmit after failover: err=%v cached=%v, want cache hit on the failover target", again.Err, again.Cached)
	}
}

// TestBackendBackpressureNoSpillover: a worker's 429 maps to ErrQueueFull
// and MUST NOT re-route — backpressure is per-shard (CLUSTER.md §6.2), so
// the saturated worker stays registered and routable.
func TestBackendBackpressureNoSpillover(t *testing.T) {
	reg := cluster.NewRegistry(cluster.RegistryConfig{SuspectAfter: time.Minute})
	full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"queue full: 1 queued"}`))
	}))
	defer full.Close()
	healthy := graphrealize.NewRunner(1)
	healthySrv := httptest.NewServer(serve.New(serve.Config{Backend: healthy}).Handler())
	defer healthySrv.Close()

	job := graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: []int{2, 1, 1}, Opt: &graphrealize.Options{Seed: 3}}
	// Name the saturated worker so it owns the key: give it the rank[0]
	// name for this key among two candidates.
	rank := cluster.Rank([]string{"w1", "w2"}, job.RouteKey())
	if err := reg.Register(cluster.RegisterRequest{Name: rank[0], Addr: full.URL}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(cluster.RegisterRequest{Name: rank[1], Addr: healthySrv.URL}); err != nil {
		t.Fatal(err)
	}
	b := cluster.NewBackend(cluster.BackendConfig{Registry: reg})

	res := submit(t, b, job)
	if !errors.Is(res.Err, graphrealize.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull passthrough (CLUSTER.md §5.5)", res.Err)
	}
	if got := len(reg.Routable()); got != 2 {
		t.Fatalf("routing set after 429 = %d workers, want 2: backpressure must not mark the worker dead (CLUSTER.md §6.2)", got)
	}
	if pc := b.ProxyCounters(); pc.Proxied != 1 || pc.ProxyErrors != 0 {
		t.Fatalf("proxy counters = %+v: a 429 must not count as a proxy error or retry", pc)
	}
}

// TestBackendDeterministicVerdicts: worker verdicts that are about the job,
// not the worker, come back under the root error vocabulary and do not
// trigger failover (CLUSTER.md §5.5).
func TestBackendDeterministicVerdicts(t *testing.T) {
	b, _ := newTestCluster(t, 2)
	// Odd degree sum: unrealizable on any worker.
	res := submit(t, b, graphrealize.Job{
		Kind: graphrealize.JobDegrees, Seq: []int{3, 1, 1}, Opt: &graphrealize.Options{Seed: 1},
	})
	if !errors.Is(res.Err, graphrealize.ErrUnrealizable) {
		t.Fatalf("odd-sum err = %v, want ErrUnrealizable", res.Err)
	}
	if pc := b.ProxyCounters(); pc.ProxyErrors != 0 {
		t.Fatalf("unrealizable verdict counted as proxy error: %+v", pc)
	}
	if got := len(b.Registry().Routable()); got != 2 {
		t.Fatalf("routing set after 422 = %d, want 2", got)
	}
}

// TestBackendNoWorkers: an empty routing set refuses admission with
// ErrNoWorkers for both single submissions and batches (CLUSTER.md §6.2).
func TestBackendNoWorkers(t *testing.T) {
	reg := cluster.NewRegistry(cluster.RegistryConfig{})
	b := cluster.NewBackend(cluster.BackendConfig{Registry: reg})
	job := graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: []int{2, 1, 1}}
	if _, err := b.SubmitCtx(context.Background(), job); !errors.Is(err, cluster.ErrNoWorkers) {
		t.Fatalf("SubmitCtx on empty cluster = %v, want ErrNoWorkers", err)
	}
	if _, err := b.SubmitAllCtx(context.Background(), []graphrealize.Job{job}); !errors.Is(err, cluster.ErrNoWorkers) {
		t.Fatalf("SubmitAllCtx on empty cluster = %v, want ErrNoWorkers", err)
	}
	if st := b.Stats(); st.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", st.Rejected)
	}
}

// TestBackendSweepFanout: a batch fans each seed out to that seed's owning
// worker and every row completes (CLUSTER.md §8.1); the aggregate Stats
// gauges then reflect the workers' heartbeat loads (§7.1).
func TestBackendSweepFanout(t *testing.T) {
	b, workers := newTestCluster(t, 3)
	jobs := make([]graphrealize.Job, 6)
	for i := range jobs {
		jobs[i] = graphrealize.Job{
			Kind: graphrealize.JobDegrees,
			Seq:  []int{3, 3, 2, 2, 1, 1},
			Opt:  &graphrealize.Options{Seed: int64(i + 1)},
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	chans, err := b.SubmitAllCtx(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatalf("sweep row %d: %v", i, res.Err)
		}
	}

	// Heartbeat each worker's true runner load into the registry, as the
	// join loop would, and check the coordinator-side aggregation (§7.1).
	var wantExecuted int64
	for _, w := range workers {
		st := w.runner.Stats()
		wantExecuted += st.Executed
		err := b.Registry().Heartbeat(w.name, cluster.WorkerLoad{
			Workers: st.Workers, Executed: st.Executed,
			CacheHits: st.CacheHits, CacheLen: st.CacheLen,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if wantExecuted != 6 {
		t.Fatalf("workers executed %d jobs in total, want 6 (sweep fanned out wrong)", wantExecuted)
	}
	agg := b.Stats()
	if agg.Workers != 6 { // 3 workers × pool of 2
		t.Fatalf("aggregate workers = %d, want 6", agg.Workers)
	}
	if agg.Submitted != 6 || agg.Completed != 6 {
		t.Fatalf("coordinator lifecycle counters = %+v", agg)
	}
}

// TestBackendTracePropagation: the proxied request carries the job's trace
// ID as X-Request-Id so coordinator and worker request logs correlate
// (CLUSTER.md §5.4).
func TestBackendTracePropagation(t *testing.T) {
	runner := graphrealize.NewRunner(1)
	inner := serve.New(serve.Config{Backend: runner}).Handler()
	var got string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get("X-Request-Id")
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := cluster.NewRegistry(cluster.RegistryConfig{SuspectAfter: time.Minute})
	if err := reg.Register(cluster.RegisterRequest{Name: "w1", Addr: srv.URL}); err != nil {
		t.Fatal(err)
	}
	b := cluster.NewBackend(cluster.BackendConfig{Registry: reg})
	res := submit(t, b, graphrealize.Job{
		Kind: graphrealize.JobDegrees, Seq: []int{2, 1, 1},
		Opt: &graphrealize.Options{Seed: 5}, TraceID: "trace-e2e-01",
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got != "trace-e2e-01" {
		t.Fatalf("worker saw X-Request-Id %q, want the job's trace ID (CLUSTER.md §5.4)", got)
	}
}

// TestBackendReportsDispatchAsRunning: a proxied job's progress hook fires
// once, with (0, 0), before the worker sees the request, so an async job
// submitted to a coordinator turns running while a worker executes it
// (CLUSTER.md §8.2).
func TestBackendReportsDispatchAsRunning(t *testing.T) {
	var calls, callsAtWorker atomic.Int32
	inner := serve.New(serve.Config{Backend: graphrealize.NewRunner(1)}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		callsAtWorker.Store(calls.Load())
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := cluster.NewRegistry(cluster.RegistryConfig{SuspectAfter: time.Minute})
	if err := reg.Register(cluster.RegisterRequest{Name: "w1", Addr: srv.URL}); err != nil {
		t.Fatal(err)
	}
	b := cluster.NewBackend(cluster.BackendConfig{Registry: reg})
	progress := func(round, msgs int) {
		if round != 0 || msgs != 0 {
			t.Errorf("progress(%d, %d), want (0, 0): rounds do not cross the hop", round, msgs)
		}
		calls.Add(1)
	}
	res := submit(t, b, graphrealize.Job{
		Kind: graphrealize.JobDegrees, Seq: []int{2, 1, 1},
		Opt: &graphrealize.Options{Seed: 5}, Progress: progress,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if calls.Load() != 1 || callsAtWorker.Load() != 1 {
		t.Fatalf("progress calls: %d in total, %d before the worker saw the request; want 1 and 1",
			calls.Load(), callsAtWorker.Load())
	}
}

// errClass names the error vocabulary a Result's error belongs to, the
// part of it that must survive the proxy hop.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, graphrealize.ErrUnrealizable):
		return "unrealizable"
	case errors.Is(err, graphrealize.ErrBadInput):
		return "bad input"
	}
	return err.Error()
}

// TestBackendProxiesEveryKindAndOption: every job kind under every
// outcome-affecting option crosses the proxy hop unchanged (CLUSTER.md
// §5.1, §5.2). The proxied Result equals a local Execute of the same Job —
// edges, stats, envelope and error class — and the owning worker's Runner
// then serves that Job from its cache, so the worker realized exactly the
// coordinator's cache key.
func TestBackendProxiesEveryKindAndOption(t *testing.T) {
	b, workers := newTestCluster(t, 2)
	byName := map[string]*testWorker{}
	var names []string
	for _, w := range workers {
		byName[w.name] = w
		names = append(names, w.name)
	}
	kinds := []struct {
		kind graphrealize.JobKind
		seq  []int
	}{
		{graphrealize.JobDegrees, []int{3, 3, 2, 2, 2, 2}},
		{graphrealize.JobDegreesExplicit, []int{3, 3, 2, 2, 2, 2}},
		{graphrealize.JobUpperEnvelope, []int{9, 1, 1, 1}},
		{graphrealize.JobChainTree, []int{3, 2, 2, 1, 1, 1}},
		{graphrealize.JobMinDiamTree, []int{3, 2, 2, 1, 1, 1}},
		{graphrealize.JobConnectivity, []int{2, 2, 2, 2, 1, 1}},
		// Deterministic failures cross as their class: unrealizable, and
		// (with strict, cap_mul 1 and merge sort) a capacity violation.
		{graphrealize.JobDegrees, []int{3, 3, 1, 1}},
		{graphrealize.JobDegrees, []int{2, 2, 2, 2, 2, 2, 2, 2}},
	}
	options := []*graphrealize.Options{
		nil,
		{Seed: 3},
		{Seed: 3, Model: graphrealize.NCC1},
		{Seed: 3, Sort: graphrealize.OddEvenSort},
		{Seed: 3, Sort: graphrealize.MergeSort},
		{Seed: 3, Strict: true},
		{Seed: 3, CapMul: 2},
		{Seed: 3, MaxRounds: 40},
		{Seed: 3, Strict: true, CapMul: 1, Sort: graphrealize.MergeSort},
	}
	ctx := context.Background()
	for _, k := range kinds {
		for _, o := range options {
			j := graphrealize.Job{Kind: k.kind, Seq: k.seq, Opt: o}
			label := j.RouteKey()
			want := graphrealize.Execute(ctx, j)
			got := submit(t, b, j)
			if errClass(got.Err) != errClass(want.Err) {
				t.Errorf("%s: proxied error %v, local %v", label, got.Err, want.Err)
				continue
			}
			if want.Err == nil {
				if !reflect.DeepEqual(sortedEdges(t, got.Graph), sortedEdges(t, want.Graph)) {
					t.Errorf("%s: proxied edges differ from the local run", label)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Errorf("%s: proxied stats %+v, local %+v", label, got.Stats, want.Stats)
				}
				if !reflect.DeepEqual(got.Envelope, want.Envelope) {
					t.Errorf("%s: proxied envelope %v, local %v", label, got.Envelope, want.Envelope)
				}
			}
			owner, _ := cluster.Owner(names, j.RouteKey())
			ch, err := byName[owner].runner.SubmitCtx(ctx, j)
			if err != nil {
				t.Fatal(err)
			}
			if res := <-ch; !res.Cached {
				t.Errorf("%s: owner %s does not hold the job in its cache; the worker decoded another key", label, owner)
			}
		}
	}
}

// TestCoordinatorRestartReplaysOnceWorkerRegisters: a restarted coordinator
// replays its journaled in-flight jobs before any worker has re-registered,
// because the registry lives in memory. The replay waits, queued, for the
// first worker instead of failing, then completes on the key's owner
// (CLUSTER.md §6.3) with the seed-identical graph.
func TestCoordinatorRestartReplaysOnceWorkerRegisters(t *testing.T) {
	dir := t.TempDir()
	job := graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: []int{3, 3, 2, 2, 2, 2}, Opt: &graphrealize.Options{Seed: 7}}
	store, err := jobs.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	queued := jobs.PersistedJob{
		ID: "j1-0a0b0c0d0e0f", Kind: int(job.Kind), Seq: job.Seq,
		Options: &jobs.PersistedOptions{Seed: 7}, State: jobs.StateQueued, Created: time.Now(),
	}
	if err := store.LogSubmitted(queued); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the coordinator reopens the store over an empty registry.
	reg := cluster.NewRegistry(cluster.RegistryConfig{SuspectAfter: time.Minute})
	b := cluster.NewBackend(cluster.BackendConfig{Registry: reg, Logf: t.Logf})
	store, err = jobs.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := jobs.Open(jobs.Config{Backend: b, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close(context.Background()) })

	time.Sleep(200 * time.Millisecond)
	if snap, err := m.Get(queued.ID); err != nil || snap.State != jobs.StateQueued {
		t.Fatalf("before any worker registers: snapshot %+v, err %v; want the replay still queued", snap, err)
	}
	worker := httptest.NewServer(serve.New(serve.Config{Backend: graphrealize.NewRunner(1)}).Handler())
	t.Cleanup(worker.Close)
	if err := reg.Register(cluster.RegisterRequest{Name: "w1", Addr: worker.URL}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	snap, _ := m.Get(queued.ID)
	for !snap.State.Terminal() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		snap, _ = m.Get(queued.ID)
	}
	if snap.State != jobs.StateDone {
		t.Fatalf("recovered job ended %s (%v), want done (CLUSTER.md §6.3)", snap.State, snap.Err)
	}
	ref := graphrealize.Execute(context.Background(), job)
	if !reflect.DeepEqual(sortedEdges(t, snap.Result.Graph), sortedEdges(t, ref.Graph)) {
		t.Fatal("replayed graph differs from a local run of the recorded seed")
	}
}
