package serve_test

// cluster_test.go exercises the coordinator's serving layer: the
// /cluster/v1 control plane (CLUSTER.md §2), the cluster object in
// /v1/stats and the graphrealize_cluster_* metrics families (§7), and the
// full coordinator→worker proxy path through the ordinary /v1 handlers.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphrealize"
	"graphrealize/internal/api"
	"graphrealize/internal/cluster"
	"graphrealize/internal/jobs"
	"graphrealize/internal/serve"
)

// coordinator builds a coordinator Server: a cluster Backend serving both
// as the execution backend and as Config.Cluster, exactly as cmd/grserved
// wires -coordinator.
func coordinator(t *testing.T) (*cluster.Backend, http.Handler) {
	t.Helper()
	reg := cluster.NewRegistry(cluster.RegistryConfig{SuspectAfter: time.Minute})
	b := cluster.NewBackend(cluster.BackendConfig{Registry: reg})
	s := serve.New(serve.Config{Backend: b, Cluster: b, MaxN: 1024})
	return b, s.Handler()
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestClusterControlPlane walks the CLUSTER.md §2 handshake over HTTP:
// register (§2.1), heartbeat with load (§2.2), the 404 that sends an
// unknown worker back to registration (§2.3), and the member listing.
func TestClusterControlPlane(t *testing.T) {
	_, h := coordinator(t)

	// Heartbeat before registering: 404, the §2.3 re-register signal.
	rec := post(t, h, "/cluster/v1/heartbeat", `{"name":"w1","load":{}}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("heartbeat before register: want 404 (CLUSTER.md §2.3), got %d: %s", rec.Code, rec.Body.String())
	}

	// Register requires a name and an addr the proxy can reach (§2.1).
	for _, body := range []string{`{"name":"w1"}`, `{"name":"w1","addr":"not a url","capacity":-1}`} {
		if rec = post(t, h, "/cluster/v1/register", body); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "addr") {
			t.Fatalf("register %s: want a 400 naming addr, got %d: %s", body, rec.Code, rec.Body)
		}
	}
	rec = post(t, h, "/cluster/v1/register", `{"name":"w1","addr":"http://127.0.0.1:9999","capacity":4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("register: want 200, got %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeInto[cluster.RegisterResponse](t, rec); !resp.OK {
		t.Fatal("register response not ok")
	}

	// Heartbeat now succeeds and carries load (§2.2).
	rec = post(t, h, "/cluster/v1/heartbeat", `{"name":"w1","load":{"workers":4,"active":1,"executed":9}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("heartbeat: want 200, got %d: %s", rec.Code, rec.Body.String())
	}

	// The member listing reflects identity, state, and the last load (§7.1).
	rec = get(t, h, "/cluster/v1/workers")
	if rec.Code != http.StatusOK {
		t.Fatalf("workers: want 200, got %d", rec.Code)
	}
	ws := decodeInto[cluster.WorkersResponse](t, rec)
	if len(ws.Workers) != 1 {
		t.Fatalf("workers = %+v, want 1 member", ws.Workers)
	}
	w := ws.Workers[0]
	if w.Name != "w1" || w.Capacity != 4 || w.State != string(cluster.StateAlive) || w.Load.Executed != 9 {
		t.Fatalf("member row = %+v", w)
	}
}

// TestClusterStatsAndMetrics: on a coordinator, /v1/stats grows the cluster
// object (CLUSTER.md §7.1) and /metrics exposes the graphrealize_cluster_*
// families with the state gauge's explicit zero rows (§7.2). On a single
// node both stay absent — the shapes are coordinator-only.
func TestClusterStatsAndMetrics(t *testing.T) {
	_, h := coordinator(t)
	if rec := post(t, h, "/cluster/v1/register", `{"name":"w1","addr":"http://127.0.0.1:9999"}`); rec.Code != http.StatusOK {
		t.Fatalf("register: %d", rec.Code)
	}

	rec := get(t, h, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: want 200, got %d", rec.Code)
	}
	st := decodeInto[serve.StatsResponse](t, rec)
	if st.Cluster == nil {
		t.Fatal("coordinator /v1/stats has no cluster object (CLUSTER.md §7.1)")
	}
	if st.Cluster.Alive != 1 || st.Cluster.Registrations != 1 || len(st.Cluster.Workers) != 1 {
		t.Fatalf("cluster stats = %+v", st.Cluster)
	}

	body := get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`graphrealize_cluster_workers{state="alive"} 1`,
		`graphrealize_cluster_workers{state="suspect"} 0`,
		`graphrealize_cluster_workers{state="dead"} 0`,
		"graphrealize_cluster_registrations_total 1",
		"graphrealize_cluster_heartbeats_total 0",
		"graphrealize_cluster_failovers_total 0",
		"graphrealize_cluster_expired_total 0",
		"graphrealize_cluster_proxied_total 0",
		"graphrealize_cluster_proxy_errors_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("coordinator /metrics missing %q (CLUSTER.md §7.2)", want)
		}
	}

	// A single node must expose neither shape.
	single := serve.New(serve.Config{Backend: graphrealize.NewRunner(1)}).Handler()
	if st := decodeInto[serve.StatsResponse](t, get(t, single, "/v1/stats")); st.Cluster != nil {
		t.Fatal("single-node /v1/stats grew a cluster object")
	}
	if body := get(t, single, "/metrics").Body.String(); strings.Contains(body, "graphrealize_cluster_") {
		t.Fatal("single-node /metrics exposes cluster families")
	}
	if rec := post(t, single, "/cluster/v1/register", `{"name":"w1","addr":"http://x"}`); rec.Code != http.StatusNotFound {
		t.Fatalf("single-node /cluster route: want 404, got %d", rec.Code)
	}
}

// TestCoordinatorProxiesRealize is the serving-layer slice of the data
// plane (CLUSTER.md §1, §5): a client's ordinary JSON request to the
// coordinator executes on a worker and comes back as an ordinary JSON
// response — the cluster is invisible to clients — and with no workers the
// coordinator answers 503 (§6.2).
func TestCoordinatorProxiesRealize(t *testing.T) {
	b, h := coordinator(t)

	// No workers yet: 503, not 429 — retrying won't help until a join (§6.2).
	rec := post(t, h, "/v1/realize/degree", `{"sequence":[3,3,2,2,2,2],"options":{"seed":7}}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no-workers realize: want 503 (CLUSTER.md §6.2), got %d: %s", rec.Code, rec.Body.String())
	}

	// Stand up one real worker and register it.
	worker := httptest.NewServer(serve.New(serve.Config{Backend: graphrealize.NewRunner(2), MaxN: 1024}).Handler())
	defer worker.Close()
	if err := b.Registry().Register(cluster.RegisterRequest{Name: "w1", Addr: worker.URL}); err != nil {
		t.Fatal(err)
	}

	rec = post(t, h, "/v1/realize/degree", `{"sequence":[3,3,2,2,2,2],"options":{"seed":7}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("proxied realize: want 200, got %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeInto[api.RealizeResponse](t, rec)
	if resp.N != 6 || resp.M != 7 || len(resp.Edges) != 7 {
		t.Fatalf("proxied realization: %+v", resp)
	}
	// Same request again: served from the worker's cache through the proxy.
	rec = post(t, h, "/v1/realize/degree", `{"sequence":[3,3,2,2,2,2],"options":{"seed":7}}`)
	if resp := decodeInto[api.RealizeResponse](t, rec); !resp.Cached {
		t.Fatal("repeat request through coordinator missed the worker cache")
	}

	// A worker-side deterministic verdict surfaces with the worker's own
	// status — the §5.5 mapping inverted back by the coordinator's serving
	// layer.
	rec = post(t, h, "/v1/realize/degree", `{"sequence":[3,1,1]}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unrealizable through proxy: want 422 (CLUSTER.md §5.5), got %d: %s", rec.Code, rec.Body.String())
	}
}

// TestCoordinatorNoWorkersIs503OnEveryRoute: with an empty routing set the
// realize, sweep and async jobs routes all answer 503 (CLUSTER.md §6.2,
// §8.1, §8.2); retrying helps only once a worker joins.
func TestCoordinatorNoWorkersIs503OnEveryRoute(t *testing.T) {
	reg := cluster.NewRegistry(cluster.RegistryConfig{SuspectAfter: time.Minute})
	b := cluster.NewBackend(cluster.BackendConfig{Registry: reg})
	m := openJobs(t, jobs.Config{Backend: b})
	t.Cleanup(func() { _ = m.Close(context.Background()) })
	h := serve.New(serve.Config{Backend: b, Cluster: b, Jobs: m}).Handler()
	for _, tc := range []struct{ path, body string }{
		{"/v1/realize/degree", `{"sequence":[3,3,2,2,2,2]}`},
		{"/v1/sweep", `{"kind":"degrees","sequence":[3,3,2,2,2,2],"seed_count":2}`},
		{"/v1/jobs", `{"kind":"degrees","sequence":[3,3,2,2,2,2]}`},
	} {
		if rec := post(t, h, tc.path, tc.body); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s with no workers: want 503 (CLUSTER.md §6.2), got %d: %s", tc.path, rec.Code, rec.Body.String())
		}
	}
}

// TestCoordinatorRelays429WithRetryAfter: a worker's backpressure crosses
// the coordinator as a 429 (CLUSTER.md §6.2) on the realize and sweep
// routes and, like every 429 the service sends, carries Retry-After.
func TestCoordinatorRelays429WithRetryAfter(t *testing.T) {
	b, h := coordinator(t)
	full := &fakeBackend{submit: func(context.Context, graphrealize.Job) (<-chan graphrealize.Result, error) {
		return nil, graphrealize.ErrQueueFull
	}}
	worker := httptest.NewServer(serve.New(serve.Config{Backend: full}).Handler())
	defer worker.Close()
	if err := b.Registry().Register(cluster.RegisterRequest{Name: "w1", Addr: worker.URL}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/realize/degree", `{"sequence":[3,3,2,2,2,2]}`},
		{"/v1/sweep", `{"kind":"degrees","sequence":[3,3,2,2,2,2],"seed_count":2}`},
	} {
		rec := post(t, h, tc.path, tc.body)
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s through a saturated worker: status %d, Retry-After %q; want 429 with a hint",
				tc.path, rec.Code, rec.Header().Get("Retry-After"))
		}
	}
}
