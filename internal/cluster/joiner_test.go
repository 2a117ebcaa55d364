package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"graphrealize"
)

// fakeCoordinator is a minimal /cluster/v1 control plane: a real Registry
// behind the two worker-facing endpoints, with a switch to simulate a
// coordinator restart (fresh empty registry → heartbeats answer 404).
type fakeCoordinator struct {
	mu  sync.Mutex
	reg *Registry
}

func (c *fakeCoordinator) registry() *Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg
}

func (c *fakeCoordinator) restart() {
	c.mu.Lock()
	c.reg = NewRegistry(RegistryConfig{SuspectAfter: time.Minute})
	c.mu.Unlock()
}

func (c *fakeCoordinator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.registry().Register(req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = json.NewEncoder(w).Encode(RegisterResponse{OK: true})
	})
	mux.HandleFunc("POST /cluster/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.registry().Heartbeat(req.Name, req.Load); err != nil {
			// 404 is the §2.3 re-register signal.
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		_ = json.NewEncoder(w).Encode(HeartbeatResponse{OK: true})
	})
	return mux
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestJoinerLifecycle drives a worker join loop against a live control
// plane: it registers (CLUSTER.md §2.1), heartbeats its Runner load on the
// configured interval (§2.2, §3.1), and after a simulated coordinator
// restart recovers through the 404 → re-register path (§2.3) without
// operator intervention.
func TestJoinerLifecycle(t *testing.T) {
	coord := &fakeCoordinator{reg: NewRegistry(RegistryConfig{SuspectAfter: time.Minute})}
	srv := httptest.NewServer(coord.handler())
	defer srv.Close()

	jn, err := NewJoiner(JoinConfig{
		Coordinator: srv.URL,
		Name:        "w1",
		Advertise:   "http://127.0.0.1:8101",
		Capacity:    4,
		Interval:    10 * time.Millisecond,
		Stats:       func() graphrealize.RunnerStats { return graphrealize.RunnerStats{Workers: 4, Executed: 17} },
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); jn.Run(ctx) }()

	// Registration lands, then heartbeats carry the worker's load (§2.2).
	waitFor(t, "registration", func() bool {
		return len(coord.registry().Routable()) == 1
	})
	waitFor(t, "a heartbeat with load", func() bool {
		snap := coord.registry().Snapshot()
		return len(snap) == 1 && snap[0].Load.Executed == 17
	})
	if addr, ok := coord.registry().Addr("w1"); !ok || addr != "http://127.0.0.1:8101" {
		t.Fatalf("registered addr = %q/%v", addr, ok)
	}

	// Coordinator restart: the registry starts empty, heartbeats answer 404,
	// and the joiner re-registers on its own (§2.3).
	coord.restart()
	waitFor(t, "re-registration after coordinator restart", func() bool {
		return len(coord.registry().Routable()) == 1
	})
	if got := coord.registry().Counters().Registrations; got != 1 {
		t.Fatalf("registrations on restarted registry = %d, want 1", got)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("joiner did not stop on context cancellation")
	}
}

// TestJoinerConfigValidation: the three identity fields are required, and
// the advertised URL and capacity must pass the coordinator's §2.1 check.
func TestJoinerConfigValidation(t *testing.T) {
	for _, cfg := range []JoinConfig{
		{Name: "w1", Advertise: "http://x"},
		{Coordinator: "http://c", Advertise: "http://x"},
		{Coordinator: "http://c", Name: "w1"},
		{Coordinator: "http://c", Name: "w1", Advertise: "127.0.0.1:8101"},
		{Coordinator: "http://c", Name: "w1", Advertise: "http://x", Capacity: -1},
	} {
		if _, err := NewJoiner(cfg); err == nil {
			t.Fatalf("NewJoiner(%+v) accepted an incomplete config", cfg)
		}
	}
}
