package cluster

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the registry's read-time liveness derivation without
// sleeping: tests advance it across the CLUSTER.md §3 thresholds.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestRegistry(cfg RegistryConfig) (*Registry, *fakeClock) {
	r := NewRegistry(cfg)
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	r.now = clk.now
	return r, clk
}

func stateOfName(t *testing.T, r *Registry, name string) string {
	t.Helper()
	for _, ws := range r.Snapshot() {
		if ws.Name == name {
			return ws.State
		}
	}
	return "<gone>"
}

// TestRegistryLivenessStateMachine walks one worker through the full
// CLUSTER.md §3 lifecycle: alive → suspect → dead → expired, with the
// routing-set membership rule of §4.1 (suspect stays routable, dead does
// not) checked at each step.
func TestRegistryLivenessStateMachine(t *testing.T) {
	cfg := RegistryConfig{SuspectAfter: 3 * time.Second, DeadAfter: 10 * time.Second, ExpireAfter: 50 * time.Second}
	r, clk := newTestRegistry(cfg)
	if err := r.Register(RegisterRequest{Name: "w1", Addr: "http://w1", Capacity: 4}); err != nil {
		t.Fatal(err)
	}

	if got := stateOfName(t, r, "w1"); got != string(StateAlive) {
		t.Fatalf("fresh worker state = %s, want alive", got)
	}
	if len(r.Routable()) != 1 {
		t.Fatal("fresh worker not routable")
	}

	// Just under SuspectAfter: still alive (§3).
	clk.advance(cfg.SuspectAfter - time.Millisecond)
	if got := stateOfName(t, r, "w1"); got != string(StateAlive) {
		t.Fatalf("state before SuspectAfter = %s, want alive", got)
	}

	// Cross SuspectAfter: suspect, and still in the routing set (§4.1).
	clk.advance(2 * time.Millisecond)
	if got := stateOfName(t, r, "w1"); got != string(StateSuspect) {
		t.Fatalf("state after SuspectAfter = %s, want suspect", got)
	}
	if len(r.Routable()) != 1 {
		t.Fatal("suspect worker dropped from routing set; §4.1 says it keeps its keys")
	}

	// Cross DeadAfter: dead and unroutable (§3).
	clk.advance(cfg.DeadAfter)
	if got := stateOfName(t, r, "w1"); got != string(StateDead) {
		t.Fatalf("state after DeadAfter = %s, want dead", got)
	}
	if len(r.Routable()) != 0 {
		t.Fatal("dead worker still routable")
	}
	// Dead-but-not-expired workers stay visible for operators (§7.1).
	if len(r.Snapshot()) != 1 {
		t.Fatal("dead worker missing from snapshot before expiry")
	}

	// A heartbeat revives a dead worker straight to alive (§2.2).
	if err := r.Heartbeat("w1", WorkerLoad{Active: 1}); err != nil {
		t.Fatalf("heartbeat on dead worker: %v", err)
	}
	if got := stateOfName(t, r, "w1"); got != string(StateAlive) {
		t.Fatalf("state after revival heartbeat = %s, want alive", got)
	}

	// Silence past ExpireAfter removes the record; the next heartbeat is
	// ErrUnknownWorker, which the joiner turns into re-registration (§2.3).
	clk.advance(cfg.ExpireAfter)
	if got := stateOfName(t, r, "w1"); got != "<gone>" {
		t.Fatalf("state after ExpireAfter = %s, want record removed", got)
	}
	if err := r.Heartbeat("w1", WorkerLoad{}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("heartbeat after expiry = %v, want ErrUnknownWorker (CLUSTER.md §2.3)", err)
	}
	if got := r.Counters().Expired; got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}

	// Re-registration resurrects it (§2.1).
	if err := r.Register(RegisterRequest{Name: "w1", Addr: "http://w1-new"}); err != nil {
		t.Fatal(err)
	}
	if addr, ok := r.Addr("w1"); !ok || addr != "http://w1-new" {
		t.Fatalf("addr after re-register = %q/%v", addr, ok)
	}
}

// TestRegistryRegisterValidation holds Register to §2.1: a name, an addr
// the proxy can append a request path to (an absolute http or https URL
// with a host and no path, query, fragment or user info) and a capacity
// that is not negative. Each rejection names its field.
func TestRegistryRegisterValidation(t *testing.T) {
	r, _ := newTestRegistry(RegistryConfig{})
	accepted := int64(0)
	for _, c := range []struct {
		req  RegisterRequest
		want string // "" when accepted, else a substring of the error
	}{
		{RegisterRequest{Name: "w1", Addr: "http://w1"}, ""},
		{RegisterRequest{Name: "w1", Addr: "http://127.0.0.1:8101", Capacity: 4}, ""},
		{RegisterRequest{Name: "w1", Addr: "https://w1.example:8443"}, ""},
		{RegisterRequest{Name: "w1", Addr: "http://[::1]:8101"}, ""},
		{RegisterRequest{Name: "", Addr: "http://x"}, "name"},
		{RegisterRequest{Name: "w1", Addr: ""}, "addr"},
		{RegisterRequest{Name: "w1", Addr: "not a url"}, "addr"},
		{RegisterRequest{Name: "w1", Addr: "127.0.0.1:8101"}, "addr"},
		{RegisterRequest{Name: "w1", Addr: "ftp://w1"}, "addr"},
		{RegisterRequest{Name: "w1", Addr: "http://:8101"}, "addr"},
		{RegisterRequest{Name: "w1", Addr: "http://w1/"}, "addr"},
		{RegisterRequest{Name: "w1", Addr: "http://w1/api"}, "addr"},
		{RegisterRequest{Name: "w1", Addr: "http://w1?"}, "addr"},
		{RegisterRequest{Name: "w1", Addr: "http://w1?x=1"}, "addr"},
		{RegisterRequest{Name: "w1", Addr: "http://w1#"}, "addr"},
		{RegisterRequest{Name: "w1", Addr: "http://user@w1"}, "addr"},
		{RegisterRequest{Name: "w1", Addr: "http://w1", Capacity: -1}, "capacity"},
	} {
		err := r.Register(c.req)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: %v", c.req, err)
		case c.want == "":
			accepted++
		case err == nil || !strings.Contains(err.Error(), c.want):
			t.Errorf("%+v: error %v, want one naming %s", c.req, err, c.want)
		}
	}
	if got := r.Counters().Registrations; got != accepted {
		t.Fatalf("%d registrations counted, %d accepted", got, accepted)
	}
}

// TestRegistryReportFailure: proxy evidence kills a worker immediately —
// no waiting for DeadAfter — and a heartbeat revives it (CLUSTER.md §6.1).
// Repeated reports count one failover until the worker comes back.
func TestRegistryReportFailure(t *testing.T) {
	r, _ := newTestRegistry(RegistryConfig{})
	if err := r.Register(RegisterRequest{Name: "w1", Addr: "http://w1"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(RegisterRequest{Name: "w2", Addr: "http://w2"}); err != nil {
		t.Fatal(err)
	}

	r.ReportFailure("w1")
	if got := stateOfName(t, r, "w1"); got != string(StateDead) {
		t.Fatalf("state after ReportFailure = %s, want dead (CLUSTER.md §6.1)", got)
	}
	routable := r.Routable()
	if len(routable) != 1 || routable[0].Name != "w2" {
		t.Fatalf("routing set after failure = %v, want [w2]", routable)
	}

	// Duplicate evidence is one failover event.
	r.ReportFailure("w1")
	r.ReportFailure("no-such-worker") // unknown names are ignored
	if got := r.Counters().Failovers; got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}

	// Heartbeat revives (§2.2), and fresh evidence counts a new failover.
	if err := r.Heartbeat("w1", WorkerLoad{}); err != nil {
		t.Fatal(err)
	}
	if got := stateOfName(t, r, "w1"); got != string(StateAlive) {
		t.Fatalf("state after revival = %s, want alive", got)
	}
	r.ReportFailure("w1")
	if got := r.Counters().Failovers; got != 2 {
		t.Fatalf("failovers after revival+failure = %d, want 2", got)
	}
}

// TestRegistrySnapshotFields: the §7.1 member table carries load from the
// last heartbeat and a silence gauge that grows with the clock.
func TestRegistrySnapshotFields(t *testing.T) {
	cfg := RegistryConfig{SuspectAfter: 3 * time.Second, DeadAfter: 10 * time.Second, ExpireAfter: time.Hour}
	r, clk := newTestRegistry(cfg)
	if err := r.Register(RegisterRequest{Name: "w1", Addr: "http://w1", Capacity: 8}); err != nil {
		t.Fatal(err)
	}
	load := WorkerLoad{Workers: 8, Active: 2, Queued: 1, Executed: 40, CacheHits: 7, CacheLen: 12}
	if err := r.Heartbeat("w1", load); err != nil {
		t.Fatal(err)
	}
	clk.advance(1500 * time.Millisecond)

	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	ws := snap[0]
	if ws.Load != load {
		t.Fatalf("snapshot load = %+v, want %+v (CLUSTER.md §2.2)", ws.Load, load)
	}
	if ws.Capacity != 8 || ws.Addr != "http://w1" {
		t.Fatalf("snapshot identity fields wrong: %+v", ws)
	}
	if ws.SilenceMS < 1499 || ws.SilenceMS > 1501 {
		t.Fatalf("silence_ms = %v, want ≈1500", ws.SilenceMS)
	}
	c := r.Counters()
	if c.Registrations != 1 || c.Heartbeats != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestRegistryConfigNorm: zero config selects the documented §3.1 defaults,
// and inverted settings are repaired to keep SuspectAfter < DeadAfter <
// ExpireAfter.
func TestRegistryConfigNorm(t *testing.T) {
	def := RegistryConfig{}.norm()
	if def.SuspectAfter != 3*time.Second || def.DeadAfter != 10*time.Second || def.ExpireAfter != 50*time.Second {
		t.Fatalf("defaults = %+v", def)
	}
	inv := RegistryConfig{SuspectAfter: 20 * time.Second, DeadAfter: 5 * time.Second}.norm()
	if inv.DeadAfter <= inv.SuspectAfter || inv.ExpireAfter <= inv.DeadAfter {
		t.Fatalf("norm left thresholds unordered: %+v", inv)
	}
}

// TestRegistryConcurrent exercises the registry's mutators and readers
// concurrently; under -race (the Makefile race target includes this
// package) it proves the lock discipline around the shared member table.
func TestRegistryConcurrent(t *testing.T) {
	r, clk := newTestRegistry(RegistryConfig{SuspectAfter: time.Second, DeadAfter: 2 * time.Second, ExpireAfter: time.Hour})
	names := []string{"w1", "w2", "w3", "w4"}
	for _, n := range names {
		if err := r.Register(RegisterRequest{Name: n, Addr: "http://" + n}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for _, n := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = r.Heartbeat(name, WorkerLoad{Active: i})
				if i%50 == 0 {
					r.ReportFailure(name)
				}
			}
		}(n)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = r.Routable()
			_ = r.Snapshot()
			_ = r.Counters()
			if i%20 == 0 {
				clk.advance(10 * time.Millisecond)
			}
		}
	}()
	wg.Wait()

	// Every worker heartbeat last after any failure report it raced with;
	// end state must be a full routing set.
	for _, n := range names {
		if err := r.Heartbeat(n, WorkerLoad{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(r.Routable()); got != len(names) {
		t.Fatalf("routable after settling = %d, want %d", got, len(names))
	}
}
