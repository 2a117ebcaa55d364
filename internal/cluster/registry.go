package cluster

import (
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// State is a registered worker's liveness state, derived from heartbeat
// recency (CLUSTER.md §3). The state machine is alive → suspect → dead:
// silence longer than SuspectAfter makes a worker suspect (still routable),
// silence longer than DeadAfter makes it dead (unroutable), and silence
// longer than 5×DeadAfter removes the record entirely, after which the
// worker must re-register.
type State string

const (
	StateAlive   State = "alive"
	StateSuspect State = "suspect"
	StateDead    State = "dead"
)

// ErrUnknownWorker reports a heartbeat from a worker the registry does not
// hold — never registered, or expired. The coordinator answers 404 and the
// worker re-registers (CLUSTER.md §2.3).
var ErrUnknownWorker = errors.New("cluster: unknown worker (register first)")

// RegistryConfig tunes the liveness state machine (CLUSTER.md §3). The zero
// value selects the defaults.
type RegistryConfig struct {
	// SuspectAfter is the heartbeat silence after which a worker turns
	// suspect (default 3s). Suspect workers stay routable.
	SuspectAfter time.Duration
	// DeadAfter is the heartbeat silence after which a worker turns dead and
	// leaves the routing set (default 10s). Must exceed SuspectAfter. After
	// 5×DeadAfter of silence the record is removed entirely.
	DeadAfter time.Duration
}

func (c RegistryConfig) norm() RegistryConfig {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * time.Second
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = max(10*time.Second, 2*c.SuspectAfter)
	}
	return c
}

// member is one registered worker's mutable record.
type member struct {
	info RegisterRequest
	load WorkerLoad
	last time.Time // last register or heartbeat
	// failed marks a worker the proxy observed down (transport error or
	// 502/503) before the heartbeat timeouts noticed: it is treated as dead
	// immediately (CLUSTER.md §6.1) until a fresh register or heartbeat
	// proves it back.
	failed bool
}

// Member is a routable worker: its stable name (the hashing identity,
// CLUSTER.md §4) and base URL.
type Member struct {
	Name string
	Addr string
}

// Registry is the coordinator's worker table. All methods are safe for
// concurrent use; liveness states are derived from heartbeat timestamps at
// read time, so the registry needs no background goroutine.
type Registry struct {
	cfg RegistryConfig
	now func() time.Time // test seam

	mu      sync.Mutex
	members map[string]*member

	registrations atomic.Int64
	heartbeats    atomic.Int64
	failovers     atomic.Int64
	expired       atomic.Int64
}

// NewRegistry creates an empty Registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	return &Registry{
		cfg:     cfg.norm(),
		now:     time.Now,
		members: make(map[string]*member),
	}
}

// validate is Register's check (CLUSTER.md §2.1); an addr must take the
// request paths the proxy appends to it.
func (req RegisterRequest) validate() error {
	if req.Name == "" {
		return errors.New("cluster: register needs a name")
	}
	u, err := url.Parse(req.Addr)
	if err != nil || u.Scheme != "http" && u.Scheme != "https" || u.Hostname() == "" ||
		u.User != nil || u.Path != "" || strings.ContainsAny(req.Addr, "?#") {
		return fmt.Errorf("cluster: addr %q is not an absolute http or https URL with a host and no path, query, fragment or user info", req.Addr)
	}
	if req.Capacity < 0 {
		return fmt.Errorf("cluster: capacity %d is negative", req.Capacity)
	}
	return nil
}

// Register adds or replaces a worker record and resets its liveness clock
// (CLUSTER.md §2.1). It rejects a request without a name, with an addr the
// proxy cannot reach, or with a negative capacity. Registration is
// idempotent and doubles as revival: a worker the proxy marked failed, or
// one that expired and re-announced, becomes alive again.
func (r *Registry) Register(req RegisterRequest) error {
	if err := req.validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked()
	r.members[req.Name] = &member{info: req, last: r.now()}
	r.registrations.Add(1)
	return nil
}

// Heartbeat refreshes a worker's liveness clock and load snapshot
// (CLUSTER.md §2.2). A heartbeat from an unregistered or expired worker
// returns ErrUnknownWorker; a heartbeat from a suspect, dead, or
// proxy-failed worker revives it to alive.
func (r *Registry) Heartbeat(name string, load WorkerLoad) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked()
	m, ok := r.members[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownWorker, name)
	}
	m.load = load
	m.last = r.now()
	m.failed = false
	r.heartbeats.Add(1)
	return nil
}

// ReportFailure marks a worker dead on the proxy's evidence — a transport
// error or a 502/503 — without waiting for the heartbeat timeouts
// (CLUSTER.md §6.1), and counts one failover. The next successful heartbeat
// or registration revives it.
func (r *Registry) ReportFailure(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[name]; ok && !m.failed {
		m.failed = true
		r.failovers.Add(1)
	}
}

// stateOf derives a member's state from its liveness clock (CLUSTER.md §3).
func (r *Registry) stateOf(m *member, now time.Time) State {
	if m.failed {
		return StateDead
	}
	silence := now.Sub(m.last)
	switch {
	case silence < r.cfg.SuspectAfter:
		return StateAlive
	case silence < r.cfg.DeadAfter:
		return StateSuspect
	default:
		return StateDead
	}
}

// expireLocked removes members silent past 5×DeadAfter. Called under mu by
// every mutating entry point, so abandoned records cannot accumulate.
func (r *Registry) expireLocked() {
	now := r.now()
	for name, m := range r.members {
		if now.Sub(m.last) >= 5*r.cfg.DeadAfter {
			delete(r.members, name)
			r.expired.Add(1)
		}
	}
}

// Routable returns the current routing set — every alive or suspect member
// (CLUSTER.md §4.1: suspect workers keep their keys so a slow heartbeat
// does not reshuffle the cache shards) — sorted by name.
func (r *Registry) Routable() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]Member, 0, len(r.members))
	for _, m := range r.members {
		if r.stateOf(m, now) != StateDead {
			out = append(out, Member{Name: m.info.Name, Addr: m.info.Addr})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Addr resolves a member name to its base URL; false if the name is gone.
func (r *Registry) Addr(name string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[name]
	if !ok {
		return "", false
	}
	return m.info.Addr, true
}

// Snapshot reports every registered member — including dead ones awaiting
// expiry — sorted by name, for /v1/stats and /cluster/v1/workers
// (CLUSTER.md §7).
func (r *Registry) Snapshot() []WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked()
	now := r.now()
	out := make([]WorkerStatus, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, WorkerStatus{
			Name:      m.info.Name,
			Addr:      m.info.Addr,
			Capacity:  m.info.Capacity,
			State:     string(r.stateOf(m, now)),
			Load:      m.load,
			SilenceMS: float64(now.Sub(m.last).Microseconds()) / 1000,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counters is the registry's monotonic event counters (CLUSTER.md §7).
type Counters struct {
	Registrations int64 // register calls accepted
	Heartbeats    int64 // heartbeats accepted
	Failovers     int64 // workers marked dead on proxy evidence
	Expired       int64 // member records removed by liveness expiry
}

// Counters returns a snapshot of the registry's event counters.
func (r *Registry) Counters() Counters {
	return Counters{
		Registrations: r.registrations.Load(),
		Heartbeats:    r.heartbeats.Load(),
		Failovers:     r.failovers.Load(),
		Expired:       r.expired.Load(),
	}
}
