package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"graphrealize"
	"graphrealize/internal/api"
)

// JoinConfig assembles a worker-side Joiner.
type JoinConfig struct {
	// Coordinator is the coordinator's base URL (grserved -join); required.
	Coordinator string
	// Name is the worker's stable cluster identity; required. Renaming a
	// worker moves its rendezvous shard (CLUSTER.md §4).
	Name string
	// Advertise is the base URL the coordinator reaches this worker at;
	// required.
	Advertise string
	// Capacity is the advertised worker-pool size (informational).
	Capacity int
	// Interval is the heartbeat period (default 1s). It must stay well
	// under the coordinator's SuspectAfter (CLUSTER.md §3.1 requires
	// SuspectAfter ≥ 2×Interval for a loss-free link to stay alive).
	Interval time.Duration
	// Stats, when non-nil, supplies the load snapshot each heartbeat
	// carries.
	Stats func() graphrealize.RunnerStats
	// Client issues coordinator requests (nil = http.DefaultClient).
	Client *http.Client
	// Logf, when non-nil, receives one line per state change.
	Logf func(format string, args ...any)
}

// Joiner is the worker half of the control plane: it registers with the
// coordinator and then heartbeats until its context ends, re-registering
// whenever the coordinator answers 404 — the recovery path for a
// coordinator restart or a liveness expiry (CLUSTER.md §2.3).
type Joiner struct {
	cfg JoinConfig
}

// NewJoiner validates the config and creates a Joiner. The name, Advertise
// and Capacity must pass the coordinator's own registration check, so a
// mistyped Advertise fails here rather than at the first proxied job.
func NewJoiner(cfg JoinConfig) (*Joiner, error) {
	if cfg.Coordinator == "" || cfg.Name == "" || cfg.Advertise == "" {
		return nil, fmt.Errorf("cluster: join needs coordinator, name, and advertise URLs (got %q, %q, %q)",
			cfg.Coordinator, cfg.Name, cfg.Advertise)
	}
	if err := (RegisterRequest{Name: cfg.Name, Addr: cfg.Advertise, Capacity: cfg.Capacity}).validate(); err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Joiner{cfg: cfg}, nil
}

// Run registers and heartbeats until ctx ends. Failures never abort the
// loop: an unreachable coordinator is retried every Interval, so a worker
// started before its coordinator joins as soon as the coordinator is up.
func (jn *Joiner) Run(ctx context.Context) {
	registered := false
	ticker := time.NewTicker(jn.cfg.Interval)
	defer ticker.Stop()
	for {
		if !registered {
			if err := jn.register(ctx); err != nil {
				jn.cfg.Logf("cluster: register with %s failed: %v (retrying)", jn.cfg.Coordinator, err)
			} else {
				jn.cfg.Logf("cluster: registered with %s as %s (%s)", jn.cfg.Coordinator, jn.cfg.Name, jn.cfg.Advertise)
				registered = true
			}
		}
		if registered {
			switch err := jn.heartbeat(ctx); {
			case err == nil:
			case ctx.Err() != nil:
				return
			default:
				jn.cfg.Logf("cluster: heartbeat failed: %v", err)
				var se statusError
				if ok := asStatusError(err, &se); ok && se.code == http.StatusNotFound {
					registered = false // expired or coordinator restarted: re-register
				}
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// statusError carries a coordinator HTTP status through the error chain.
type statusError struct {
	code int
	body string
}

func (e statusError) Error() string {
	return fmt.Sprintf("coordinator answered %d: %s", e.code, e.body)
}

func asStatusError(err error, out *statusError) bool {
	se, ok := err.(statusError)
	if ok {
		*out = se
	}
	return ok
}

func (jn *Joiner) register(ctx context.Context) error {
	return jn.post(ctx, "/cluster/v1/register", RegisterRequest{
		Name:     jn.cfg.Name,
		Addr:     jn.cfg.Advertise,
		Capacity: jn.cfg.Capacity,
	})
}

func (jn *Joiner) heartbeat(ctx context.Context) error {
	var load WorkerLoad
	if jn.cfg.Stats != nil {
		st := jn.cfg.Stats()
		load = WorkerLoad{
			Workers:   st.Workers,
			Active:    st.Active,
			Queued:    st.Queued,
			Executed:  st.Executed,
			CacheHits: st.CacheHits,
			CacheLen:  st.CacheLen,
		}
	}
	return jn.post(ctx, "/cluster/v1/heartbeat", HeartbeatRequest{Name: jn.cfg.Name, Load: load})
}

// post issues one control-plane request with a deadline bounded by the
// heartbeat interval, so a hung coordinator cannot stall the loop past one
// period.
func (jn *Joiner) post(ctx context.Context, path string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, jn.cfg.Interval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, jn.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := jn.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb api.ErrorResponse
		detail := resp.Status
		if err := json.NewDecoder(resp.Body).Decode(&eb); err == nil && eb.Error != "" {
			detail = eb.Error
		}
		return statusError{code: resp.StatusCode, body: detail}
	}
	return nil
}
