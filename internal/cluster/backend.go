package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"graphrealize"
	"graphrealize/internal/api"
	"graphrealize/internal/obs"
	"graphrealize/internal/wire"
)

// ErrNoWorkers reports that the routing set is empty — no worker is alive
// or suspect — or that every routable worker was tried and found down. The
// serving layer maps it to 503 (CLUSTER.md §6.2): unlike a 429, retrying
// helps only once a worker rejoins.
var ErrNoWorkers = errors.New("cluster: no routable workers")

// errWorkerDown classifies one proxy attempt as failover-eligible: the
// owning worker is unreachable or answered 502/503. Deterministic outcomes
// (realization errors, timeouts, backpressure) are never wrapped in it —
// re-routing those would re-run work for the same answer (CLUSTER.md §6.1).
var errWorkerDown = errors.New("cluster: worker down")

// BackendConfig assembles a Backend.
type BackendConfig struct {
	// Registry supplies the routing set; required.
	Registry *Registry
	// Client issues worker requests. Nil selects http.DefaultClient; job
	// deadlines ride on request contexts, not a client timeout.
	Client *http.Client
	// Logf, when non-nil, receives one line per failover decision.
	Logf func(format string, args ...any)
}

// Backend routes graphrealize jobs to their owning worker over the
// workers' synchronous /v1 API (CLUSTER.md §5). It implements the same
// Backend seams as *graphrealize.Runner — SubmitCtx, SubmitAllCtx,
// SubmitReplayCtx, Stats — so the unchanged serve.Server and jobs.Manager
// stack on top of it: the coordinator is an ordinary grserved whose
// "runner" happens to execute remotely.
type Backend struct {
	reg    *Registry
	client *http.Client
	logf   func(format string, args ...any)

	submitted atomic.Int64
	rejected  atomic.Int64
	executed  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	runNanos  atomic.Int64

	proxied     atomic.Int64
	proxyErrors atomic.Int64
}

// NewBackend creates a Backend over a Registry.
func NewBackend(cfg BackendConfig) *Backend {
	if cfg.Registry == nil {
		panic("cluster: BackendConfig.Registry is required")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Backend{reg: cfg.Registry, client: cfg.Client, logf: cfg.Logf}
}

// Registry returns the registry this backend routes over, for the serving
// layer's stats and metrics expositions.
func (b *Backend) Registry() *Registry { return b.reg }

// ProxyCounters is the backend's monotonic proxy counters (CLUSTER.md §7).
type ProxyCounters struct {
	Proxied     int64 // worker requests issued (including failover retries)
	ProxyErrors int64 // worker requests that failed as failover-eligible
}

// ProxyCounters returns a snapshot of the proxy counters.
func (b *Backend) ProxyCounters() ProxyCounters {
	return ProxyCounters{Proxied: b.proxied.Load(), ProxyErrors: b.proxyErrors.Load()}
}

// SubmitCtx admits one job for remote execution. Admission is refused only
// when the routing set is empty (ErrNoWorkers); per-worker backpressure
// surfaces on the result channel as graphrealize.ErrQueueFull, untranslated
// (CLUSTER.md §6.2), so the coordinator never spills an overloaded worker's
// keys onto another worker's cache shard.
func (b *Backend) SubmitCtx(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
	if len(b.reg.Routable()) == 0 {
		b.rejected.Add(1)
		return nil, ErrNoWorkers
	}
	return b.start(ctx, j, false), nil
}

// SubmitReplayCtx re-admits a job recovered from the coordinator's durable
// store. The replay routes by the same key as the original submission, so
// it lands on the key's current owner — which, after a worker death, is
// exactly the failover target (CLUSTER.md §6.3); the recorded seed makes
// the re-run's graph identical wherever it executes. Unlike SubmitCtx it
// never refuses an empty routing set: the registry lives in memory, so a
// restarted coordinator replays before any worker has re-registered, and
// the job waits, within its own deadline, for the first one.
func (b *Backend) SubmitReplayCtx(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
	return b.start(ctx, j, true), nil
}

// replayPoll is how often a replayed job with no routable worker yet checks
// the registry again.
const replayPoll = 100 * time.Millisecond

// start runs one admitted job remotely on its own goroutine.
func (b *Backend) start(ctx context.Context, j graphrealize.Job, replay bool) <-chan graphrealize.Result {
	b.submitted.Add(1)
	ch := make(chan graphrealize.Result, 1)
	go func() { ch <- b.run(ctx, j, replay) }()
	return ch
}

// SubmitAllCtx admits a batch. Against a single Runner the batch is atomic;
// across a cluster each job is admitted by its own worker, so a sweep is
// per-job admitted and any one worker's backpressure fails the whole sweep
// at the first rejected row (CLUSTER.md §8.1) — the all-or-nothing guarantee
// is not global. The empty-routing-set check still rejects as a unit.
func (b *Backend) SubmitAllCtx(ctx context.Context, jobs []graphrealize.Job) ([]<-chan graphrealize.Result, error) {
	if len(b.reg.Routable()) == 0 {
		b.rejected.Add(1)
		return nil, ErrNoWorkers
	}
	out := make([]<-chan graphrealize.Result, len(jobs))
	for i, j := range jobs {
		out[i] = b.start(ctx, j, false)
	}
	return out, nil
}

// Stats aggregates the cluster's counters into the RunnerStats shape the
// serving layer consumes: pool facts summed from the routable workers'
// heartbeat loads, lifecycle counters from the coordinator's own proxy
// accounting (CLUSTER.md §7.1).
func (b *Backend) Stats() graphrealize.RunnerStats {
	st := graphrealize.RunnerStats{
		QueueLimit: -1, // admission lives at the workers, not the coordinator
		Submitted:  b.submitted.Load(),
		Rejected:   b.rejected.Load(),
		Executed:   b.executed.Load(),
		Completed:  b.completed.Load(),
		Failed:     b.failed.Load(),
		Canceled:   b.canceled.Load(),
		TotalRun:   time.Duration(b.runNanos.Load()),
	}
	for _, w := range b.reg.Snapshot() {
		if w.State == string(StateDead) {
			continue
		}
		st.Workers += w.Load.Workers
		st.Active += w.Load.Active
		st.Queued += w.Load.Queued
		st.CacheHits += w.Load.CacheHits
		st.CacheLen += w.Load.CacheLen
	}
	return st
}

// run executes one job remotely: rank the routable workers for the job's
// RouteKey, try the owner, and on failover-eligible errors mark the worker
// failed and move to the next-ranked worker — which is rendezvous hashing's
// post-death owner of the same key (CLUSTER.md §6.1). Every other error is
// final. The loop is bounded: each failover removes a worker from
// consideration, and a drained candidate set fails with ErrNoWorkers. A
// replay that has tried no worker yet polls an empty routing set instead
// of failing, until a worker registers or its deadline passes.
func (b *Backend) run(ctx context.Context, j graphrealize.Job, replay bool) graphrealize.Result {
	res := graphrealize.Result{Job: j}
	if j.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.Timeout)
		defer cancel()
	}
	key := j.RouteKey()
	start := time.Now()
	tried := make(map[string]bool)
	for {
		if err := ctx.Err(); err != nil {
			res.Err = err
			break
		}
		var names []string
		addrs := make(map[string]string)
		for _, m := range b.reg.Routable() {
			if !tried[m.Name] {
				names = append(names, m.Name)
				addrs[m.Name] = m.Addr
			}
		}
		owner, ok := Owner(names, key)
		if !ok && replay && len(tried) == 0 {
			select {
			case <-ctx.Done():
			case <-time.After(replayPoll):
			}
			start = time.Now() // waiting is not run time (the Retry-After signal)
			continue
		}
		if !ok {
			res.Err = fmt.Errorf("%w for job %s (tried %d)", ErrNoWorkers, j.Kind, len(tried))
			break
		}
		// Round-level progress does not cross the proxy hop, but the queued
		// → running transition does: the job runs from the moment it is
		// first proxied (CLUSTER.md §8.2).
		if len(tried) == 0 && j.Progress != nil {
			j.Progress(0, 0)
		}
		out, err := b.proxy(ctx, addrs[owner], j)
		if err == nil {
			res = out
			res.Job = j
			break
		}
		if errors.Is(err, errWorkerDown) && ctx.Err() == nil {
			tried[owner] = true
			b.reg.ReportFailure(owner)
			b.proxyErrors.Add(1)
			b.logf("cluster: worker %s down (%v); re-routing %s job", owner, err, j.Kind)
			continue
		}
		res.Err = err
		break
	}
	b.executed.Add(1)
	b.runNanos.Add(time.Since(start).Nanoseconds())
	switch {
	case res.Err == nil:
		b.completed.Add(1)
	case errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded):
		b.canceled.Add(1)
	default:
		b.failed.Add(1)
	}
	return res
}

// proxy issues one job to one worker and rebuilds the Result. The request
// negotiates graphwire (Accept) and forwards the job's trace ID
// (X-Request-Id) so a hop shows up under the same ID in both processes'
// request logs (CLUSTER.md §5.4).
func (b *Backend) proxy(ctx context.Context, addr string, j graphrealize.Job) (graphrealize.Result, error) {
	var res graphrealize.Result
	alg, variant, ok := api.RouteOf(j.Kind)
	if !ok {
		return res, fmt.Errorf("cluster: unroutable job kind %d", int(j.Kind))
	}
	body, err := json.Marshal(api.RealizeRequest{Sequence: j.Seq, Variant: variant, Options: api.OptionsOf(j.Opt)})
	if err != nil {
		return res, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/realize/"+alg, bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.MediaType)
	if j.TraceID != "" {
		req.Header.Set(obs.HeaderRequestID, j.TraceID)
	}
	b.proxied.Add(1)
	resp, err := b.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		return res, fmt.Errorf("%w: %v", errWorkerDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return res, workerError(resp)
	}
	msg, err := wire.Decode(resp.Body)
	if err != nil {
		// A malformed stream means the worker died mid-response (or is not a
		// graphrealize worker at all); either way it cannot be trusted with
		// this key right now.
		return res, fmt.Errorf("%w: bad graphwire response: %v", errWorkerDown, err)
	}
	var meta api.RealizeResponse
	if msg.Meta == nil {
		return res, fmt.Errorf("%w: graphwire response without JMETA", errWorkerDown)
	}
	if err := json.Unmarshal(msg.Meta, &meta); err != nil {
		return res, fmt.Errorf("%w: bad JMETA: %v", errWorkerDown, err)
	}
	if !msg.HasGraph {
		return res, fmt.Errorf("%w: realization response without a graph section", errWorkerDown)
	}
	res.Graph = &graphrealize.Graph{N: msg.N, Adj: msg.Adj}
	res.Envelope = meta.Envelope
	res.Cached = meta.Cached
	res.Stats = meta.Stats.Stats()
	return res, nil
}

// workerError maps a worker's non-200 status back onto the job-level error
// vocabulary, inverting the serving layer's status mapping so the
// coordinator's own serving layer re-derives the same status (CLUSTER.md
// §5.5). Only 502/503 are failover-eligible: every other status is a
// deterministic verdict about the job, not the worker.
func workerError(resp *http.Response) error {
	var eb api.ErrorResponse
	detail := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); err == nil && eb.Error != "" {
		detail = eb.Error
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w (worker: %s)", graphrealize.ErrQueueFull, detail)
	case http.StatusUnprocessableEntity:
		return fmt.Errorf("%w (worker: %s)", graphrealize.ErrUnrealizable, detail)
	case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		return fmt.Errorf("%w (worker: %s)", graphrealize.ErrBadInput, detail)
	case http.StatusGatewayTimeout:
		return fmt.Errorf("%w (worker: %s)", context.DeadlineExceeded, detail)
	case http.StatusBadGateway, http.StatusServiceUnavailable:
		return fmt.Errorf("%w: worker answered %s", errWorkerDown, detail)
	default:
		return fmt.Errorf("cluster: worker answered %d: %s", resp.StatusCode, detail)
	}
}
