package serve

import (
	"strings"
	"time"

	"graphrealize"
	"graphrealize/internal/api"
	"graphrealize/internal/cluster"
	"graphrealize/internal/jobs"
)

// types.go defines the service's JSON bodies beyond the realization API's
// own (internal/api): sweeps, stats and async jobs. The wire format is
// deliberately flat: sequences are plain integer arrays, and graphs travel
// as (u < v) edge lists.

// realizeResponse is the body of a successful realization of kind, minus
// its edge list, which each encoding adds in its own form.
func realizeResponse(kind graphrealize.JobKind, res *graphrealize.Result, elapsed time.Duration) api.RealizeResponse {
	return api.RealizeResponse{
		Kind:      kind.String(),
		N:         res.Graph.N,
		M:         res.Graph.M(),
		Envelope:  res.Envelope,
		Stats:     api.StatsOf(res.Stats),
		Cached:    res.Cached,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	}
}

// SweepRequest is the body of POST /v1/sweep: one sequence realized under
// many seeds (the Barrus-style "many realizations of one sequence"
// workload). Either Seeds lists them explicitly or SeedCount consecutive
// seeds starting at SeedStart are used.
type SweepRequest struct {
	// Kind names the realization algorithm: "degrees", "degrees-explicit",
	// "upper-envelope", "chain-tree", "min-diam-tree", or "connectivity"
	// (aliases "degree", "tree", "mindiam", "envelope" are accepted).
	Kind      string           `json:"kind"`
	Sequence  []int            `json:"sequence"`
	Seeds     []int64          `json:"seeds,omitempty"`
	SeedCount int              `json:"seed_count,omitempty"`
	SeedStart int64            `json:"seed_start,omitempty"`
	Options   *api.OptionsJSON `json:"options,omitempty"`
}

// SweepRow is one seed's outcome inside a SweepResponse. A sweep fails as
// a unit (realizability is seed-independent), so rows carry no error field.
type SweepRow struct {
	Seed   int64         `json:"seed"`
	M      int           `json:"m"`
	Stats  api.StatsJSON `json:"stats"`
	Cached bool          `json:"cached"`
}

// SweepResponse aggregates a multi-seed sweep.
type SweepResponse struct {
	Kind         string     `json:"kind"`
	N            int        `json:"n"`
	Seeds        int        `json:"seeds"`
	Rows         []SweepRow `json:"rows"`
	RoundsMin    int        `json:"rounds_min"`
	RoundsMedian int        `json:"rounds_median"`
	RoundsMax    int        `json:"rounds_max"`
	CacheHits    int        `json:"cache_hits"`
	ElapsedMS    float64    `json:"elapsed_ms"`
}

// StatsResponse is the body of GET /v1/stats: the Runner's counters plus
// service-level facts.
type StatsResponse struct {
	UptimeS    float64 `json:"uptime_s"`
	Workers    int     `json:"workers"`
	QueueLimit int     `json:"queue_limit"`
	Active     int     `json:"active"`
	Queued     int     `json:"queued"`
	Submitted  int64   `json:"submitted"`
	Rejected   int64   `json:"rejected"`
	Executed   int64   `json:"executed"`
	Completed  int64   `json:"completed"`
	Failed     int64   `json:"failed"`
	Canceled   int64   `json:"canceled"`
	CacheHits  int64   `json:"cache_hits"`
	CacheLen   int     `json:"cache_len"`
	AvgWaitMS  float64 `json:"avg_wait_ms"`
	AvgRunMS   float64 `json:"avg_run_ms"`
	// Run-latency quantiles from the Runner's histogram (histogram-derived:
	// interpolated within fixed buckets, not exact order statistics). Zero
	// when the backend exposes no instruments or nothing has executed.
	P50RunMS float64 `json:"p50_run_ms"`
	P95RunMS float64 `json:"p95_run_ms"`
	P99RunMS float64 `json:"p99_run_ms"`
	// Phases reports engine round counts and phase wall-time under the
	// single key "flat", the engine's driver. Nil when the backend exposes
	// no instruments.
	Phases map[string]SchedPhaseJSON `json:"phases,omitempty"`
	// Cluster reports the coordinator's member table and proxy counters
	// (CLUSTER.md §7.1). Nil on a single node or a worker.
	Cluster *ClusterStatsJSON `json:"cluster,omitempty"`
}

// ClusterStatsJSON is the cluster object of GET /v1/stats on a coordinator:
// every registered worker with its derived liveness state, the state
// tallies, and the control-plane/proxy counters (CLUSTER.md §7.1).
type ClusterStatsJSON struct {
	Workers       []cluster.WorkerStatus `json:"workers"`
	Alive         int                    `json:"alive"`
	Suspect       int                    `json:"suspect"`
	Dead          int                    `json:"dead"`
	Registrations int64                  `json:"registrations"`
	Heartbeats    int64                  `json:"heartbeats"`
	Failovers     int64                  `json:"failovers"`
	Expired       int64                  `json:"expired"`
	Proxied       int64                  `json:"proxied"`
	ProxyErrors   int64                  `json:"proxy_errors"`
}

// SchedPhaseJSON is the engine's accumulated phase profile.
type SchedPhaseJSON struct {
	Rounds    int64   `json:"rounds"`
	ComputeS  float64 `json:"compute_s"`
	DeliveryS float64 `json:"delivery_s"`
	BarrierS  float64 `json:"barrier_s"`
}

func statsResponse(rs graphrealize.RunnerStats, uptime time.Duration, o *graphrealize.RunnerObs) StatsResponse {
	resp := StatsResponse{
		UptimeS:    uptime.Seconds(),
		Workers:    rs.Workers,
		QueueLimit: rs.QueueLimit,
		Active:     rs.Active,
		Queued:     rs.Queued,
		Submitted:  rs.Submitted,
		Rejected:   rs.Rejected,
		Executed:   rs.Executed,
		Completed:  rs.Completed,
		Failed:     rs.Failed,
		Canceled:   rs.Canceled,
		CacheHits:  rs.CacheHits,
		CacheLen:   rs.CacheLen,
	}
	// Average over jobs that actually acquired a worker — cache hits and
	// queued-cancellations contribute no wait/run time and would dilute the
	// figures capacity tuning relies on. Divide nanoseconds, not
	// pre-truncated milliseconds: sub-ms waits must not report as 0.0.
	if rs.Executed > 0 {
		resp.AvgWaitMS = float64(rs.TotalWait.Nanoseconds()) / 1e6 / float64(rs.Executed)
		resp.AvgRunMS = float64(rs.TotalRun.Nanoseconds()) / 1e6 / float64(rs.Executed)
	}
	if o != nil {
		run := o.Run.Snapshot()
		resp.P50RunMS = run.Quantile(0.50) * 1000
		resp.P95RunMS = run.Quantile(0.95) * 1000
		resp.P99RunMS = run.Quantile(0.99) * 1000
		p := o.Phases.Snapshot()
		resp.Phases = map[string]SchedPhaseJSON{engineDriver: {
			Rounds:    p.Rounds,
			ComputeS:  p.Compute.Seconds(),
			DeliveryS: p.Delivery.Seconds(),
			BarrierS:  p.Barrier.Seconds(),
		}}
	}
	return resp
}

// engineDriver names the engine's one driver in /v1/stats phases, a map
// that keeps the shape it had when the engine had several drivers.
const engineDriver = "flat"

// JobRequest is the body of POST /v1/jobs: the same inputs as a synchronous
// realization, addressed by kind (the SweepRequest.Kind vocabulary).
type JobRequest struct {
	// Kind names the realization algorithm: "degrees", "degrees-explicit",
	// "upper-envelope", "chain-tree", "min-diam-tree", or "connectivity"
	// (the usual aliases are accepted).
	Kind string `json:"kind"`
	// Sequence is the degree (or ρ) sequence to realize.
	Sequence []int `json:"sequence"`
	// Options tunes the simulation; nil selects the defaults.
	Options *api.OptionsJSON `json:"options,omitempty"`
	// Label is an optional caller tag echoed back in job snapshots.
	Label string `json:"label,omitempty"`
}

// (The submitting request's trace ID is taken from the X-Request-Id header —
// the same channel as synchronous requests — not from the body.)

// JobJSON is one job's externally visible state (202/200 bodies and list
// rows). Result is present only on GET /v1/jobs/{id} of a done job.
type JobJSON struct {
	ID         string               `json:"id"`
	Kind       string               `json:"kind"`
	State      string               `json:"state"`
	N          int                  `json:"n"`
	Label      string               `json:"label,omitempty"`
	TraceID    string               `json:"trace_id,omitempty"`
	Round      int                  `json:"round"`
	Messages   int                  `json:"messages"`
	CreatedAt  time.Time            `json:"created_at"`
	StartedAt  *time.Time           `json:"started_at,omitempty"`
	FinishedAt *time.Time           `json:"finished_at,omitempty"`
	Error      string               `json:"error,omitempty"`
	Result     *api.RealizeResponse `json:"result,omitempty"`
	// Recovered marks a job reloaded (terminal) or re-queued (in-flight)
	// from the durable store after a restart (grserved -data-dir).
	Recovered bool `json:"recovered,omitempty"`
}

// jobJSON projects a snapshot onto the wire. includeResult attaches the
// realization payload of a done job; omitEdges drops its edge list.
func jobJSON(snap jobs.Snapshot, includeResult, omitEdges bool) JobJSON {
	out := JobJSON{
		ID:        snap.ID,
		Kind:      snap.Kind.String(),
		State:     string(snap.State),
		N:         snap.N,
		Label:     snap.Label,
		TraceID:   snap.TraceID,
		Round:     snap.Round,
		Messages:  snap.Messages,
		CreatedAt: snap.Created,
		Recovered: snap.Recovered,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		out.StartedAt = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		out.FinishedAt = &t
	}
	if snap.Err != nil {
		out.Error = snap.Err.Error()
	}
	if includeResult && snap.Result != nil && snap.Result.Graph != nil {
		started := snap.Started
		if started.IsZero() {
			started = snap.Created // cache-served jobs never ran
		}
		res := realizeResponse(snap.Kind, snap.Result, snap.Finished.Sub(started))
		if !omitEdges {
			res.Edges = snap.Result.Graph.Edges()
		}
		out.Result = &res
	}
	return out
}

// JobListResponse is the body of GET /v1/jobs. Counts tallies every retained
// job by state (unaffected by the state filter or limit).
type JobListResponse struct {
	Jobs   []JobJSON      `json:"jobs"`
	Counts map[string]int `json:"counts"`
}

// JobEventJSON is the data payload of one SSE event on
// GET /v1/jobs/{id}/events.
type JobEventJSON struct {
	ID       string `json:"id"`
	TraceID  string `json:"trace_id,omitempty"`
	State    string `json:"state"`
	Round    int    `json:"round"`
	Messages int    `json:"messages"`
	Error    string `json:"error,omitempty"`
}

func jobEventJSON(ev jobs.Event) JobEventJSON {
	return JobEventJSON{
		ID:       ev.JobID,
		TraceID:  ev.TraceID,
		State:    string(ev.State),
		Round:    ev.Round,
		Messages: ev.Messages,
		Error:    ev.Err,
	}
}

// parseKind resolves a SweepRequest.Kind string to a JobKind.
func parseKind(s string) (graphrealize.JobKind, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "degree", "degrees", "implicit":
		return graphrealize.JobDegrees, true
	case "degree-explicit", "degrees-explicit", "explicit":
		return graphrealize.JobDegreesExplicit, true
	case "envelope", "upper-envelope":
		return graphrealize.JobUpperEnvelope, true
	case "tree", "chain-tree", "chain":
		return graphrealize.JobChainTree, true
	case "mindiam", "min-diam-tree", "mindiam-tree":
		return graphrealize.JobMinDiamTree, true
	case "connectivity":
		return graphrealize.JobConnectivity, true
	}
	return 0, false
}
