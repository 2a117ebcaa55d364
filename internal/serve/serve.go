// Package serve is the HTTP layer of the realization service: a thin,
// stateless router that maps JSON requests onto graphrealize Runner jobs
// and the Runner's backpressure onto HTTP status codes.
//
// Endpoints:
//
//	POST /v1/realize/degree        degree-sequence realization (§4)
//	POST /v1/realize/tree          tree realization (§5)
//	POST /v1/realize/connectivity  connectivity realization (§6)
//	POST /v1/sweep                 one sequence under many seeds
//	GET  /healthz                  liveness
//	GET  /v1/stats                 Runner queue/cache/latency counters
//	GET  /metrics                  Prometheus text exposition
//
// With a job manager configured (Config.Jobs), the asynchronous API is also
// served — fire-and-poll realizations that survive the submitting connection
// closing:
//
//	POST   /v1/jobs                submit (202 + Location)
//	GET    /v1/jobs                list/filter retained jobs
//	GET    /v1/jobs/{id}           state, round progress, and result
//	DELETE /v1/jobs/{id}           cancel (engine stops at a round barrier)
//	GET    /v1/jobs/{id}/events    SSE stream of progress/terminal events
//
// Error mapping: malformed requests are 400, oversized inputs 413,
// unrealizable sequences 422, a saturated Runner 429 (backpressure — the
// request was never admitted) with a Retry-After hint derived from live
// queue depth and mean job latency, job timeouts 504, and a client that
// disconnected mid-job 499.
//
// Responses are JSON by default. The realization, sweep, and job-result
// routes additionally negotiate the compact graphwire binary encoding
// (internal/wire, specified in WIRE.md) when a request lists
// application/x-graphwire in Accept — see wire.go; errors stay JSON in
// every case.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"graphrealize"
	"graphrealize/internal/cluster"
	"graphrealize/internal/jobs"
	"graphrealize/internal/obs"
)

// StatusClientClosedRequest reports a job abandoned because the client went
// away (nginx's non-standard 499); it is never seen by a live client.
const StatusClientClosedRequest = 499

// Backend is the slice of the graphrealize.Runner API the service uses.
// It is an interface so tests can pin queue-full and cancellation paths
// deterministically.
type Backend interface {
	SubmitCtx(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error)
	SubmitAllCtx(ctx context.Context, jobs []graphrealize.Job) ([]<-chan graphrealize.Result, error)
	Stats() graphrealize.RunnerStats
}

// Config assembles a Server.
type Config struct {
	// Backend executes jobs; typically a *graphrealize.Runner.
	Backend Backend
	// MaxN caps the sequence length of a single request (default 4096).
	MaxN int
	// MaxSeeds caps the seeds of one sweep request (default 64).
	MaxSeeds int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Jobs, when non-nil, enables the asynchronous job API backed by this
	// manager (which should wrap the same Backend so admission control is
	// shared).
	Jobs *jobs.Manager
	// Cluster, when non-nil, marks this server a coordinator: the cluster
	// control plane (/cluster/v1/*) is mounted, /v1/stats grows a cluster
	// object, and /metrics grows the graphrealize_cluster_* families. It
	// should be the same Backend configured above, so routing and stats
	// describe one object (grserved -coordinator).
	Cluster *cluster.Backend
	// Logf, when non-nil, receives one line per request.
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives one structured record per request
	// (trace_id, route, method, path, status, elapsed_ms) — the machine-
	// grep-able counterpart of Logf. Both may be set; both fire.
	Logger *slog.Logger
}

// obsBackend is the optional Backend extension exposing the Runner's
// wall-clock observability (histograms, phase profiles, flight recorder).
// It is a separate assertion rather than part of Backend so the scripted
// test backends stay minimal; a *graphrealize.Runner always satisfies it.
type obsBackend interface {
	Obs() *graphrealize.RunnerObs
}

// routeNames is every route label the server exports, in the sorted order
// /metrics emits them. Fixed at compile time: per-route histograms must not
// be allocated from request paths (unbounded label cardinality).
var routeNames = []string{
	"cluster_heartbeat",
	"cluster_register",
	"cluster_workers",
	"healthz",
	"jobs_cancel",
	"jobs_events",
	"jobs_get",
	"jobs_list",
	"jobs_submit",
	"metrics",
	"realize",
	"slowest",
	"stats",
	"sweep",
}

// Server routes realization requests onto a Backend.
type Server struct {
	cfg     Config
	started time.Time

	// runnerObs is the Backend's instrument set, nil when the backend does
	// not implement obsBackend (scripted test backends).
	runnerObs *graphrealize.RunnerObs
	// routeHist holds one HTTP latency histogram per entry of routeNames.
	routeHist map[string]*obs.Histogram

	// Watermarks of the executed-job counters at the previous Retry-After
	// computation, so the hint reflects recent latency, not the lifetime
	// mean (which goes stale when the workload shifts). lastMean caches the
	// most recent per-job mean so a window with no completed executions
	// falls back to the last real observation instead of re-deriving a
	// lifetime figure.
	retryMu     sync.Mutex
	lastExec    int64
	lastRunNano int64
	lastMean    time.Duration
}

// New creates a Server. It panics if cfg.Backend is nil: a service without
// an executor is a programming error, not a runtime condition.
func New(cfg Config) *Server {
	if cfg.Backend == nil {
		panic("serve: Config.Backend is required")
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 4096
	}
	if cfg.MaxSeeds <= 0 {
		cfg.MaxSeeds = 64
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	s := &Server{cfg: cfg, started: time.Now(), routeHist: make(map[string]*obs.Histogram, len(routeNames))}
	if ob, ok := cfg.Backend.(obsBackend); ok {
		s.runnerObs = ob.Obs()
	}
	for _, route := range routeNames {
		s.routeHist[route] = obs.NewHistogram(obs.DefaultLatencyBuckets)
	}
	return s
}

// Handler returns the service's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/realize/{alg}", s.instrument("realize", s.handleRealize))
	mux.HandleFunc("POST /v1/sweep", s.instrument("sweep", s.handleSweep))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/debug/slowest", s.instrument("slowest", s.handleDebugSlowest))
	if s.cfg.Cluster != nil {
		mux.HandleFunc("POST /cluster/v1/register", s.instrument("cluster_register", s.handleClusterRegister))
		mux.HandleFunc("POST /cluster/v1/heartbeat", s.instrument("cluster_heartbeat", s.handleClusterHeartbeat))
		mux.HandleFunc("GET /cluster/v1/workers", s.instrument("cluster_workers", s.handleClusterWorkers))
	}
	if s.cfg.Jobs != nil {
		mux.HandleFunc("POST /v1/jobs", s.instrument("jobs_submit", s.handleJobSubmit))
		mux.HandleFunc("GET /v1/jobs", s.instrument("jobs_list", s.handleJobList))
		mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs_get", s.handleJobGet))
		mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("jobs_cancel", s.handleJobCancel))
		mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("jobs_events", s.handleJobEvents))
	}
	return mux
}

// statusRecorder captures the status code for request logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the wrapped writer to http.ResponseController, so SSE
// streaming works through the logging middleware without the recorder
// falsely claiming http.Flusher support the underlying writer lacks.
func (r *statusRecorder) Unwrap() http.ResponseWriter {
	return r.ResponseWriter
}

// instrument is the per-request observability middleware, applied to every
// route: it adopts the client's X-Request-Id (when valid) or mints a trace
// ID, echoes it on the response, carries it in the request context for
// handlers to propagate into jobs, observes the route's latency histogram,
// and emits the request log line(s). Unlike the old Logf-only wrapper it
// always wraps — tracing and histograms are unconditional; the statusRecorder
// keeps the Unwrap chain intact so SSE flushing still works.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.routeHist[route]
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.HeaderRequestID)
		if !obs.ValidTraceID(id) {
			id = obs.NewTraceID()
		}
		w.Header().Set(obs.HeaderRequestID, id)
		r = r.WithContext(obs.WithTraceID(r.Context(), id))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		elapsed := time.Since(start)
		hist.ObserveDuration(elapsed)
		elapsedMS := float64(elapsed.Microseconds()) / 1000
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("request",
				"trace_id", id,
				"route", route,
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"elapsed_ms", elapsedMS)
		}
		if s.cfg.Logf != nil {
			s.cfg.Logf("%s %s -> %d (%.1fms) trace=%s", r.Method, r.URL.Path, rec.status, elapsedMS, id)
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeResultError maps a job-level error onto an HTTP status. The two
// cluster-only cases surface proxied admission outcomes that a local Runner
// reports at submit time instead: a worker's backpressure rides a Result
// (429, CLUSTER.md §8.1), and an emptied routing set is 503 — retrying is
// pointless until a worker rejoins (CLUSTER.md §6.2).
func writeResultError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, graphrealize.ErrUnrealizable):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, graphrealize.ErrBadInput):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, graphrealize.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, cluster.ErrNoWorkers):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "job exceeded its deadline")
	case errors.Is(err, context.Canceled):
		writeError(w, StatusClientClosedRequest, "client closed request")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// decode reads a JSON body with the configured size cap. It distinguishes
// oversized bodies (413) from malformed ones (400).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "malformed request: %v", err)
		}
		return false
	}
	return true
}

// checkSequence enforces presence and the MaxN cap.
func (s *Server) checkSequence(w http.ResponseWriter, seq []int) bool {
	if len(seq) == 0 {
		writeError(w, http.StatusBadRequest, "sequence is required and must be non-empty")
		return false
	}
	if len(seq) > s.cfg.MaxN {
		writeError(w, http.StatusRequestEntityTooLarge, "sequence length %d exceeds the service cap n=%d", len(seq), s.cfg.MaxN)
		return false
	}
	return true
}

// retryAfterSeconds estimates when Runner capacity will free up, for 429
// Retry-After hints: the current backlog (queued + active jobs) spread over
// the worker pool, times the recent mean job latency, rounded up and clamped
// to [1, 30] seconds. "Recent" is the window since the previous hint (the
// lifetime mean goes stale when the workload shifts). The fallback ladder
// when the window is empty is explicit: a window with no completed
// executions reuses the previous hint's mean; before any hint has observed
// an execution the lifetime mean stands in; and a fully cold Runner (nothing
// ever executed) hints the 1-second floor.
func (s *Server) retryAfterSeconds() int {
	st := s.cfg.Backend.Stats()
	if st.Executed == 0 {
		return 1 // cold start: no latency signal at all
	}
	s.retryMu.Lock()
	dExec := st.Executed - s.lastExec
	dRun := st.TotalRun.Nanoseconds() - s.lastRunNano
	var mean time.Duration
	switch {
	case dExec > 0:
		mean = time.Duration(dRun / dExec)
		s.lastExec = st.Executed
		s.lastRunNano = st.TotalRun.Nanoseconds()
		s.lastMean = mean
	case s.lastMean > 0:
		mean = s.lastMean // empty window: keep the last real observation
	default:
		mean = st.TotalRun / time.Duration(st.Executed) // st.Executed > 0
	}
	s.retryMu.Unlock()
	workers := max(st.Workers, 1)
	backlog := st.Queued + st.Active
	eta := time.Duration(backlog) * mean / time.Duration(workers)
	secs := int((eta + time.Second - 1) / time.Second)
	return min(max(secs, 1), 30)
}

// writeBackpressure emits a 429 with the live Retry-After hint.
func (s *Server) writeBackpressure(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, http.StatusTooManyRequests, format, args...)
}

// submit runs one job to completion under the request context, translating
// admission rejection into 429 with a Retry-After hint.
func (s *Server) submit(w http.ResponseWriter, ctx context.Context, j graphrealize.Job) (graphrealize.Result, bool) {
	ch, err := s.cfg.Backend.SubmitCtx(ctx, j)
	if err != nil {
		switch {
		case errors.Is(err, graphrealize.ErrQueueFull):
			s.writeBackpressure(w, "runner queue is full; retry later")
		case errors.Is(err, cluster.ErrNoWorkers):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return graphrealize.Result{}, false
	}
	res := <-ch
	if res.Err != nil {
		writeResultError(w, res.Err)
		return res, false
	}
	return res, true
}

// errUnknownAlgorithm distinguishes a bad {alg} path element (404) from a
// bad variant on a known algorithm (400).
var errUnknownAlgorithm = errors.New("unknown algorithm")

// jobKindFor maps an /v1/realize/{alg} path plus variant to a JobKind.
func jobKindFor(alg, variant string) (graphrealize.JobKind, error) {
	switch alg {
	case "degree":
		switch variant {
		case "", "implicit":
			return graphrealize.JobDegrees, nil
		case "explicit":
			return graphrealize.JobDegreesExplicit, nil
		case "envelope":
			return graphrealize.JobUpperEnvelope, nil
		}
		return 0, fmt.Errorf("unknown degree variant %q (want implicit, explicit, or envelope)", variant)
	case "tree":
		switch variant {
		case "", "chain":
			return graphrealize.JobChainTree, nil
		case "mindiam", "min-diam", "greedy":
			return graphrealize.JobMinDiamTree, nil
		}
		return 0, fmt.Errorf("unknown tree variant %q (want chain or mindiam)", variant)
	case "connectivity":
		if variant != "" {
			return 0, fmt.Errorf("connectivity has no variants (got %q)", variant)
		}
		return graphrealize.JobConnectivity, nil
	}
	return 0, fmt.Errorf("%w %q (want degree, tree, or connectivity)", errUnknownAlgorithm, alg)
}

func (s *Server) handleRealize(w http.ResponseWriter, r *http.Request) {
	var req RealizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	kind, err := jobKindFor(r.PathValue("alg"), req.Variant)
	if err != nil {
		if errors.Is(err, errUnknownAlgorithm) {
			writeError(w, http.StatusNotFound, "%v", err)
		} else {
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	if !s.checkSequence(w, req.Sequence) {
		return
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	res, ok := s.submit(w, r.Context(), graphrealize.Job{
		Kind: kind, Seq: req.Sequence, Opt: opt,
		TraceID: obs.TraceID(r.Context()),
	})
	if !ok {
		return
	}
	resp := RealizeResponse{
		Kind:      kind.String(),
		N:         res.Graph.N,
		M:         res.Graph.M(),
		Envelope:  res.Envelope,
		Stats:     statsJSON(res.Stats),
		Cached:    res.Cached,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	// Everything that can fail has failed by here (the flush-audit
	// contract): both encodings below start from a committed 200.
	if wantsWire(r) {
		var g *graphrealize.Graph
		if !req.OmitEdges {
			g = res.Graph
		}
		writeWire(w, resp, g)
		return
	}
	if !req.OmitEdges {
		resp.Edges = res.Graph.Edges()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	kind, ok := parseKind(req.Kind)
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown kind %q", req.Kind)
		return
	}
	if !s.checkSequence(w, req.Sequence) {
		return
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		count := req.SeedCount
		if count <= 0 {
			writeError(w, http.StatusBadRequest, "either seeds or a positive seed_count is required")
			return
		}
		// Cap before allocating: seed_count is attacker-controlled.
		if count > s.cfg.MaxSeeds {
			writeError(w, http.StatusRequestEntityTooLarge, "%d seeds exceed the service cap %d", count, s.cfg.MaxSeeds)
			return
		}
		seeds = make([]int64, count)
		for i := range seeds {
			seeds[i] = req.SeedStart + int64(i)
		}
	}
	if len(seeds) > s.cfg.MaxSeeds {
		writeError(w, http.StatusRequestEntityTooLarge, "%d seeds exceed the service cap %d", len(seeds), s.cfg.MaxSeeds)
		return
	}

	start := time.Now()
	sweepJobs := graphrealize.SweepSeeds(graphrealize.Job{
		Kind: kind, Seq: req.Sequence, Opt: opt,
		TraceID: obs.TraceID(r.Context()),
	}, seeds)
	// The whole sweep is admitted atomically (every job or none), so a
	// saturated Runner rejects it as a unit (429) instead of wedging it
	// halfway or starving a concurrent sweep.
	chans, err := s.cfg.Backend.SubmitAllCtx(r.Context(), sweepJobs)
	if err != nil {
		switch {
		case errors.Is(err, graphrealize.ErrQueueFull):
			s.writeBackpressure(w, "runner queue cannot admit a %d-job sweep; retry later", len(sweepJobs))
		case errors.Is(err, cluster.ErrNoWorkers):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}

	resp := SweepResponse{Kind: kind.String(), N: len(req.Sequence), Seeds: len(seeds)}
	var rounds []int
	for i, ch := range chans {
		res := <-ch
		row := SweepRow{Seed: seeds[i], Cached: res.Cached}
		if res.Err != nil {
			// Realizability is seed-independent, so an unrealizable (or
			// otherwise failed) sweep fails as a unit with the usual mapping.
			writeResultError(w, res.Err)
			return
		}
		row.M = res.Graph.M()
		row.Stats = statsJSON(res.Stats)
		if res.Cached {
			resp.CacheHits++
		}
		rounds = append(rounds, res.Stats.Rounds)
		resp.Rows = append(resp.Rows, row)
	}
	sort.Ints(rounds)
	resp.RoundsMin = rounds[0]
	resp.RoundsMedian = rounds[len(rounds)/2]
	resp.RoundsMax = rounds[len(rounds)-1]
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if wantsWire(r) {
		// Sweep rows carry no edge lists, so the stream is JMETA + END.
		writeWire(w, resp, nil)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse(s.cfg.Backend.Stats(), time.Since(s.started), s.runnerObs)
	if s.cfg.Cluster != nil {
		resp.Cluster = clusterStats(s.cfg.Cluster)
	}
	writeJSON(w, http.StatusOK, resp)
}
