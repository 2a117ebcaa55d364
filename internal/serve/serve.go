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
// Error mapping (writeFailure, one function for every route): malformed
// requests and options too tight for the job are 400, oversized inputs
// 413, unrealizable sequences 422, backpressure 429 with a Retry-After
// hint derived from live queue depth and mean job latency, an empty
// cluster routing set or a draining job manager 503, job timeouts 504,
// and a client that disconnected mid-job 499.
//
// Responses are JSON by default. The realization, sweep, and job-result
// routes additionally negotiate the compact graphwire binary encoding
// (internal/wire, specified in WIRE.md) when a request lists
// application/x-graphwire in Accept — see wire.go; errors stay JSON in
// every case.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"graphrealize"
	"graphrealize/internal/api"
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
	// Logger, when non-nil, receives one structured record per request
	// (trace_id, route, method, path, status, elapsed_ms).
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

// encodingNames labels graphrealize_http_encode_seconds, indexed by
// encodingJSON and encodingWire.
var encodingNames = [...]string{"json", "graphwire"}

const (
	encodingJSON = iota
	encodingWire
)

// Server routes realization requests onto a Backend.
type Server struct {
	cfg     Config
	started time.Time

	// runnerObs is the Backend's instrument set, nil when the backend does
	// not implement obsBackend (scripted test backends).
	runnerObs *graphrealize.RunnerObs
	// routeHist holds one HTTP latency histogram per entry of routeNames.
	routeHist map[string]*obs.Histogram
	// decodeHist times each realize request's body read and decode, and
	// encodeHist its answer's encode, indexed by encodingJSON and
	// encodingWire.
	decodeHist *obs.Histogram
	encodeHist [len(encodingNames)]*obs.Histogram

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
	s := &Server{cfg: cfg, started: time.Now(), routeHist: make(map[string]*obs.Histogram, len(routeNames))}
	if ob, ok := cfg.Backend.(obsBackend); ok {
		s.runnerObs = ob.Obs()
	}
	for _, route := range routeNames {
		s.routeHist[route] = obs.NewHistogram(obs.DefaultLatencyBuckets)
	}
	s.decodeHist = obs.NewHistogram(obs.RoundBuckets)
	for i := range s.encodeHist {
		s.encodeHist[i] = obs.NewHistogram(obs.RoundBuckets)
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
// and emits the request log record. It always wraps — tracing and histograms
// are unconditional; the statusRecorder keeps the Unwrap chain intact so SSE
// flushing still works.
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
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("request",
				"trace_id", id,
				"route", route,
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"elapsed_ms", float64(elapsed.Microseconds())/1000)
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeFailure answers a request whose job was refused or failed: the one
// mapping from admission errors (Runner, job manager, cluster Backend) and
// job-level errors onto HTTP statuses, shared by every route. Backpressure
// is 429 with the live Retry-After hint, whether the Runner, the retained
// job cap, or a proxied worker pushed back (CLUSTER.md §8.1). An emptied
// routing set and a draining job manager are 503: retrying helps only once
// a worker rejoins or the server restarts (CLUSTER.md §6.2).
func (s *Server) writeFailure(w http.ResponseWriter, err error) {
	code, msg := http.StatusInternalServerError, err.Error()
	switch {
	case errors.Is(err, graphrealize.ErrUnrealizable):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, graphrealize.ErrBadInput):
		code = http.StatusBadRequest
	case errors.Is(err, graphrealize.ErrQueueFull), errors.Is(err, jobs.ErrTooManyJobs):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	case errors.Is(err, cluster.ErrNoWorkers), errors.Is(err, jobs.ErrShuttingDown):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		code, msg = http.StatusGatewayTimeout, "job exceeded its deadline"
	case errors.Is(err, context.Canceled):
		code, msg = StatusClientClosedRequest, "client closed request"
	}
	writeError(w, code, "%s", msg)
}

// maxBodyBytes caps request bodies.
const maxBodyBytes = 1 << 20

// decode reads r's body once, within the maxBodyBytes cap, into a pooled
// buffer and decodes it into v: a realize request with
// api.DecodeRealizeRequest, any other body with a json.Decoder that
// disallows unknown fields. A body over the cap is 413, whatever it holds;
// any other read or decode failure is 400.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := getBuf()
	defer putBuf(buf)
	body, err := readBody(w, r, *buf)
	*buf = body
	if err == nil {
		if req, ok := v.(*api.RealizeRequest); ok {
			err = api.DecodeRealizeRequest(body, req)
		} else {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err = dec.Decode(v)
		}
	}
	if err != nil {
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

// readBody appends r's whole body to b through a MaxBytesReader. b grows
// once to a Content-Length within the cap, so that such a body is read
// without regrowing it; a larger claim reserves nothing up front.
func readBody(w http.ResponseWriter, r *http.Request, b []byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		b = slices.Grow(b, int(n)+1) // +1: the read that sees EOF
	}
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// bufPool holds the empty buffers request bodies are read into and realize
// answers are written into. A buffer grown past maxPooledBuf goes to the
// collector instead, so one large body does not stay pinned.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// job builds the Job a realize, sweep or jobs request describes, once its
// kind is resolved: it enforces the sequence's presence and the MaxN cap,
// maps the options, and carries the request's trace ID. On failure it has
// written the error response.
func (s *Server) job(w http.ResponseWriter, r *http.Request, kind graphrealize.JobKind, seq []int, o *api.OptionsJSON) (graphrealize.Job, bool) {
	if len(seq) == 0 {
		writeError(w, http.StatusBadRequest, "sequence is required and must be non-empty")
		return graphrealize.Job{}, false
	}
	if len(seq) > s.cfg.MaxN {
		writeError(w, http.StatusRequestEntityTooLarge, "sequence length %d exceeds the service cap n=%d", len(seq), s.cfg.MaxN)
		return graphrealize.Job{}, false
	}
	opt, err := o.Options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return graphrealize.Job{}, false
	}
	return graphrealize.Job{Kind: kind, Seq: seq, Opt: opt, TraceID: obs.TraceID(r.Context())}, true
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

func (s *Server) handleRealize(w http.ResponseWriter, r *http.Request) {
	var req api.RealizeRequest
	decodeStart := time.Now()
	ok := s.decode(w, r, &req)
	s.decodeHist.ObserveDuration(time.Since(decodeStart))
	if !ok {
		return
	}
	kind, err := api.KindFor(r.PathValue("alg"), req.Variant)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, api.ErrUnknownAlgorithm) {
			code = http.StatusNotFound
		}
		writeError(w, code, "%v", err)
		return
	}
	j, ok := s.job(w, r, kind, req.Sequence, req.Options)
	if !ok {
		return
	}
	start := time.Now()
	ch, err := s.cfg.Backend.SubmitCtx(r.Context(), j)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	res := <-ch
	if res.Err != nil {
		s.writeFailure(w, res.Err)
		return
	}
	encodeStart := time.Now()
	resp := realizeResponse(kind, &res, encodeStart.Sub(start))
	// Everything that can fail has failed by here (the flush-audit
	// contract): both encodings below start from a committed 200.
	if wantsWire(r) {
		var g *graphrealize.Graph
		if !req.OmitEdges {
			g = res.Graph
		}
		writeWire(w, resp, g)
		s.encodeHist[encodingWire].ObserveDuration(time.Since(encodeStart))
		return
	}
	var adj [][]int
	if !req.OmitEdges {
		adj = res.Graph.Adj
	}
	buf := getBuf()
	defer putBuf(buf)
	body := resp.AppendJSON(*buf, adj)
	*buf = body
	s.encodeHist[encodingJSON].ObserveDuration(time.Since(encodeStart))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a client gone mid-body has nothing left to be told
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
	base, ok := s.job(w, r, kind, req.Sequence, req.Options)
	if !ok {
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
	sweepJobs := graphrealize.SweepSeeds(base, seeds)
	// The whole sweep is admitted atomically (every job or none), so a
	// saturated Runner rejects it as a unit (429) instead of wedging it
	// halfway or starving a concurrent sweep.
	chans, err := s.cfg.Backend.SubmitAllCtx(r.Context(), sweepJobs)
	if err != nil {
		s.writeFailure(w, err)
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
			s.writeFailure(w, res.Err)
			return
		}
		row.M = res.Graph.M()
		row.Stats = api.StatsOf(res.Stats)
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
