// Command grserved serves graph realizations over HTTP: the facade's
// algorithms (§4–§6 of the paper) behind a sharded Runner with a bounded
// admission queue, per-job deadlines, and a result cache, plus an
// asynchronous job API (submit → poll/stream → cancel) for realizations too
// long to hold a connection open. See internal/serve for the API and
// README.md for curl examples.
//
// Usage:
//
//	grserved                                  # :8080, GOMAXPROCS workers
//	grserved -addr :9090 -workers 8 -queue 64
//	grserved -job-timeout 10s -max-n 2048 -quiet
//	grserved -job-ttl 2m -job-gc 15s -max-jobs 1024
//	grserved -data-dir /var/lib/grserved       # durable jobs + crash recovery
//
// With -data-dir set, async job state is shadowed to an append-only WAL plus
// periodic snapshots in that directory: after a crash (even kill -9), a
// restart on the same directory serves completed jobs' results from disk and
// re-queues jobs that were in flight, re-running them deterministically from
// their recorded seeds. Empty -data-dir (the default) keeps jobs in memory
// only, exactly as before.
//
// Cluster mode (CLUSTER.md): `grserved -coordinator` serves the same API
// with no local engine — jobs are routed to joined workers by rendezvous
// hashing on their cache key, with failover to the next-ranked worker when
// one dies. `grserved -join http://coordinator:port` runs a normal worker
// that registers and heartbeats:
//
//	grserved -coordinator -addr :8100                 # the front door
//	grserved -addr :8101 -join http://127.0.0.1:8100  # worker 1
//	grserved -addr :8102 -join http://127.0.0.1:8100  # worker 2
//
// The server drains in-flight requests and async jobs on SIGINT/SIGTERM and
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"graphrealize"
	"graphrealize/internal/cluster"
	"graphrealize/internal/jobs"
	"graphrealize/internal/serve"
)

// backendAPI is the union of the serving and job-manager backend seams,
// satisfied by both a local *graphrealize.Runner and a *cluster.Backend.
type backendAPI interface {
	SubmitCtx(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error)
	SubmitAllCtx(ctx context.Context, jobs []graphrealize.Job) ([]<-chan graphrealize.Result, error)
	SubmitReplayCtx(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error)
	Stats() graphrealize.RunnerStats
}

// deriveAdvertise turns a listen address into the default URL the
// coordinator can reach this worker at: wildcard hosts become loopback
// (single-machine clusters are the default topology; multi-host workers set
// -advertise explicitly).
func deriveAdvertise(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil || port == "" {
		return ""
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent realization jobs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "admitted jobs waiting for a worker before 429s (-1 = unbounded)")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "per-job execution deadline (0 = none)")
	maxN := flag.Int("max-n", 4096, "largest accepted sequence length")
	maxSeeds := flag.Int("max-seeds", 64, "largest accepted sweep seed count")
	cacheSize := flag.Int("cache", graphrealize.DefaultCacheSize, "result-cache capacity")
	asyncTimeout := flag.Duration("async-job-timeout", 15*time.Minute, "per-job deadline for async jobs (0 = same as -job-timeout, negative = none)")
	jobTTL := flag.Duration("job-ttl", 5*time.Minute, "async job retention after completion")
	jobGC := flag.Duration("job-gc", 0, "async job GC sweep interval (0 = job-ttl/4, capped at 30s)")
	maxJobs := flag.Int("max-jobs", 4096, "retained async job records before eviction/backpressure")
	dataDir := flag.String("data-dir", "", "directory for durable async job state (empty = in-memory only)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	pprofAddr := flag.String("pprof-addr", "", "separate listen address for net/http/pprof (empty = disabled)")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator: no local engine, jobs route to joined workers")
	join := flag.String("join", "", "coordinator base URL to join as a worker (e.g. http://127.0.0.1:8100)")
	advertise := flag.String("advertise", "", "base URL the coordinator reaches this worker at (default derived from -addr)")
	workerName := flag.String("worker-name", "", "stable cluster identity of this worker (default: the advertise URL)")
	heartbeat := flag.Duration("heartbeat", time.Second, "worker heartbeat interval when joined")
	suspectAfter := flag.Duration("suspect-after", 3*time.Second, "coordinator: heartbeat silence before a worker turns suspect")
	deadAfter := flag.Duration("dead-after", 10*time.Second, "coordinator: heartbeat silence before a worker turns dead (unroutable)")
	quiet := flag.Bool("quiet", false, "suppress per-request logging")
	flag.Parse()

	logger := log.New(os.Stderr, "grserved: ", log.LstdFlags)
	if *coordinator && *join != "" {
		logger.Fatalf("-coordinator and -join are mutually exclusive (a coordinator is never also a worker)")
	}

	// The backend is the one seam that changes with the role: a coordinator
	// routes jobs to its registered workers, everything else executes
	// locally. The serving and job-manager layers are identical either way.
	var backend backendAPI
	var clusterBackend *cluster.Backend
	if *coordinator {
		registry := cluster.NewRegistry(cluster.RegistryConfig{
			SuspectAfter: *suspectAfter,
			DeadAfter:    *deadAfter,
		})
		clusterBackend = cluster.NewBackend(cluster.BackendConfig{
			Registry: registry,
			Logf:     logger.Printf,
		})
		backend = clusterBackend
	} else {
		backend = graphrealize.NewRunnerConfig(graphrealize.RunnerConfig{
			Workers:    *workers,
			Queue:      *queue,
			JobTimeout: *jobTimeout,
			CacheSize:  *cacheSize,
		})
	}
	var store jobs.Store
	if *dataDir != "" {
		fs, err := jobs.OpenFileStore(*dataDir)
		if err != nil {
			logger.Fatalf("open data dir %s: %v", *dataDir, err)
		}
		store = fs
	}
	jcfg := jobs.Config{
		Backend:    backend,
		Retention:  *jobTTL,
		GCInterval: *jobGC,
		MaxJobs:    *maxJobs,
		JobTimeout: *asyncTimeout,
		Store:      store,
	}
	if *join != "" {
		// A cluster worker never re-runs in-flight jobs from its own durable
		// store: the coordinator owns routing and has already failed its
		// work over to a live worker (CLUSTER.md §6.4).
		jcfg.Owns = func(graphrealize.Job) bool { return false }
	}
	manager, err := jobs.Open(jcfg)
	if err != nil {
		logger.Fatalf("recover jobs from %s: %v", *dataDir, err)
	}
	if *dataDir != "" {
		js := manager.StatsSnapshot()
		logger.Printf("durable jobs in %s: recovered %d terminal, re-queued %d in-flight, %d reassigned (%d corrupt WAL records dropped)",
			*dataDir, js.RecoveredTerminal, js.RecoveredRequeued, js.RecoveredReassigned, js.Store.ReplayErrors)
	}
	cfg := serve.Config{
		Backend:  backend,
		Jobs:     manager,
		MaxN:     *maxN,
		MaxSeeds: *maxSeeds,
		Cluster:  clusterBackend,
	}
	if !*quiet {
		// One structured JSON record per request on stderr: trace_id, route,
		// method, path, status, elapsed_ms. Pipe-friendly (jq) and greppable
		// by the trace IDs echoed in X-Request-Id.
		cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	// pprof gets its own listener so profiling endpoints are never exposed on
	// the service address; bind it to loopback in production.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           pm,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof: %v", err)
			}
		}()
		logger.Printf("pprof listening on %s", *pprofAddr)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.New(cfg).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if *coordinator {
		logger.Printf("coordinator listening on %s (suspect-after=%s dead-after=%s max-n=%d job-ttl=%s)",
			*addr, *suspectAfter, *deadAfter, *maxN, *jobTTL)
	} else {
		logger.Printf("listening on %s (workers=%d queue=%d job-timeout=%s max-n=%d job-ttl=%s)",
			*addr, max(*workers, 0), *queue, *jobTimeout, *maxN, *jobTTL)
		if *workers <= 0 {
			logger.Printf("worker pool sized to GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
		}
	}

	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = deriveAdvertise(*addr)
		}
		if adv == "" {
			logger.Fatalf("-join: cannot derive an advertise URL from -addr %q; set -advertise", *addr)
		}
		name := *workerName
		if name == "" {
			name = adv
		}
		joiner, err := cluster.NewJoiner(cluster.JoinConfig{
			Coordinator: *join,
			Name:        name,
			Advertise:   adv,
			Capacity:    backend.Stats().Workers,
			Interval:    *heartbeat,
			Stats:       backend.Stats,
			Logf:        logger.Printf,
		})
		if err != nil {
			logger.Fatalf("-join: %v", err)
		}
		go joiner.Run(ctx)
	}

	select {
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	// One drain budget covers the HTTP listener and the job manager, drained
	// concurrently: an open SSE stream only ends when its job terminates, so
	// draining the manager strictly after srv.Shutdown would deadlock until
	// the budget expired and then force-cancel jobs that could have finished
	// in time.
	logger.Printf("shutting down, draining for up to %s", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- manager.Close(shutdownCtx) }()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	if err := <-drainDone; err != nil {
		logger.Printf("async drain forced cancellation: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatalf("serve: %v", err)
	}
	st := backend.Stats()
	js := manager.StatsSnapshot()
	logger.Printf("drained: %d completed, %d cache hits, %d rejected, %d failed; async: %d retained, %d evicted",
		st.Completed, st.CacheHits, st.Rejected, st.Failed, js.Retained, js.Evictions)
}
