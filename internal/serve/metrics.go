package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"graphrealize/internal/cluster"
	"graphrealize/internal/obs"
)

// metrics.go renders GET /metrics in the Prometheus text exposition format
// (version 0.0.4) with no external dependencies: the Runner's admission /
// execution counters, per-route HTTP latency histograms, job queue-wait and
// run-duration histograms, the engine round histogram with phase
// counters, and — when the async subsystem is enabled — the job manager's
// per-state gauges, subscriber gauge, and GC eviction counter. Every family
// is emitted in a fixed order with sorted series, so consecutive scrapes of
// an idle server differ only in the metrics route's own latency series (each
// scrape observes the previous one) — pinned by TestMetricsStableAcrossScrapes.

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// metricsWriter accumulates one exposition document.
type metricsWriter struct {
	b strings.Builder
}

func (m *metricsWriter) gauge(name, help string, v float64) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

func (m *metricsWriter) counter(name, help string, v float64) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
}

// labeled emits one gauge family with a single label dimension, rows sorted
// for a stable exposition.
func (m *metricsWriter) labeled(name, help, label string, rows map[string]int) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&m.b, "%s{%s=%q} %d\n", name, label, k, rows[k])
	}
}

// histogram emits one histogram family; the caller passes series in its
// fixed exposition order.
func (m *metricsWriter) histogram(name, help string, series ...obs.HistogramSeries) {
	obs.WriteHistogram(&m.b, name, help, series...)
}

// labeledCounter is one row of a multi-label counter family. Labels must be
// pre-rendered with keys in alphabetical order.
type labeledCounter struct {
	labels string
	value  float64
}

func (m *metricsWriter) counterSeries(name, help string, rows []labeledCounter) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, row := range rows {
		fmt.Fprintf(&m.b, "%s{%s} %g\n", name, row.labels, row.value)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Backend.Stats()
	var mw metricsWriter

	mw.gauge("graphrealize_runner_workers", "Size of the Runner worker pool.", float64(st.Workers))
	mw.gauge("graphrealize_runner_queue_limit", "Admission queue bound (-1 = unbounded).", float64(st.QueueLimit))
	mw.gauge("graphrealize_runner_active_jobs", "Jobs executing right now.", float64(st.Active))
	mw.gauge("graphrealize_runner_queued_jobs", "Jobs admitted and waiting for a worker.", float64(st.Queued))
	mw.counter("graphrealize_runner_submitted_total", "Submissions accepted (including cache-served).", float64(st.Submitted))
	mw.counter("graphrealize_runner_rejected_total", "Submissions refused with queue-full backpressure.", float64(st.Rejected))
	mw.counter("graphrealize_runner_executed_total", "Jobs that acquired a worker.", float64(st.Executed))
	mw.counter("graphrealize_runner_completed_total", "Executed jobs that finished without error.", float64(st.Completed))
	mw.counter("graphrealize_runner_failed_total", "Executed jobs that finished with a non-cancellation error.", float64(st.Failed))
	mw.counter("graphrealize_runner_canceled_total", "Jobs abandoned by cancellation or timeout.", float64(st.Canceled))
	mw.counter("graphrealize_runner_cache_hits_total", "Submissions served from the result cache.", float64(st.CacheHits))
	mw.gauge("graphrealize_runner_cache_entries", "Distinct results currently cached.", float64(st.CacheLen))
	mw.counter("graphrealize_runner_wait_seconds_total", "Cumulative time jobs spent queued.", st.TotalWait.Seconds())
	mw.counter("graphrealize_runner_run_seconds_total", "Cumulative time jobs spent executing.", st.TotalRun.Seconds())

	// HTTP latency distributions, one series per fixed route label.
	routeSeries := make([]obs.HistogramSeries, 0, len(routeNames))
	for _, route := range routeNames {
		routeSeries = append(routeSeries, obs.HistogramSeries{
			Labels: fmt.Sprintf("route=%q", route),
			Snap:   s.routeHist[route].Snapshot(),
		})
	}
	mw.histogram("graphrealize_http_request_seconds", "HTTP request latency by route.", routeSeries...)

	if o := s.runnerObs; o != nil {
		mw.histogram("graphrealize_runner_queue_wait_seconds",
			"Time executed jobs spent queued for a worker.",
			obs.HistogramSeries{Snap: o.QueueWait.Snapshot()})
		mw.histogram("graphrealize_runner_job_run_seconds",
			"Execution time of jobs that acquired a worker.",
			obs.HistogramSeries{Snap: o.Run.Snapshot()})

		// Engine phase profile: a round-duration histogram, cumulative
		// per-phase wall time, and the round counter. Every series keeps
		// the scheduler label, fixed at the engine's one driver.
		p := o.Phases
		snap := p.Snapshot()
		driver := fmt.Sprintf("scheduler=%q", engineDriver)
		mw.histogram("graphrealize_engine_round_seconds", "Engine round duration.",
			obs.HistogramSeries{Labels: driver, Snap: p.Round.Snapshot()})
		mw.counterSeries("graphrealize_engine_phase_seconds_total",
			"Cumulative engine round wall time split by phase.", []labeledCounter{
				{labels: fmt.Sprintf("phase=%q,%s", "barrier", driver), value: snap.Barrier.Seconds()},
				{labels: fmt.Sprintf("phase=%q,%s", "compute", driver), value: snap.Compute.Seconds()},
				{labels: fmt.Sprintf("phase=%q,%s", "delivery", driver), value: snap.Delivery.Seconds()},
			})
		mw.counterSeries("graphrealize_engine_rounds_total", "Engine rounds profiled.",
			[]labeledCounter{{labels: driver, value: float64(snap.Rounds)}})
	}

	if s.cfg.Jobs != nil {
		js := s.cfg.Jobs.StatsSnapshot()
		byState := make(map[string]int, len(js.Jobs))
		for state, n := range js.Jobs {
			byState[string(state)] = n
		}
		mw.labeled("graphrealize_async_jobs", "Retained async jobs by lifecycle state.", "state", byState)
		mw.gauge("graphrealize_async_retained_jobs", "Total retained async job records.", float64(js.Retained))
		mw.gauge("graphrealize_async_subscribers", "Open job event subscriptions.", float64(js.Subscribers))
		mw.counter("graphrealize_async_evictions_total", "Async job records removed by GC or capacity eviction.", float64(js.Evictions))

		// Durability: recovery outcomes of the last restart plus the live
		// WAL/compaction gauges (all zero when -data-dir is unset).
		mw.gauge("graphrealize_async_store_durable", "1 when jobs are persisted to a data dir, 0 for in-memory.", b2f(js.Store.Durable))
		mw.counter("graphrealize_async_recovered_terminal_total", "Terminal jobs reloaded from the durable store at startup.", float64(js.RecoveredTerminal))
		mw.counter("graphrealize_async_recovered_requeued_total", "In-flight jobs re-queued from the durable store at startup.", float64(js.RecoveredRequeued))
		mw.counter("graphrealize_async_recovered_reassigned_total", "In-flight jobs not re-run at startup because this process no longer owns them.", float64(js.RecoveredReassigned))
		mw.counter("graphrealize_async_persist_errors_total", "Durable-store operations that failed (durability degraded).", float64(js.PersistErrors))
		// Segment gauges, not counters: both reset to zero at every
		// compaction, when the WAL is truncated into the snapshot.
		mw.gauge("graphrealize_async_wal_records", "Lifecycle records in the current WAL segment.", float64(js.Store.WALRecords))
		mw.gauge("graphrealize_async_wal_bytes", "Bytes in the current WAL segment.", float64(js.Store.WALBytes))
		mw.counter("graphrealize_async_compactions_total", "Snapshot compactions since startup.", float64(js.Store.Compactions))
		mw.counter("graphrealize_async_wal_replay_errors_total", "Corrupt or truncated WAL records dropped at startup.", float64(js.Store.ReplayErrors))
	}

	if c := s.cfg.Cluster; c != nil {
		// Coordinator families (CLUSTER.md §7.2): the member gauge always
		// emits all three state rows so dashboards see explicit zeros, plus
		// the control-plane and proxy counters.
		byState := map[string]int{
			string(cluster.StateAlive):   0,
			string(cluster.StateSuspect): 0,
			string(cluster.StateDead):    0,
		}
		for _, ws := range c.Registry().Snapshot() {
			byState[ws.State]++
		}
		mw.labeled("graphrealize_cluster_workers", "Registered workers by liveness state.", "state", byState)
		ct := c.Registry().Counters()
		pc := c.ProxyCounters()
		mw.counter("graphrealize_cluster_registrations_total", "Worker registrations accepted.", float64(ct.Registrations))
		mw.counter("graphrealize_cluster_heartbeats_total", "Worker heartbeats accepted.", float64(ct.Heartbeats))
		mw.counter("graphrealize_cluster_failovers_total", "Workers marked dead on proxy evidence (jobs re-routed).", float64(ct.Failovers))
		mw.counter("graphrealize_cluster_expired_total", "Worker records removed by liveness expiry.", float64(ct.Expired))
		mw.counter("graphrealize_cluster_proxied_total", "Jobs proxied to workers (including failover retries).", float64(pc.Proxied))
		mw.counter("graphrealize_cluster_proxy_errors_total", "Proxied jobs that hit a down worker and re-routed.", float64(pc.ProxyErrors))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = fmt.Fprint(w, mw.b.String())
}
