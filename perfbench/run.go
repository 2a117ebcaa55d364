package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"graphrealize"
	"graphrealize/internal/wire"
)

// run.go sequences one run — set-ups, timed phases, checks — and derives
// its metrics.

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"setup_s", "s"},
	{"alloc_kb_per_op", "KB"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"ncc.rounds_per_job", "rounds"},
	{"ncc.compute_ms_per_job", "ms"},
	{"ncc.delivery_ms_per_job", "ms"},
	{"ncc.barrier_ms_per_job", "ms"},
	{"ncc.us_per_round", "us"},
	{"core.rounds_per_job", "rounds"},
	{"core.msgs_per_job", "msgs"},
	{"core.phases_per_job", "phases"},
	{"trees.rounds_per_job", "rounds"},
	{"trees.msgs_per_job", "msgs"},
	{"connectivity.rounds_per_job", "rounds"},
	{"connectivity.msgs_per_job", "msgs"},
	{"runner.cache_hit_ratio", "ratio"},
	{"runner.run_ms_mean", "ms"},
	{"runner.queue_wait_ms_mean", "ms"},
	{"runner.run_share_of_handler", "ratio"},
	{"facade.self_ms_per_job", "ms"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.self_ms_p50", "ms"},
	{"serve.resp_kb", "KB"},
	{"json.encode_us_per_resp", "us"},
	{"wire.encode_us_per_resp", "us"},
	{"wire.decode_us_per_resp", "us"},
	{"wire.resp_kb", "KB"},
	{"cluster.hop_ms_p50", "ms"},
	{"cluster.hop_ms_p95", "ms"},
	{"cluster.proxied", "count"},
	{"cluster.proxy_errors", "count"},
	{"cluster.failovers", "count"},
	{"cluster.worker_hit_ratio", "ratio"},
	{"cluster.shard_skew", "ratio"},
	{"http.client_overhead_ms_p50", "ms"},
	{"runtime.gc_per_kop", "gc/kop"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.goroutines_max", "goroutines"},
	{"trace.overhead_frac", "ratio"},
}

// config sets one run's size.
type config struct {
	// seconds is the timed phase's length; a traced run splits it evenly
	// between an untraced and a traced phase.
	seconds float64
	// ops, when positive, makes every timed phase send exactly ops
	// requests instead, so two runs send the same requests.
	ops   int
	trace bool
}

// report is one run's outcome.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info     map[string]any
	spans    []span
	requests [sha256.Size]byte
}

func runWorkload(w *workload, seed int64, cfg config) (*report, error) {
	var tr *tracer
	n := setups
	if cfg.trace {
		tr = newTracer()
		n = 1
	}
	b := newBench(w, seed, tr)
	defer b.close()
	var setupS []float64
	for range n {
		// The previous set-up's stack and state go before the clock
		// starts, so every set-up starts from the same empty heap.
		b.close()
		b.release()
		runtime.GC()
		start := time.Now()
		if err := b.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	b.keepBelow = keepTimed
	rep := &report{Metrics: make(map[string]metric)}
	rep.info = map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"clients":    clients,
		"setups_s":   setupS,
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	runtime.GC()
	if cfg.trace {
		timed, err := b.traced(rep, cfg, dur)
		if err != nil {
			return nil, err
		}
		b.account(rep, timed)
		return rep, nil
	}
	before := readRuntime()
	ph := b.phase(b.timedOp, 0, cfg.ops, dur, false)
	after := readRuntime()
	ok := len(ph.samples) - failedCount(ph.samples)
	win := windowStats(ph, dur)
	rep.set("throughput_rps", win.throughput)
	rep.set("p50_ms", finite(win.p50))
	rep.set("tail_ms", finite(win.p95))
	rep.set("setup_s", median(setupS))
	rep.set("alloc_kb_per_op", float64(after.allocBytes-before.allocBytes)/1024/float64(max(ok, 1)))
	rep.info["timed_s"] = ph.elapsed.Seconds()
	rep.info["samples"] = len(ph.samples)
	rep.info["windows"] = win.windows
	rep.info["statistic"] = "mean over the middle six of ten windows of each window's throughput and exact p50 and p95"
	rep.info["whole_phase"] = wholePhase(ph)
	b.account(rep, ph.samples)
	// The benchmark's own records, inputs and answers are dropped first, so
	// the live heap is what the servers retain (cache contents, connection
	// state) plus the runtime's and the benchmark's fixed state.
	ph.samples = nil
	b.release()
	rep.set("live_heap_mb", float64(liveHeap())/(1<<20))
	return rep, nil
}

// account fills in the request counts, runs the post-phase checks and
// records the run's request digest.
func (b *bench) account(rep *report, timed []sample) {
	rep.Attempted = len(timed)
	rep.Failed = failedCount(timed)
	rep.info["per_kind"] = perKind(timed)
	pairFailures, pairErr := b.checkConnectivity()
	if pairErr != nil {
		b.fail(pairErr)
	}
	rep.Failed += pairFailures
	rep.Correct = rep.Failed == 0
	if b.firstErr != nil {
		rep.info["first_error"] = b.firstErr.Error()
	}
	rep.requests = requestDigest(b.warm, b.timedOp, timed)
}

// timedWindows is how many equal windows an untraced timed phase is cut
// into.
const timedWindows = 10

// windowed is a timed phase's end-to-end statistics.
type windowed struct {
	throughput, p50, p95 float64
	windows              int
}

// windowStats cuts a timed phase into windows by completion time and
// returns the trimmed mean over the windows of each one's throughput and
// exact p50 and p95 latency. On a shared machine the host takes CPU time in
// bursts of seconds; trimming leaves a burst that covers up to two windows
// of ten out, where a single order statistic over the whole phase takes it
// in. A slowdown over three or more windows still moves the figures. A
// phase bounded by a request count is one window.
func windowStats(ph phaseOut, d time.Duration) windowed {
	n, width := timedWindows, d/timedWindows
	if d <= 0 {
		n, width = 1, ph.elapsed
	}
	groups := make([][]sample, n)
	for _, s := range ph.samples {
		k := min(int(s.done/max(width, 1)), n-1)
		groups[k] = append(groups[k], s)
	}
	var tput, p50, p95 []float64
	for k, g := range groups {
		span := width
		if k == n-1 {
			span = ph.elapsed - time.Duration(n-1)*width // the last window also holds the requests in flight at the deadline
		}
		tput = append(tput, ratio(float64(len(g)-failedCount(g)), span.Seconds()))
		if len(g) > 0 {
			lat := latencies(g)
			p50 = append(p50, quantile(lat, 0.50))
			p95 = append(p95, quantile(lat, 0.95))
		}
	}
	return windowed{throughput: trimmedMean(tput), p50: trimmedMean(p50), p95: trimmedMean(p95), windows: n}
}

// wholePhase is a timed phase's throughput and exact p50 and p95 over every
// sample, without windows, recorded beside the windowed figures.
func wholePhase(ph phaseOut) map[string]float64 {
	lat := latencies(ph.samples)
	return map[string]float64{
		"throughput_rps": float64(len(lat)-failedCount(ph.samples)) / ph.elapsed.Seconds(),
		"p50_ms":         finite(quantile(lat, 0.50)),
		"p95_ms":         finite(quantile(lat, 0.95)),
	}
}

// traced runs a traced run's timed phase: an untraced quarter, the traced
// half and another untraced quarter. The per-layer metrics come from the
// traced half; the trace overhead compares it with the two quarters around
// it, so throughput that drifts through a run cancels out. It returns the
// samples of all three parts.
func (b *bench) traced(rep *report, cfg config, dur time.Duration) ([]sample, error) {
	ctl := statsClient()
	defer ctl.CloseIdleConnections()
	before := b.phase(b.timedOp, 0, cfg.ops, dur/4, false)
	s0, err := b.stats(ctl)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	b.tr.on.Store(true)
	stop := make(chan struct{})
	peak := maxGoroutines(stop)
	ph := b.phase(b.timedOp, before.next, cfg.ops, dur/2, true)
	close(stop)
	b.tr.on.Store(false)
	rt1 := readRuntime()
	s1, err := b.stats(ctl)
	if err != nil {
		return nil, err
	}
	after := b.phase(b.timedOp, ph.next, cfg.ops, dur/4, false)

	b.tr.mu.Lock()
	spans := b.tr.spans
	b.tr.mu.Unlock()
	rep.spans = spans
	byReq := link(spans, b.st.entry.name)

	var handler, self, client, hop []float64
	var handlerTotal time.Duration
	for _, s := range ph.samples {
		rs := byReq[fmt.Sprintf("perfbench-%d", s.index)]
		if rs == nil || rs.entry == nil {
			continue
		}
		handlerTotal += rs.entry.dur()
		handler = append(handler, ms(rs.entry.dur()))
		var children []*span
		if rs.entryBackend != nil {
			children = append(children, rs.entryBackend)
		}
		self = append(self, ms(selfTime(rs.entry, children)))
		if rs.client != nil {
			client = append(client, ms(rs.client.dur()-rs.entry.dur()))
		}
		if rs.worker != nil {
			hop = append(hop, ms(rs.entry.dur()-rs.worker.dur()))
		}
	}
	for _, xs := range [][]float64{handler, self, client, hop} {
		slices.Sort(xs)
	}

	ok := len(ph.samples) - failedCount(ph.samples)
	eng := b.engineDelta(s0, s1)
	perJob := func(x float64) float64 { return ratio(x, float64(eng.executed)) }
	phaseS := eng.computeS + eng.deliveryS + eng.barrierS
	rep.set("ncc.rounds_per_job", perJob(float64(eng.rounds)))
	rep.set("ncc.compute_ms_per_job", perJob(eng.computeS*1000))
	rep.set("ncc.delivery_ms_per_job", perJob(eng.deliveryS*1000))
	rep.set("ncc.barrier_ms_per_job", perJob(eng.barrierS*1000))
	rep.set("ncc.us_per_round", ratio(phaseS*1e6, float64(eng.rounds)))
	protocolCounts(rep, ph.samples)
	rep.set("runner.cache_hit_ratio", ratio(float64(eng.hits), float64(eng.submitted)))
	rep.set("runner.run_ms_mean", perJob(eng.runMS))
	rep.set("runner.queue_wait_ms_mean", perJob(eng.waitMS))
	rep.set("runner.run_share_of_handler", ratio(eng.runMS, ms(handlerTotal)))
	rep.set("facade.self_ms_per_job", perJob(eng.runMS-phaseS*1000))
	rep.set("serve.handler_ms_p50", quantile(handler, 0.5))
	rep.set("serve.self_ms_p50", quantile(self, 0.5))
	rep.set("serve.resp_kb", meanBytes(ph.samples)/1024)
	b.encoderCosts(rep)
	b.clusterMetrics(rep, s0, s1, hop)
	rep.set("http.client_overhead_ms_p50", quantile(client, 0.5))
	rep.set("runtime.gc_per_kop", ratio(float64(rt1.gcCycles-rt0.gcCycles)*1000, float64(ok)))
	rep.set("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	rep.set("runtime.goroutines_max", float64(<-peak))
	plain := append(slices.Clone(before.samples), after.samples...)
	plainRate := float64(len(plain)-failedCount(plain)) / (before.elapsed + after.elapsed).Seconds()
	rep.set("trace.overhead_frac", 1-ratio(float64(ok)/ph.elapsed.Seconds(), plainRate))
	rep.info["untraced_timed_s"] = (before.elapsed + after.elapsed).Seconds()
	rep.info["traced_timed_s"] = ph.elapsed.Seconds()
	rep.info["samples"] = map[string]int{"untraced": len(plain), "traced": len(ph.samples), "spans": len(spans)}
	return append(plain, ph.samples...), nil
}

// engineTotals sums the Runner counters of every simulating server.
type engineTotals struct {
	submitted, executed, hits, rounds int64
	runMS, waitMS                     float64
	computeS, deliveryS, barrierS     float64
}

func (b *bench) engineDelta(s0, s1 statsSnap) engineTotals {
	sum := func(s statsSnap) engineTotals {
		var t engineTotals
		for i, srv := range b.st.servers {
			if !srv.engine {
				continue
			}
			d := s[i]
			t.submitted += d.Submitted
			t.executed += d.Executed
			t.hits += d.CacheHits
			t.runMS += d.AvgRunMS * float64(d.Executed)
			t.waitMS += d.AvgWaitMS * float64(d.Executed)
			for _, p := range d.Phases { // every driver the server lists
				t.rounds += p.Rounds
				t.computeS += p.ComputeS
				t.deliveryS += p.DeliveryS
				t.barrierS += p.BarrierS
			}
		}
		return t
	}
	a, z := sum(s0), sum(s1)
	return engineTotals{
		submitted: z.submitted - a.submitted,
		executed:  z.executed - a.executed,
		hits:      z.hits - a.hits,
		rounds:    z.rounds - a.rounds,
		runMS:     z.runMS - a.runMS,
		waitMS:    z.waitMS - a.waitMS,
		computeS:  z.computeS - a.computeS,
		deliveryS: z.deliveryS - a.deliveryS,
		barrierS:  z.barrierS - a.barrierS,
	}
}

// protocolCounts averages the exact round, message and phase counts the
// answers report, per protocol family.
func protocolCounts(rep *report, samples []sample) {
	type acc struct {
		n                    int
		rounds, msgs, phases int64
	}
	var core, trees, conn acc
	for _, s := range samples {
		if !s.ok {
			continue
		}
		a := &conn
		switch {
		case s.kind.isDegree():
			a = &core
		case s.kind.isTree():
			a = &trees
		}
		a.n++
		a.rounds += int64(s.stats.Rounds)
		a.msgs += s.stats.Messages
		a.phases += int64(s.stats.Phases)
	}
	per := func(x int64, a acc) float64 { return ratio(float64(x), float64(a.n)) }
	rep.set("core.rounds_per_job", per(core.rounds, core))
	rep.set("core.msgs_per_job", per(core.msgs, core))
	rep.set("core.phases_per_job", per(core.phases, core))
	rep.set("trees.rounds_per_job", per(trees.rounds, trees))
	rep.set("trees.msgs_per_job", per(trees.msgs, trees))
	rep.set("connectivity.rounds_per_job", per(conn.rounds, conn))
	rep.set("connectivity.msgs_per_job", per(conn.msgs, conn))
}

// clusterMetrics reads the coordinator's proxy counters and the workers'
// cache counters; all are 0 on a single node.
func (b *bench) clusterMetrics(rep *report, s0, s1 statsSnap, hop []float64) {
	var proxied, proxyErrors, failovers float64
	if c0, c1 := s0[0].Cluster, s1[0].Cluster; c0 != nil && c1 != nil {
		proxied = float64(c1.Proxied - c0.Proxied)
		proxyErrors = float64(c1.ProxyErrors - c0.ProxyErrors)
		failovers = float64(c1.Failovers - c0.Failovers)
	}
	var hits, submitted, most int64
	workers := 0
	if b.w.cluster {
		for i, srv := range b.st.servers {
			if !srv.engine {
				continue
			}
			workers++
			sub := s1[i].Submitted - s0[i].Submitted
			hits += s1[i].CacheHits - s0[i].CacheHits
			submitted += sub
			most = max(most, sub)
		}
	}
	rep.set("cluster.hop_ms_p50", quantile(hop, 0.5))
	rep.set("cluster.hop_ms_p95", quantile(hop, 0.95))
	rep.set("cluster.proxied", proxied)
	rep.set("cluster.proxy_errors", proxyErrors)
	rep.set("cluster.failovers", failovers)
	rep.set("cluster.worker_hit_ratio", ratio(float64(hits), float64(submitted)))
	rep.set("cluster.shard_skew", ratio(float64(most)*float64(workers), float64(submitted)))
}

// jsonDoc is the JSON realization response as the server encodes it.
type jsonDoc struct {
	Kind      string    `json:"kind"`
	N         int       `json:"n"`
	M         int       `json:"m"`
	Edges     [][2]int  `json:"edges,omitempty"`
	Stats     respStats `json:"stats"`
	Cached    bool      `json:"cached"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// encoderCosts times JSON and graphwire encoding, and graphwire decoding,
// on the run's own result graphs.
func (b *bench) encoderCosts(rep *report) {
	var graphs []*graphrealize.Graph
	for _, k := range b.graphs() {
		graphs = append(graphs, &graphrealize.Graph{N: len(k.adj), Adj: k.adj})
	}
	encoded := make([][]byte, len(graphs))
	var wireBytes int
	for i, g := range graphs {
		enc, err := wire.EncodeGraph(g.N, g.Adj)
		if err != nil {
			b.fail(err)
			return
		}
		encoded[i] = enc
		wireBytes += len(enc)
	}
	rep.set("json.encode_us_per_resp", timeEach(len(graphs), func(i int) {
		g := graphs[i]
		if _, err := json.Marshal(jsonDoc{Kind: "graph", N: g.N, M: g.M(), Edges: g.Edges()}); err != nil {
			b.fail(err)
		}
	}))
	rep.set("wire.encode_us_per_resp", timeEach(len(graphs), func(i int) {
		if _, err := wire.EncodeGraph(graphs[i].N, graphs[i].Adj); err != nil {
			b.fail(err)
		}
	}))
	rep.set("wire.decode_us_per_resp", timeEach(len(graphs), func(i int) {
		if _, err := wire.Decode(bytes.NewReader(encoded[i])); err != nil {
			b.fail(err)
		}
	}))
	rep.set("wire.resp_kb", ratio(float64(wireBytes)/1024, float64(len(graphs))))
}

// timeEach calls f on every index, in passes, until 100ms have passed, and
// returns the mean time of one call in microseconds.
func timeEach(n int, f func(int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for i := range n {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(start).Microseconds()) / float64(calls)
}

func (r *report) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is x/y, or 0 when y is 0 (the layer did no work).
func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// latencies returns every sample's latency in ms, sorted; a failed request
// counts as infinitely slow.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = math.Inf(1)
		if s.ok {
			out[i] = ms(s.lat)
		}
	}
	slices.Sort(out)
	return out
}

// quantile is the exact nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// trimmedMean is the mean of xs without its lowest and highest fifth.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := len(s) / 5
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// finite caps an infinite latency (a failed request) at the largest
// number JSON can carry.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

func failedCount(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

func meanBytes(samples []sample) float64 {
	total, n := 0, 0
	for _, s := range samples {
		if s.ok {
			total += s.bytes
			n++
		}
	}
	return ratio(float64(total), float64(n))
}

// kindCount is one request type's attempted and failed requests and its
// median latency.
type kindCount struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	P50MS     float64 `json:"p50_ms"`
}

// perKind counts requests attempted and failed per request type.
func perKind(samples []sample) map[string]*kindCount {
	byKind := make(map[kind][]sample)
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], s)
	}
	out := make(map[string]*kindCount, len(byKind))
	for k, ss := range byKind {
		n := failedCount(ss)
		out[k.String()] = &kindCount{Attempted: len(ss), Failed: n, P50MS: finite(quantile(latencies(ss), 0.5))}
	}
	return out
}
