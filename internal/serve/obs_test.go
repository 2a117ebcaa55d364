package serve_test

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"graphrealize"
	"graphrealize/internal/serve"
)

// obs_test.go covers the observability layer end to end over httptest:
// trace-ID adoption/minting and propagation into jobs, the slowest-jobs
// endpoint, per-route latency histograms, and the validity and stability of
// the full /metrics exposition.

const seqBody = `{"sequence":[3,3,2,2,2,2]}`

func TestTraceIDAdoptedAndEchoed(t *testing.T) {
	h := realServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/realize/degree", strings.NewReader(seqBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "client-trace-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("realize: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-Id"); got != "client-trace-1" {
		t.Fatalf("valid client trace ID not echoed: got %q", got)
	}
}

func TestTraceIDMintedWhenMissingOrInvalid(t *testing.T) {
	h := realServer(t)
	for _, header := range []string{"", "has spaces", strings.Repeat("x", 300)} {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		if header != "" {
			req.Header.Set("X-Request-Id", header)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := rec.Header().Get("X-Request-Id")
		if got == "" || got == header {
			t.Fatalf("header %q: want a freshly minted trace ID, got %q", header, got)
		}
		if len(got) != 16 {
			t.Fatalf("minted trace ID %q has length %d, want 16", got, len(got))
		}
	}
}

// TestTraceIDThroughAsyncJob follows one X-Request-Id from submission through
// the job JSON, the SSE event stream, and the slowest-jobs flight recorder.
func TestTraceIDThroughAsyncJob(t *testing.T) {
	h, _ := asyncServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"kind":"degrees","sequence":[3,3,2,2,2,2]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "async-trace-7")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	sub := decodeInto[serve.JobJSON](t, rec)
	if sub.TraceID != "async-trace-7" {
		t.Fatalf("202 body trace_id = %q, want async-trace-7", sub.TraceID)
	}

	final := pollJob(t, h, sub.ID, "done")
	if final.TraceID != "async-trace-7" {
		t.Fatalf("job GET trace_id = %q, want async-trace-7", final.TraceID)
	}

	// The terminal SSE event carries the trace ID too.
	events := do(t, h, http.MethodGet, "/v1/jobs/"+sub.ID+"/events", "")
	if events.Code != http.StatusOK {
		t.Fatalf("events: %d", events.Code)
	}
	var sawTrace bool
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"trace_id":"async-trace-7"`) {
			sawTrace = true
		}
	}
	if !sawTrace {
		t.Fatal("no SSE event carried the trace ID")
	}

	// The executed job must be attributable in the flight recorder.
	slow := do(t, h, http.MethodGet, "/v1/debug/slowest", "")
	if slow.Code != http.StatusOK {
		t.Fatalf("slowest: %d", slow.Code)
	}
	resp := decodeInto[serve.SlowestResponse](t, slow)
	found := false
	for _, e := range resp.Slowest {
		if e.TraceID == "async-trace-7" {
			found = true
			if e.Kind != "degrees" || e.N != 6 || e.RunMS <= 0 {
				t.Fatalf("flight entry fields wrong: %+v", e)
			}
			if e.Rounds == 0 {
				t.Fatalf("flight entry recorded no engine rounds: %+v", e)
			}
		}
	}
	if !found {
		t.Fatalf("trace ID absent from /v1/debug/slowest: %+v", resp.Slowest)
	}
}

func TestSlowestEmptyWithScriptedBackend(t *testing.T) {
	fb := &fakeBackend{}
	h := serve.New(serve.Config{Backend: fb}).Handler()
	rec := do(t, h, http.MethodGet, "/v1/debug/slowest", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("slowest: %d", rec.Code)
	}
	resp := decodeInto[serve.SlowestResponse](t, rec)
	if len(resp.Slowest) != 0 {
		t.Fatalf("scripted backend reported flight entries: %+v", resp.Slowest)
	}
}

// TestMetricsHistogramsExposed pins the new families: per-route HTTP latency,
// job queue-wait and run histograms, and the engine phase series.
func TestMetricsHistogramsExposed(t *testing.T) {
	h := realServer(t)
	if rec := post(t, h, "/v1/realize/degree", seqBody); rec.Code != http.StatusOK {
		t.Fatalf("realize: %d", rec.Code)
	}
	rec := do(t, h, http.MethodGet, "/metrics", "")
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE graphrealize_http_request_seconds histogram",
		`graphrealize_http_request_seconds_bucket{route="realize",le="+Inf"} 1`,
		`graphrealize_http_request_seconds_count{route="realize"} 1`,
		`graphrealize_http_request_seconds_bucket{route="healthz",le="+Inf"} 0`,
		"# TYPE graphrealize_runner_queue_wait_seconds histogram",
		"graphrealize_runner_queue_wait_seconds_count 1",
		"# TYPE graphrealize_runner_job_run_seconds histogram",
		"graphrealize_runner_job_run_seconds_count 1",
		"# TYPE graphrealize_engine_round_seconds histogram",
		`graphrealize_engine_round_seconds_bucket{scheduler="flat",le="+Inf"}`,
		"# TYPE graphrealize_engine_phase_seconds_total counter",
		`graphrealize_engine_phase_seconds_total{phase="compute",scheduler="flat"}`,
		`graphrealize_engine_phase_seconds_total{phase="delivery",scheduler="flat"}`,
		"# TYPE graphrealize_engine_rounds_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	// The engine actually ran, so its round counter must be positive. The
	// scheduler label is kept, fixed at the engine's one driver, so scrapes
	// written when there were three still match.
	re := regexp.MustCompile(`graphrealize_engine_rounds_total\{scheduler="flat"\} (\d+)`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatal("engine rounds counter not found")
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Fatal("engine executed a job but profiled zero rounds")
	}
	if strings.Count(body, "graphrealize_engine_rounds_total{") != 1 {
		t.Fatal("engine rounds exported for more than one driver")
	}
}

// TestMetricsDecodeEncodeTimed: each realize request moves the decode
// histogram's count by one and the encode histogram's count for the
// encoding it was answered in, and nothing else of either.
func TestMetricsDecodeEncodeTimed(t *testing.T) {
	h := realServer(t)
	counts := func() string {
		var keep []string
		for _, line := range strings.Split(do(t, h, http.MethodGet, "/metrics", "").Body.String(), "\n") {
			if strings.HasPrefix(line, "graphrealize_http_decode_seconds_count") || strings.HasPrefix(line, "graphrealize_http_encode_seconds_count") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	for _, step := range []struct {
		send func() *httptest.ResponseRecorder
		want string
	}{
		{nil, `graphrealize_http_decode_seconds_count 0
graphrealize_http_encode_seconds_count{encoding="json"} 0
graphrealize_http_encode_seconds_count{encoding="graphwire"} 0`},
		{func() *httptest.ResponseRecorder { return post(t, h, "/v1/realize/degree", seqBody) }, `graphrealize_http_decode_seconds_count 1
graphrealize_http_encode_seconds_count{encoding="json"} 1
graphrealize_http_encode_seconds_count{encoding="graphwire"} 0`},
		{func() *httptest.ResponseRecorder { return postWire(t, h, "/v1/realize/degree", seqBody) }, `graphrealize_http_decode_seconds_count 2
graphrealize_http_encode_seconds_count{encoding="json"} 1
graphrealize_http_encode_seconds_count{encoding="graphwire"} 1`},
	} {
		if step.send != nil {
			if rec := step.send(); rec.Code != http.StatusOK {
				t.Fatalf("realize: %d: %s", rec.Code, rec.Body)
			}
		}
		if got := counts(); got != step.want {
			t.Fatalf("counts:\n%s\nwant:\n%s", got, step.want)
		}
	}
}

// TestMetricsStableAcrossScrapes pins exposition determinism: two
// consecutive scrapes of an otherwise idle server are identical except for
// the metrics route's own latency series (each scrape observes the one
// before it).
func TestMetricsStableAcrossScrapes(t *testing.T) {
	h, _ := asyncServer(t)
	rec := do(t, h, http.MethodPost, "/v1/jobs", `{"kind":"degrees","sequence":[2,2,2]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	pollJob(t, h, decodeInto[serve.JobJSON](t, rec).ID, "done")

	stripSelf := func(body string) string {
		var keep []string
		for _, line := range strings.Split(body, "\n") {
			if strings.Contains(line, `route="metrics"`) {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	a := do(t, h, http.MethodGet, "/metrics", "").Body.String()
	b := do(t, h, http.MethodGet, "/metrics", "").Body.String()
	if stripSelf(a) != stripSelf(b) {
		t.Fatalf("consecutive scrapes differ beyond the self-observation series:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestMetricsValidExposition parse-checks the whole payload against the
// Prometheus text format: every line is a comment or a sample, every sample
// value parses, and every family's HELP and TYPE precede its samples.
func TestMetricsValidExposition(t *testing.T) {
	h, _ := asyncServer(t)
	if rec := do(t, h, http.MethodPost, "/v1/jobs", `{"kind":"degrees","sequence":[2,2,2]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	body := do(t, h, http.MethodGet, "/metrics", "").Body.String()

	helpRe := regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)
	labelsRe := regexp.MustCompile(`^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\}$`)

	declared := map[string]bool{} // family → HELP+TYPE seen
	sawSamples := false
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if m := helpRe.FindStringSubmatch(line); m != nil {
			if declared[m[1]] {
				t.Fatalf("line %d: duplicate HELP for family %q", i+1, m[1])
			}
			continue
		}
		if m := typeRe.FindStringSubmatch(line); m != nil {
			declared[m[1]] = true
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is neither comment nor sample: %q", i+1, line)
		}
		sawSamples = true
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
		if !declared[m[1]] && !declared[family] {
			t.Fatalf("line %d: sample %q precedes its TYPE declaration", i+1, m[1])
		}
		if m[2] != "" && !labelsRe.MatchString(m[2]) {
			t.Fatalf("line %d: malformed label set %q", i+1, m[2])
		}
		if v := m[3]; v != "+Inf" && v != "-Inf" && v != "NaN" {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Fatalf("line %d: sample value %q does not parse: %v", i+1, v, err)
			}
		}
	}
	if !sawSamples {
		t.Fatal("exposition contained no samples")
	}
}

// TestStatsQuantilesAndPhases pins /v1/stats' histogram-derived run
// quantiles and engine phase report against a real Runner.
func TestStatsQuantilesAndPhases(t *testing.T) {
	h := realServer(t)
	if rec := post(t, h, "/v1/realize/degree", seqBody); rec.Code != http.StatusOK {
		t.Fatalf("realize: %d", rec.Code)
	}
	rec := do(t, h, http.MethodGet, "/v1/stats", "")
	st := decodeInto[serve.StatsResponse](t, rec)
	if st.Executed != 1 {
		t.Fatalf("executed = %d, want 1", st.Executed)
	}
	if st.P50RunMS <= 0 || st.P95RunMS < st.P50RunMS || st.P99RunMS < st.P95RunMS {
		t.Fatalf("quantiles not positive/monotone: p50=%g p95=%g p99=%g", st.P50RunMS, st.P95RunMS, st.P99RunMS)
	}
	if len(st.Phases) != 1 || st.Phases["flat"].Rounds == 0 {
		t.Fatalf("phases must report the engine's rounds under the single key \"flat\": %+v", st.Phases)
	}
	// A scripted backend without instruments omits the whole section.
	h2 := serve.New(serve.Config{Backend: &fakeBackend{stats: graphrealize.RunnerStats{Executed: 5}}}).Handler()
	st2 := decodeInto[serve.StatsResponse](t, do(t, h2, http.MethodGet, "/v1/stats", ""))
	if st2.Phases != nil || st2.P50RunMS != 0 {
		t.Fatalf("instrument-less backend leaked quantiles/phases: %+v", st2)
	}
}
