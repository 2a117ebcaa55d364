package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphrealize"
	"graphrealize/internal/jobs"
	"graphrealize/internal/serve"
)

// openJobs opens a job manager, failing tb if it cannot.
func openJobs(tb testing.TB, cfg jobs.Config) *jobs.Manager {
	tb.Helper()
	m, err := jobs.Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// asyncServer wires a Server to a real Runner plus a job manager — the
// production configuration of the async API.
func asyncServer(t *testing.T) (http.Handler, *jobs.Manager) {
	t.Helper()
	runner := graphrealize.NewRunner(4)
	m := openJobs(t, jobs.Config{Backend: runner})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	s := serve.New(serve.Config{Backend: runner, Jobs: m, MaxN: 512})
	return s.Handler(), m
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// pollJob GETs the job until it reaches one of the wanted states.
func pollJob(t *testing.T, h http.Handler, id string, want ...string) serve.JobJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rec := do(t, h, http.MethodGet, "/v1/jobs/"+id, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET job: %d %s", rec.Code, rec.Body.String())
		}
		j := decodeInto[serve.JobJSON](t, rec)
		for _, w := range want {
			if j.State == w {
				return j
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return serve.JobJSON{}
}

func TestJobSubmitPollResult(t *testing.T) {
	h, _ := asyncServer(t)
	rec := do(t, h, http.MethodPost, "/v1/jobs", `{"kind":"degrees","sequence":[3,3,2,2,2,2],"options":{"seed":7},"label":"t"}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("want 202, got %d: %s", rec.Code, rec.Body.String())
	}
	j := decodeInto[serve.JobJSON](t, rec)
	if j.ID == "" || j.State != "queued" || j.Kind != "degrees" || j.N != 6 || j.Label != "t" {
		t.Fatalf("submission snapshot wrong: %+v", j)
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/jobs/"+j.ID {
		t.Fatalf("Location header wrong: %q", loc)
	}
	if j.Result != nil {
		t.Fatal("202 body must not carry a result")
	}

	done := pollJob(t, h, j.ID, "done")
	if done.Result == nil || done.Result.M != 7 || len(done.Result.Edges) != 7 {
		t.Fatalf("done job must carry the realization: %+v", done.Result)
	}
	if done.Result.Stats.Rounds <= 0 {
		t.Fatalf("result stats missing: %+v", done.Result.Stats)
	}
	if done.FinishedAt == nil {
		t.Fatal("done job must carry finished_at")
	}

	// omit_edges drops the edge list but keeps m.
	rec = do(t, h, http.MethodGet, "/v1/jobs/"+j.ID+"?omit_edges=1", "")
	if got := decodeInto[serve.JobJSON](t, rec); got.Result == nil || got.Result.Edges != nil || got.Result.M != 7 {
		t.Fatalf("omit_edges wrong: %+v", got.Result)
	}
}

func TestJobValidation(t *testing.T) {
	h, _ := asyncServer(t)
	cases := []struct {
		name, body string
		want       int
	}{
		{"unknown kind", `{"kind":"matching","sequence":[1,1]}`, http.StatusBadRequest},
		{"empty sequence", `{"kind":"degrees","sequence":[]}`, http.StatusBadRequest},
		{"bad options", `{"kind":"degrees","sequence":[1,1],"options":{"model":"ncc9"}}`, http.StatusBadRequest},
		{"unknown field", `{"kind":"degrees","sequenze":[1,1]}`, http.StatusBadRequest},
		{"unknown option", `{"kind":"degrees","sequence":[1,1],"options":{"scheduler":"flat"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rec := do(t, h, http.MethodPost, "/v1/jobs", tc.body); rec.Code != tc.want {
				t.Fatalf("want %d, got %d: %s", tc.want, rec.Code, rec.Body.String())
			}
		})
	}
	if rec := do(t, h, http.MethodGet, "/v1/jobs/nope", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job must 404, got %d", rec.Code)
	}
	if rec := do(t, h, http.MethodDelete, "/v1/jobs/nope", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("cancel of unknown job must 404, got %d", rec.Code)
	}
	if rec := do(t, h, http.MethodGet, "/v1/jobs/nope/events", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("events of unknown job must 404, got %d", rec.Code)
	}
	if rec := do(t, h, http.MethodGet, "/v1/jobs?state=bogus", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus state filter must 400, got %d", rec.Code)
	}
}

// TestJobUnrealizableLandsInFailed: input errors are job failures, not HTTP
// errors — the submission is still a 202.
func TestJobUnrealizableLandsInFailed(t *testing.T) {
	h, _ := asyncServer(t)
	rec := do(t, h, http.MethodPost, "/v1/jobs", `{"kind":"degrees","sequence":[3,3,1,1]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("want 202, got %d", rec.Code)
	}
	j := decodeInto[serve.JobJSON](t, rec)
	failed := pollJob(t, h, j.ID, "failed")
	if !strings.Contains(failed.Error, "not realizable") {
		t.Fatalf("failure cause missing: %+v", failed)
	}
}

func TestJobCancelFlow(t *testing.T) {
	h, _ := asyncServer(t)
	// OddEvenSort at n=256 runs long enough to cancel mid-flight.
	seq := make([]string, 256)
	for i := range seq {
		seq[i] = "4"
	}
	body := fmt.Sprintf(`{"kind":"degrees","sequence":[%s],"options":{"sort":"oddeven"}}`, strings.Join(seq, ","))
	rec := do(t, h, http.MethodPost, "/v1/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("want 202, got %d: %s", rec.Code, rec.Body.String())
	}
	j := decodeInto[serve.JobJSON](t, rec)
	pollJob(t, h, j.ID, "running")

	rec = do(t, h, http.MethodDelete, "/v1/jobs/"+j.ID, "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("cancel of a running job must 202, got %d", rec.Code)
	}
	got := pollJob(t, h, j.ID, "canceled")
	if got.Error == "" {
		t.Fatal("canceled job must carry the cancellation cause")
	}
	// A second DELETE is an idempotent no-op on the terminal job.
	if rec := do(t, h, http.MethodDelete, "/v1/jobs/"+j.ID, ""); rec.Code != http.StatusOK {
		t.Fatalf("cancel of a terminal job must 200, got %d", rec.Code)
	}
}

func TestJobEventsSSE(t *testing.T) {
	h, _ := asyncServer(t)
	seq := make([]string, 64)
	for i := range seq {
		seq[i] = "4"
	}
	body := fmt.Sprintf(`{"kind":"degrees","sequence":[%s],"options":{"seed":3}}`, strings.Join(seq, ","))
	rec := do(t, h, http.MethodPost, "/v1/jobs", body)
	j := decodeInto[serve.JobJSON](t, rec)

	// httptest.ResponseRecorder implements http.Flusher, and the handler
	// returns at the terminal event, so the full stream is in the body.
	stream := do(t, h, http.MethodGet, "/v1/jobs/"+j.ID+"/events", "")
	if stream.Code != http.StatusOK {
		t.Fatalf("events: %d %s", stream.Code, stream.Body.String())
	}
	if ct := stream.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("want SSE content type, got %q", ct)
	}

	var names []string
	var rounds []int
	sc := bufio.NewScanner(stream.Body)
	var current string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			current = strings.TrimPrefix(line, "event: ")
			names = append(names, current)
		case strings.HasPrefix(line, "data: "):
			var ev serve.JobEventJSON
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad event payload: %v in %q", err, line)
			}
			rounds = append(rounds, ev.Round)
		}
	}
	if len(names) == 0 || names[len(names)-1] != "done" {
		t.Fatalf("stream must end with a done event, got %v", names)
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i] < rounds[i-1] {
			t.Fatalf("SSE rounds must be monotone, got %v", rounds)
		}
	}
}

func TestJobListEndpoint(t *testing.T) {
	h, _ := asyncServer(t)
	var ids []string
	for i := 0; i < 3; i++ {
		rec := do(t, h, http.MethodPost, "/v1/jobs", fmt.Sprintf(`{"kind":"degrees","sequence":[2,2,2],"options":{"seed":%d}}`, i))
		ids = append(ids, decodeInto[serve.JobJSON](t, rec).ID)
	}
	for _, id := range ids {
		pollJob(t, h, id, "done")
	}
	rec := do(t, h, http.MethodGet, "/v1/jobs?state=done&limit=2", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d", rec.Code)
	}
	resp := decodeInto[serve.JobListResponse](t, rec)
	if len(resp.Jobs) != 2 {
		t.Fatalf("limit must cap rows, got %d", len(resp.Jobs))
	}
	if resp.Counts["done"] != 3 {
		t.Fatalf("counts must tally all retained jobs: %+v", resp.Counts)
	}
	if resp.Jobs[0].Result != nil {
		t.Fatal("list rows must not embed results")
	}
}

// TestJobRecoveredFlagOnWire: a job reloaded from a durable store serves
// its persisted result with "recovered":true, and /metrics exposes the
// recovery counters.
func TestJobRecoveredFlagOnWire(t *testing.T) {
	dir := t.TempDir()
	open := func() (*jobs.Manager, http.Handler) {
		fs, err := jobs.OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		runner := graphrealize.NewRunner(2)
		m, err := jobs.Open(jobs.Config{Backend: runner, Store: fs})
		if err != nil {
			t.Fatal(err)
		}
		return m, serve.New(serve.Config{Backend: runner, Jobs: m}).Handler()
	}

	m1, h1 := open()
	rec := do(t, h1, http.MethodPost, "/v1/jobs", `{"kind":"degrees","sequence":[3,3,2,2,2,2],"options":{"seed":7}}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("want 202, got %d: %s", rec.Code, rec.Body.String())
	}
	j := decodeInto[serve.JobJSON](t, rec)
	if j.Recovered {
		t.Fatal("a freshly submitted job must not be marked recovered")
	}
	before := pollJob(t, h1, j.ID, "done")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	m2, h2 := open()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m2.Close(ctx)
	}()
	got := pollJob(t, h2, j.ID, "done")
	if !got.Recovered {
		t.Fatalf("reloaded job must carry recovered: %+v", got)
	}
	if got.Result == nil || got.Result.M != before.Result.M || len(got.Result.Edges) != len(before.Result.Edges) {
		t.Fatalf("persisted result must be served after restart: %+v", got.Result)
	}
	metrics := do(t, h2, http.MethodGet, "/metrics", "")
	body := metrics.Body.String()
	for _, want := range []string{
		"graphrealize_async_store_durable 1",
		"graphrealize_async_recovered_terminal_total 1",
		"graphrealize_async_wal_records",
		"graphrealize_async_compactions_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestJobSubmitBackpressure(t *testing.T) {
	fb := &fakeBackend{
		submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
			return nil, graphrealize.ErrQueueFull
		},
		stats: graphrealize.RunnerStats{Workers: 1},
	}
	m := openJobs(t, jobs.Config{Backend: fb})
	defer m.Close(context.Background())
	h := serve.New(serve.Config{Backend: fb, Jobs: m}).Handler()
	rec := do(t, h, http.MethodPost, "/v1/jobs", `{"kind":"degrees","sequence":[1,1]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit must 429, got %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
}

func TestJobsDisabledWithoutManager(t *testing.T) {
	h := serve.New(serve.Config{Backend: graphrealize.NewRunner(1)}).Handler()
	if rec := do(t, h, http.MethodPost, "/v1/jobs", `{"kind":"degrees","sequence":[1,1]}`); rec.Code != http.StatusNotFound {
		t.Fatalf("async API without a manager must 404, got %d", rec.Code)
	}
}

// TestRetryAfterDerivedFromStats pins the satellite formula: backlog spread
// over workers times mean run latency, ceil'd and clamped to [1, 30].
func TestRetryAfterDerivedFromStats(t *testing.T) {
	cases := []struct {
		name  string
		stats graphrealize.RunnerStats
		want  string
	}{
		{
			name:  "cold runner hints 1",
			stats: graphrealize.RunnerStats{Workers: 2},
			want:  "1",
		},
		{
			// 6 backlogged jobs / 2 workers × 1s mean = 3s.
			name: "queue times mean latency",
			stats: graphrealize.RunnerStats{
				Workers: 2, Queued: 5, Active: 1,
				Executed: 10, TotalRun: 10 * time.Second,
			},
			want: "3",
		},
		{
			name: "clamped to 30",
			stats: graphrealize.RunnerStats{
				Workers: 1, Queued: 500, Active: 1,
				Executed: 2, TotalRun: 2 * time.Second,
			},
			want: "30",
		},
		{
			name: "sub-second backlog rounds up to 1",
			stats: graphrealize.RunnerStats{
				Workers: 8, Queued: 1,
				Executed: 100, TotalRun: time.Second,
			},
			want: "1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fb := &fakeBackend{
				submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
					return nil, graphrealize.ErrQueueFull
				},
				stats: tc.stats,
			}
			h := serve.New(serve.Config{Backend: fb}).Handler()
			rec := post(t, h, "/v1/realize/degree", `{"sequence":[1,1]}`)
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("want 429, got %d", rec.Code)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.want {
				t.Fatalf("Retry-After = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestMetricsExposition(t *testing.T) {
	h, m := asyncServer(t)
	rec := do(t, h, http.MethodPost, "/v1/jobs", `{"kind":"degrees","sequence":[2,2,2]}`)
	j := decodeInto[serve.JobJSON](t, rec)
	pollJob(t, h, j.ID, "done")
	if st := m.StatsSnapshot(); st.Jobs[jobs.StateDone] != 1 {
		t.Fatalf("precondition: one done job, got %+v", st.Jobs)
	}

	rec = do(t, h, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("wrong exposition content type: %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE graphrealize_runner_submitted_total counter",
		"graphrealize_runner_submitted_total 1",
		"graphrealize_runner_completed_total 1",
		"# TYPE graphrealize_async_jobs gauge",
		`graphrealize_async_jobs{state="done"} 1`,
		`graphrealize_async_jobs{state="queued"} 0`,
		"graphrealize_async_subscribers 0",
		"graphrealize_async_evictions_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestMetricsWithoutJobsManager(t *testing.T) {
	h := serve.New(serve.Config{Backend: graphrealize.NewRunner(1)}).Handler()
	rec := do(t, h, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "graphrealize_runner_workers") {
		t.Fatal("runner metrics must always be exposed")
	}
	if strings.Contains(body, "graphrealize_async_") {
		t.Fatal("async gauges must be absent without a job manager")
	}
}
