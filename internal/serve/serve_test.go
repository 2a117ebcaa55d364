package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphrealize"
	"graphrealize/internal/api"
	"graphrealize/internal/gen"
	"graphrealize/internal/jobs"
	"graphrealize/internal/serve"
)

// fakeBackend scripts the Backend seam so admission-control and
// cancellation paths are exercised deterministically, without real load.
type fakeBackend struct {
	submit func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error)
	stats  graphrealize.RunnerStats
}

func (f *fakeBackend) SubmitCtx(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
	return f.submit(ctx, j)
}

// SubmitReplayCtx satisfies jobs.Backend (the manager's recovery path); the
// fake has no admission bound to bypass, so it scripts like SubmitCtx.
func (f *fakeBackend) SubmitReplayCtx(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
	return f.submit(ctx, j)
}

func (f *fakeBackend) SubmitAllCtx(ctx context.Context, jobs []graphrealize.Job) ([]<-chan graphrealize.Result, error) {
	chans := make([]<-chan graphrealize.Result, len(jobs))
	for i, j := range jobs {
		ch, err := f.submit(ctx, j)
		if err != nil {
			return nil, err
		}
		chans[i] = ch
	}
	return chans, nil
}

func (f *fakeBackend) Stats() graphrealize.RunnerStats { return f.stats }

func resultChan(res graphrealize.Result) <-chan graphrealize.Result {
	ch := make(chan graphrealize.Result, 1)
	ch <- res
	return ch
}

// realServer wires a Server to a real Runner, the production configuration.
func realServer(t *testing.T) http.Handler {
	t.Helper()
	s := serve.New(serve.Config{Backend: graphrealize.NewRunner(4), MaxN: 64, MaxSeeds: 8})
	return s.Handler()
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeInto[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(rec.Body).Decode(&v); err != nil {
		t.Fatalf("response is not valid JSON: %v (body %q)", err, rec.Body.String())
	}
	return v
}

func TestRealizeDegreeHappyPath(t *testing.T) {
	h := realServer(t)
	rec := post(t, h, "/v1/realize/degree", `{"sequence":[3,3,2,2,2,2],"options":{"seed":7}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("want 200, got %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeInto[api.RealizeResponse](t, rec)
	if resp.Kind != "degrees" || resp.N != 6 || resp.M != 7 {
		t.Fatalf("unexpected realization: %+v", resp)
	}
	if len(resp.Edges) != 7 {
		t.Fatalf("want 7 edges, got %d", len(resp.Edges))
	}
	if resp.Stats.Rounds <= 0 || resp.Stats.Messages <= 0 {
		t.Fatalf("stats not populated: %+v", resp.Stats)
	}

	// An identical request is served from the Runner cache.
	rec = post(t, h, "/v1/realize/degree", `{"sequence":[3,3,2,2,2,2],"options":{"seed":7}}`)
	if resp := decodeInto[api.RealizeResponse](t, rec); !resp.Cached {
		t.Fatal("identical request must be served from the cache")
	}
}

func TestRealizeVariantsAndOmitEdges(t *testing.T) {
	h := realServer(t)

	rec := post(t, h, "/v1/realize/degree", `{"sequence":[2,2,2,2],"variant":"explicit","omit_edges":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("explicit: want 200, got %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeInto[api.RealizeResponse](t, rec); resp.Edges != nil || resp.M != 4 {
		t.Fatalf("omit_edges must drop the edge list but keep m: %+v", resp)
	}

	// The envelope variant succeeds on a non-graphic input and returns d'.
	rec = post(t, h, "/v1/realize/degree", `{"sequence":[3,3,1,1],"variant":"envelope"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("envelope: want 200, got %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeInto[api.RealizeResponse](t, rec); len(resp.Envelope) != 4 {
		t.Fatalf("envelope variant must return the envelope degrees: %+v", resp)
	}

	rec = post(t, h, "/v1/realize/tree", `{"sequence":[3,3,2,1,1,1,1,2],"variant":"mindiam"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("tree: want 200, got %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeInto[api.RealizeResponse](t, rec); resp.M != 7 {
		t.Fatalf("a tree on 8 vertices has 7 edges: %+v", resp)
	}

	rec = post(t, h, "/v1/realize/connectivity", `{"sequence":[2,2,1,1,1,1],"options":{"model":"ncc1"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("connectivity: want 200, got %d: %s", rec.Code, rec.Body.String())
	}
}

func TestRealizeRejectsMalformedRequests(t *testing.T) {
	h := realServer(t)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed json", "/v1/realize/degree", `{"sequence":[3,`, http.StatusBadRequest},
		{"unknown field", "/v1/realize/degree", `{"sequenze":[1,1]}`, http.StatusBadRequest},
		{"empty sequence", "/v1/realize/degree", `{"sequence":[]}`, http.StatusBadRequest},
		{"missing sequence", "/v1/realize/degree", `{}`, http.StatusBadRequest},
		{"bad variant", "/v1/realize/degree", `{"sequence":[1,1],"variant":"nope"}`, http.StatusBadRequest},
		{"bad model", "/v1/realize/degree", `{"sequence":[1,1],"options":{"model":"ncc9"}}`, http.StatusBadRequest},
		{"bad sort", "/v1/realize/degree", `{"sequence":[1,1],"options":{"sort":"bogo"}}`, http.StatusBadRequest},
		{"negative max_rounds", "/v1/realize/degree", `{"sequence":[2,2,2],"options":{"max_rounds":-1}}`, http.StatusBadRequest},
		{"negative cap_mul strict", "/v1/realize/degree", `{"sequence":[2,2,2],"options":{"cap_mul":-3,"strict":true}}`, http.StatusBadRequest},
		{"negative cap_mul", "/v1/realize/degree", `{"sequence":[2,2,2],"options":{"cap_mul":-3}}`, http.StatusBadRequest},
		{"max_rounds exceeded", "/v1/realize/degree", `{"sequence":[1,1],"options":{"max_rounds":1}}`, http.StatusBadRequest},
		{"sweep max_rounds exceeded", "/v1/sweep", `{"kind":"degrees","sequence":[1,1],"seeds":[1],"options":{"max_rounds":2}}`, http.StatusBadRequest},
		{"strict capacity violation", "/v1/realize/degree", `{"sequence":[2,2,2,2,2,2,2,2],"options":{"strict":true,"cap_mul":1,"sort":"merge"}}`, http.StatusBadRequest},
		{"sweep strict capacity violation", "/v1/sweep", `{"kind":"degrees","sequence":[2,2,2,2,2,2,2,2],"seeds":[0],"options":{"strict":true,"cap_mul":1,"sort":"merge"}}`, http.StatusBadRequest},
		{"unknown algorithm", "/v1/realize/matching", `{"sequence":[1,1]}`, http.StatusNotFound},
		{"unrealizable", "/v1/realize/degree", `{"sequence":[3,3,1,1]}`, http.StatusUnprocessableEntity},
		{"unrealizable tree", "/v1/realize/tree", `{"sequence":[3,3,3,3]}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, tc.path, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("want %d, got %d: %s", tc.want, rec.Code, rec.Body.String())
			}
			if e := decodeInto[api.ErrorResponse](t, rec); e.Error == "" {
				t.Fatal("error responses must carry a message")
			}
		})
	}
}

func TestRealizeOversizedN(t *testing.T) {
	h := realServer(t) // MaxN: 64
	seq := make([]string, 65)
	for i := range seq {
		seq[i] = "1"
	}
	body := fmt.Sprintf(`{"sequence":[%s]}`, strings.Join(seq, ","))
	rec := post(t, h, "/v1/realize/degree", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized n must be 413, got %d: %s", rec.Code, rec.Body.String())
	}
}

// TestRealizeLendsSequence: the realize route decodes each sequence into a
// pooled array and lends it to the Runner for the one job. Four goroutines
// post requests over eight sequences of different lengths, so arrays pass
// between requests while misses run and hits are served, and every answer
// must carry the edges a direct Execute of its own job gives. Under -race
// it also catches a Backend that reads j.Seq after delivering the Result.
func TestRealizeLendsSequence(t *testing.T) {
	h := serve.New(serve.Config{Backend: graphrealize.NewRunner(2), MaxN: 64}).Handler()
	type request struct {
		body  string
		edges [][2]int
	}
	requests := make([]request, 8)
	for i := range requests {
		rho, seed := gen.UniformRho(60-4*i, 3, int64(i+1)), int64(i)
		body, err := json.Marshal(api.RealizeRequest{Sequence: rho, Options: &api.OptionsJSON{Model: "ncc1", Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		res := graphrealize.Execute(context.Background(), graphrealize.Job{
			Kind: graphrealize.JobConnectivity, Seq: rho, Opt: &graphrealize.Options{Model: graphrealize.NCC1, Seed: seed},
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		requests[i] = request{string(body), res.Graph.Edges()}
	}
	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 3 * len(requests) {
				i := (3*g + k) % len(requests)
				rec := post(t, h, "/v1/realize/connectivity", requests[i].body)
				if rec.Code != http.StatusOK {
					t.Errorf("request %d: %d: %s", i, rec.Code, rec.Body)
					return
				}
				var resp api.RealizeResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				if !slices.Equal(resp.Edges, requests[i].edges) {
					t.Errorf("request %d (cached %v): edges differ from Execute of its own job", i, resp.Cached)
				}
				if resp.Cached {
					hits.Add(1)
				} else {
					misses.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if hits.Load() == 0 || misses.Load() == 0 {
		t.Fatalf("%d hits and %d misses: want both", hits.Load(), misses.Load())
	}
}

// TestRealizeOversizedBody: a body just over the 1 MiB cap is 413 on the
// realize, sweep and jobs routes, also when its first JSON value ends
// within the cap: the server reads the whole body before it decodes.
func TestRealizeOversizedBody(t *testing.T) {
	const limit = 1 << 20
	runner := graphrealize.NewRunner(1)
	m := openJobs(t, jobs.Config{Backend: runner})
	t.Cleanup(func() { _ = m.Close(context.Background()) })
	h := serve.New(serve.Config{Backend: runner, Jobs: m}).Handler()
	for _, path := range []string{"/v1/realize/degree", "/v1/sweep", "/v1/jobs"} {
		for _, body := range []string{
			`{"sequence":[` + strings.Repeat("1,", limit/2) + `1]}`,
			`{"kind":"degrees","sequence":[1,1]}` + strings.Repeat(" ", limit),
		} {
			if rec := post(t, h, path, body); rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s, %d-byte body: oversized body must be 413, got %d: %s", path, len(body), rec.Code, rec.Body)
			}
		}
	}
}

func TestQueueFullMapsTo429(t *testing.T) {
	fb := &fakeBackend{
		submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
			return nil, graphrealize.ErrQueueFull
		},
	}
	h := serve.New(serve.Config{Backend: fb}).Handler()
	rec := post(t, h, "/v1/realize/degree", `{"sequence":[1,1]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full must be 429, got %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After hint")
	}
}

func TestJobTimeoutMapsTo504(t *testing.T) {
	fb := &fakeBackend{
		submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
			return resultChan(graphrealize.Result{Job: j, Err: context.DeadlineExceeded}), nil
		},
	}
	h := serve.New(serve.Config{Backend: fb}).Handler()
	rec := post(t, h, "/v1/realize/degree", `{"sequence":[1,1]}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("job timeout must be 504, got %d", rec.Code)
	}
}

func TestCancellationMidJobMapsTo499(t *testing.T) {
	// The backend sees the request context die mid-job and hands back the
	// context's error, exactly as a real Runner does.
	fb := &fakeBackend{
		submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
			ch := make(chan graphrealize.Result, 1)
			go func() {
				<-ctx.Done()
				ch <- graphrealize.Result{Job: j, Err: ctx.Err()}
			}()
			return ch, nil
		},
	}
	h := serve.New(serve.Config{Backend: fb}).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/realize/degree",
		strings.NewReader(`{"sequence":[1,1]}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(rec, req)
		close(done)
	}()
	cancel()
	<-done
	if rec.Code != serve.StatusClientClosedRequest {
		t.Fatalf("abandoned job must map to 499, got %d", rec.Code)
	}
}

func TestSweep(t *testing.T) {
	h := realServer(t)
	body := `{"kind":"degrees","sequence":[3,3,2,2,2,2],"seed_count":3,"seed_start":10}`
	rec := post(t, h, "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("want 200, got %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeInto[serve.SweepResponse](t, rec)
	if resp.Seeds != 3 || len(resp.Rows) != 3 {
		t.Fatalf("want 3 rows, got %+v", resp)
	}
	for i, row := range resp.Rows {
		if row.Seed != int64(10+i) || row.M != 7 || row.Stats.Rounds <= 0 {
			t.Fatalf("row %d wrong: %+v", i, row)
		}
	}
	if resp.RoundsMin > resp.RoundsMedian || resp.RoundsMedian > resp.RoundsMax {
		t.Fatalf("round aggregates out of order: %+v", resp)
	}

	// The same sweep again is all cache hits.
	rec = post(t, h, "/v1/sweep", body)
	if resp := decodeInto[serve.SweepResponse](t, rec); resp.CacheHits != 3 {
		t.Fatalf("repeat sweep must be served from the cache, got %d hits", resp.CacheHits)
	}
}

func TestSweepValidation(t *testing.T) {
	h := realServer(t)
	cases := []struct {
		name, body string
		want       int
	}{
		{"unknown kind", `{"kind":"matching","sequence":[1,1],"seed_count":1}`, http.StatusBadRequest},
		{"unknown field", `{"kind":"degrees","sequenze":[1,1],"seed_count":1}`, http.StatusBadRequest},
		{"no seeds", `{"kind":"degrees","sequence":[1,1]}`, http.StatusBadRequest},
		{"too many seeds", `{"kind":"degrees","sequence":[1,1],"seed_count":9}`, http.StatusRequestEntityTooLarge},
		{"absurd seed_count rejected before allocation", `{"kind":"degrees","sequence":[1,1],"seed_count":10000000000}`, http.StatusRequestEntityTooLarge},
		{"unrealizable", `{"kind":"degrees","sequence":[3,3,1,1],"seed_count":2}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rec := post(t, h, "/v1/sweep", tc.body); rec.Code != tc.want {
				t.Fatalf("want %d, got %d: %s", tc.want, rec.Code, rec.Body.String())
			}
		})
	}
}

func TestSweepQueueFullIsAtomic(t *testing.T) {
	// A real Runner with capacity 2 (1 worker + 1 queue slot) cannot admit
	// a 4-seed sweep: the sweep must come back 429 with nothing admitted,
	// not a partial result.
	r := graphrealize.NewRunnerConfig(graphrealize.RunnerConfig{Workers: 1, Queue: 1})
	h := serve.New(serve.Config{Backend: r}).Handler()
	rec := post(t, h, "/v1/sweep", `{"kind":"degrees","sequence":[1,1],"seed_count":4}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated sweep must be 429, got %d: %s", rec.Code, rec.Body.String())
	}
	if st := r.Stats(); st.Submitted != 0 || st.Rejected != 4 {
		t.Fatalf("an unadmittable sweep must admit nothing: %+v", st)
	}
}

func TestHealthAndStats(t *testing.T) {
	r := graphrealize.NewRunnerConfig(graphrealize.RunnerConfig{Workers: 2, Queue: 5})
	h := serve.New(serve.Config{Backend: r}).Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	// Push one job through so the counters move.
	if res := <-r.Submit(graphrealize.Job{Kind: graphrealize.JobDegrees, Seq: []int{1, 1}}); res.Err != nil {
		t.Fatal(res.Err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	st := decodeInto[serve.StatsResponse](t, rec)
	if st.Workers != 2 || st.QueueLimit != 5 || st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("stats don't reflect the runner: %+v", st)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := realServer(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/realize/degree", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on a POST route must be 405, got %d", rec.Code)
	}
}

// retryAfterOf drives one queue-full request against a scripted backend and
// returns the Retry-After hint it produced.
func retryAfterOf(t *testing.T, h http.Handler) int {
	t.Helper()
	rec := post(t, h, "/v1/realize/degree", `{"sequence":[1,1]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %s", rec.Code, rec.Body.String())
	}
	secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After not an integer: %q", rec.Header().Get("Retry-After"))
	}
	return secs
}

// queueFullBackend scripts a saturated Runner with the given counters.
func queueFullBackend(stats graphrealize.RunnerStats) *fakeBackend {
	return &fakeBackend{
		submit: func(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
			return nil, graphrealize.ErrQueueFull
		},
		stats: stats,
	}
}

// TestRetryAfterClampEdges pins the [1, 30] clamp at both edges and the
// explicit cold-start fallback: a Runner that has never executed a job has no
// latency signal and must hint the 1-second floor, while an enormous backlog
// must cap at 30 seconds regardless of the estimate.
func TestRetryAfterClampEdges(t *testing.T) {
	t.Run("cold runner hints the 1s floor", func(t *testing.T) {
		h := serve.New(serve.Config{Backend: queueFullBackend(graphrealize.RunnerStats{
			Workers: 4, Queued: 100, Active: 4, Executed: 0,
		})}).Handler()
		if got := retryAfterOf(t, h); got != 1 {
			t.Fatalf("cold runner: want Retry-After 1, got %d", got)
		}
	})
	t.Run("fast jobs and small backlog hint the 1s floor", func(t *testing.T) {
		h := serve.New(serve.Config{Backend: queueFullBackend(graphrealize.RunnerStats{
			Workers: 4, Queued: 1, Active: 4, Executed: 1000, TotalRun: time.Second,
		})}).Handler()
		if got := retryAfterOf(t, h); got != 1 {
			t.Fatalf("fast workload: want Retry-After 1, got %d", got)
		}
	})
	t.Run("huge backlog clamps to 30s", func(t *testing.T) {
		h := serve.New(serve.Config{Backend: queueFullBackend(graphrealize.RunnerStats{
			Workers: 1, Queued: 10_000, Active: 1, Executed: 10, TotalRun: 50 * time.Second,
		})}).Handler()
		if got := retryAfterOf(t, h); got != 30 {
			t.Fatalf("saturated workload: want Retry-After 30, got %d", got)
		}
	})
}

// TestRetryAfterEmptyWindowFallback pins the fallback ladder: a hint computed
// while no job finished since the previous hint must reuse the previous
// window's mean instead of degenerating, so back-to-back 429s under a stalled
// Runner give consistent advice.
func TestRetryAfterEmptyWindowFallback(t *testing.T) {
	fb := queueFullBackend(graphrealize.RunnerStats{
		Workers: 1, Queued: 4, Active: 1, Executed: 10, TotalRun: 20 * time.Second,
	})
	h := serve.New(serve.Config{Backend: fb}).Handler()
	first := retryAfterOf(t, h) // 5 jobs backlog × 2s mean = 10s
	if first != 10 {
		t.Fatalf("first hint: want 10, got %d", first)
	}
	// Same counters again: the execution window is empty (dExec == 0), and
	// the hint must fall back to the previous window's mean, not recompute a
	// degenerate value.
	if second := retryAfterOf(t, h); second != first {
		t.Fatalf("empty-window hint: want %d (previous mean reused), got %d", first, second)
	}
}

// TestSchedulerOptionOnWire pins the retired scheduler request field:
// clients written against the three-driver engine still send it, so the
// decoder keeps accepting "barrier", "pool" and "flat" in any case and
// ignores them — the realization is exactly the one the request without the
// field gets — while any other value is still a 400.
func TestSchedulerOptionOnWire(t *testing.T) {
	h := realServer(t)
	const seq = `[3,3,2,2,2,2,1,1]`
	plain := decodeInto[api.RealizeResponse](t, post(t, h, "/v1/realize/degree",
		`{"sequence":`+seq+`,"options":{"seed":5}}`))
	if len(plain.Edges) == 0 {
		t.Fatal("reference request returned no edges")
	}
	for _, sched := range []string{"pool", "barrier", "FLAT"} {
		rec := post(t, h, "/v1/realize/degree", `{"sequence":`+seq+`,"options":{"seed":5,"scheduler":"`+sched+`"}}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("scheduler %q: %d %s", sched, rec.Code, rec.Body.String())
		}
		got := decodeInto[api.RealizeResponse](t, rec)
		if !reflect.DeepEqual(got.Edges, plain.Edges) || got.Stats != plain.Stats {
			t.Fatalf("scheduler %q changed the result:\n got %+v %v\nwant %+v %v",
				sched, got.Stats, got.Edges, plain.Stats, plain.Edges)
		}
	}
	if rec := post(t, h, "/v1/realize/degree", `{"sequence":[1,1],"options":{"scheduler":"fiber"}}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown scheduler must be 400, got %d", rec.Code)
	}
}

// TestRetiredSchedulerSharesCacheEntry: the driver is no longer part of the
// result cache key, so requests that differ only in the retired scheduler
// field share one cache entry instead of one per driver.
func TestRetiredSchedulerSharesCacheEntry(t *testing.T) {
	h := realServer(t)
	bodies := []string{
		`{"sequence":[2,2,2],"options":{"seed":4}}`,
		`{"sequence":[2,2,2],"options":{"seed":4,"scheduler":"barrier"}}`,
		`{"sequence":[2,2,2],"options":{"seed":4,"scheduler":"pool"}}`,
		`{"sequence":[2,2,2],"options":{"seed":4,"scheduler":"flat"}}`,
	}
	for i, body := range bodies {
		rec := post(t, h, "/v1/realize/degree", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if got := decodeInto[api.RealizeResponse](t, rec); got.Cached != (i > 0) {
			t.Fatalf("request %d (%s): cached=%v, want %v", i, body, got.Cached, i > 0)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if st := decodeInto[serve.StatsResponse](t, rec); st.CacheLen != 1 || st.Executed != 1 {
		t.Fatalf("cache_len=%d executed=%d, want one entry from one execution", st.CacheLen, st.Executed)
	}
}
