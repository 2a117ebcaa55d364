package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"graphrealize"
	"graphrealize/internal/api"
	"graphrealize/internal/gen"
	"graphrealize/internal/serve"
)

// BenchmarkServeRealizeCached is the realize route's JSON path on a cache
// hit, perfbench hot-edges' request in process: an n=4096 NCC1 connectivity
// job (about 10k edges, 115 KB of JSON) that the Runner already holds. The
// engine does no work; decoding the sequence and encoding the edge list do.
func BenchmarkServeRealizeCached(b *testing.B) {
	h, request := cachedRealize(b)
	b.ReportAllocs()
	for b.Loop() {
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, request())
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestServeRealizeCachedAllocs pins the handler's garbage on
// BenchmarkServeRealizeCached's request, one cached hit: its bytes and its
// allocations stay at most 3% above their measured counts (go1.24.0).
// Requests and writers are built before the count starts, so it counts the
// server alone.
func TestServeRealizeCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's sync.Pool drops items on purpose, so counts vary")
	}
	const maxBytes, maxAllocs = 1_376, 19 // measured: 1,336 bytes, 19 allocations
	h, request := cachedRealize(t)
	const runs = 20
	reqs := make([]*http.Request, runs+1)
	writers := make([]*discardWriter, runs+1)
	for i := range reqs {
		reqs[i], writers[i] = request(), &discardWriter{header: make(http.Header, 4)}
	}
	i := 0
	size, allocs := perRun(runs, func() {
		h.ServeHTTP(writers[i], reqs[i])
		if writers[i].code != http.StatusOK {
			t.Fatalf("status %d", writers[i].code)
		}
		i++
	})
	t.Logf("%d bytes, %d allocations per cached hit", size, allocs)
	if size > maxBytes || allocs > maxAllocs {
		t.Fatalf("%d bytes and %d allocations per cached hit, ceilings %d and %d", size, allocs, maxBytes, maxAllocs)
	}
}

// perRun returns f's heap bytes and allocations per call, averaged over
// runs calls after one warm-up call, on one P as testing.AllocsPerRun
// counts.
func perRun(runs int, f func()) (size, allocs uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs), (after.Mallocs - before.Mallocs) / uint64(runs)
}

// cachedRealize returns a server whose Runner holds perfbench hot-edges'
// answer, and a maker of that request.
func cachedRealize(tb testing.TB) (http.Handler, func() *http.Request) {
	h := serve.New(serve.Config{Backend: graphrealize.NewRunner(1)}).Handler()
	body, err := json.Marshal(api.RealizeRequest{
		Sequence: gen.UniformRho(4096, 4, 1),
		Options:  &api.OptionsJSON{Model: "ncc1", Seed: 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	request := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/realize/connectivity", bytes.NewReader(body))
	}
	for i := range 2 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, request())
		if rec.Code != http.StatusOK {
			tb.Fatalf("warm-up: %d: %s", rec.Code, rec.Body)
		}
		if i == 1 && !strings.Contains(rec.Body.String(), `"cached":true`) {
			tb.Fatal("the second answer did not come from the cache")
		}
	}
	return h, request
}

// discardWriter keeps a response's status and drops its body, so the
// benchmark measures the handler rather than a recorder's buffer.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}
