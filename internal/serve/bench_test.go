package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
	h := serve.New(serve.Config{Backend: graphrealize.NewRunner(1)}).Handler()
	body, err := json.Marshal(api.RealizeRequest{
		Sequence: gen.UniformRho(4096, 4, 1),
		Options:  &api.OptionsJSON{Model: "ncc1", Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	request := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/realize/connectivity", bytes.NewReader(body))
	}
	for i := range 2 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, request())
		if rec.Code != http.StatusOK {
			b.Fatalf("warm-up: %d: %s", rec.Code, rec.Body)
		}
		if i == 1 && !strings.Contains(rec.Body.String(), `"cached":true`) {
			b.Fatal("the second answer did not come from the cache")
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, request())
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
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
