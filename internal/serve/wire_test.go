package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graphrealize"
	"graphrealize/internal/api"
	"graphrealize/internal/serve"
	"graphrealize/internal/wire"
)

// wire_test.go covers the application/x-graphwire content negotiation
// (WIRE.md §10) and its flush-audit contract: errors map to their status
// strictly before the first response byte, so a wire client never sees a
// 200 header followed by a JSON error, and an error response never starts
// with wire magic.

// postWire is post with the graphwire Accept header.
func postWire(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.MediaType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decodeWire asserts a 200 graphwire response and decodes it.
func decodeWire(t *testing.T, rec *httptest.ResponseRecorder) *wire.Message {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("want 200, got %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.MediaType {
		t.Fatalf("Content-Type = %q, want %q", ct, wire.MediaType)
	}
	msg, err := wire.Decode(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("response is not a valid graphwire stream: %v", err)
	}
	return msg
}

func TestRealizeWireNegotiation(t *testing.T) {
	h := realServer(t)
	body := `{"sequence":[3,3,2,2,2,2],"options":{"seed":7}}`

	// Baseline JSON response for the same request.
	jsonRec := post(t, h, "/v1/realize/degree", body)
	jsonResp := decodeInto[api.RealizeResponse](t, jsonRec)

	msg := decodeWire(t, postWire(t, h, "/v1/realize/degree", body))
	if !msg.HasGraph || msg.N != 6 || msg.M != 7 {
		t.Fatalf("wire stream carries n=%d m=%d hasGraph=%v, want 6/7/true", msg.N, msg.M, msg.HasGraph)
	}

	// The JMETA document is the JSON body minus the edge list.
	var meta api.RealizeResponse
	if err := json.Unmarshal(msg.Meta, &meta); err != nil {
		t.Fatalf("JMETA is not a RealizeResponse: %v", err)
	}
	if meta.Edges != nil {
		t.Fatal("JMETA must not duplicate the edge list (it travels as the graph section)")
	}
	if meta.Kind != jsonResp.Kind || meta.N != jsonResp.N || meta.M != jsonResp.M {
		t.Fatalf("JMETA %+v disagrees with the JSON body %+v", meta, jsonResp)
	}

	// Same graph both ways: the wire adjacency must contain exactly the
	// JSON edge list.
	edges := map[[2]int]bool{}
	for _, e := range jsonResp.Edges {
		edges[e] = true
	}
	count := 0
	for u, nbrs := range msg.Adj {
		for _, v := range nbrs {
			if u < v {
				count++
				if !edges[[2]int{u, v}] {
					t.Fatalf("wire edge (%d,%d) not in the JSON response", u, v)
				}
			}
		}
	}
	if count != len(jsonResp.Edges) {
		t.Fatalf("wire carries %d edges, JSON %d", count, len(jsonResp.Edges))
	}
}

func TestRealizeWireOmitEdges(t *testing.T) {
	h := realServer(t)
	msg := decodeWire(t, postWire(t, h, "/v1/realize/degree", `{"sequence":[2,2,2,2],"omit_edges":true}`))
	if msg.HasGraph {
		t.Fatal("omit_edges stream must have no graph section")
	}
	var meta api.RealizeResponse
	if err := json.Unmarshal(msg.Meta, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.M != 4 {
		t.Fatalf("metadata-only stream lost the stats: %+v", meta)
	}
}

func TestSweepWireNegotiation(t *testing.T) {
	h := realServer(t)
	msg := decodeWire(t, postWire(t, h, "/v1/sweep", `{"kind":"degrees","sequence":[3,3,2,2,2,2],"seeds":[1,2,3]}`))
	if msg.HasGraph {
		t.Fatal("sweep responses carry no graph section")
	}
	var meta serve.SweepResponse
	if err := json.Unmarshal(msg.Meta, &meta); err != nil {
		t.Fatalf("JMETA is not a SweepResponse: %v", err)
	}
	if meta.Seeds != 3 || len(meta.Rows) != 3 {
		t.Fatalf("sweep metadata wrong: %+v", meta)
	}
}

func TestJobGetWireNegotiation(t *testing.T) {
	h, _ := asyncServer(t)
	rec := do(t, h, http.MethodPost, "/v1/jobs", `{"kind":"degrees","sequence":[3,3,2,2,2,2],"options":{"seed":7}}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	id := decodeInto[serve.JobJSON](t, rec).ID
	pollJob(t, h, id, "done")

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
	req.Header.Set("Accept", wire.MediaType)
	wrec := httptest.NewRecorder()
	h.ServeHTTP(wrec, req)
	msg := decodeWire(t, wrec)
	if !msg.HasGraph || msg.N != 6 || msg.M != 7 {
		t.Fatalf("done job stream carries n=%d m=%d hasGraph=%v, want 6/7/true", msg.N, msg.M, msg.HasGraph)
	}
	var meta serve.JobJSON
	if err := json.Unmarshal(msg.Meta, &meta); err != nil {
		t.Fatalf("JMETA is not a JobJSON: %v", err)
	}
	if meta.State != "done" || meta.Result == nil || meta.Result.Edges != nil {
		t.Fatalf("job JMETA wrong (edges must travel as the graph section): %+v", meta)
	}

	// omit_edges over wire: metadata alone.
	req = httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"?omit_edges=1", nil)
	req.Header.Set("Accept", wire.MediaType)
	wrec = httptest.NewRecorder()
	h.ServeHTTP(wrec, req)
	if msg := decodeWire(t, wrec); msg.HasGraph {
		t.Fatal("omit_edges job stream must have no graph section")
	}
}

// TestWireErrorsStayJSON is the flush-audit regression test: every error
// must be mapped to its status before the first response byte, so even a
// wire-negotiated request gets a JSON error body with the right status —
// never a 200, never wire magic bytes.
func TestWireErrorsStayJSON(t *testing.T) {
	h := realServer(t)
	cases := []struct {
		name string
		path string
		body string
		code int
	}{
		{"unrealizable", "/v1/realize/degree", `{"sequence":[3,1,1]}`, http.StatusUnprocessableEntity},
		{"malformed body", "/v1/realize/degree", `{"sequence":`, http.StatusBadRequest},
		{"unknown algorithm", "/v1/realize/nope", `{"sequence":[1,1]}`, http.StatusNotFound},
		{"oversized", "/v1/realize/degree", `{"sequence":[` + strings.Repeat("1,", 100) + `1]}`, http.StatusRequestEntityTooLarge},
		{"unrealizable sweep", "/v1/sweep", `{"kind":"degrees","sequence":[3,1,1],"seeds":[1]}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := postWire(t, h, c.path, c.body)
			if rec.Code != c.code {
				t.Fatalf("want %d, got %d: %s", c.code, rec.Code, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error Content-Type = %q, want application/json", ct)
			}
			if bytes.HasPrefix(rec.Body.Bytes(), []byte("GRWF")) {
				t.Fatal("error response starts with wire magic")
			}
			if resp := decodeInto[api.ErrorResponse](t, rec); resp.Error == "" {
				t.Fatal("error body has no error field")
			}
		})
	}

	// Backpressure too: a saturated backend rejects before any body bytes.
	fb := &fakeBackend{submit: func(context.Context, graphrealize.Job) (<-chan graphrealize.Result, error) {
		return nil, graphrealize.ErrQueueFull
	}}
	sat := serve.New(serve.Config{Backend: fb}).Handler()
	rec := postWire(t, sat, "/v1/realize/degree", `{"sequence":[1,1]}`)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("queue-full over wire: %d (Retry-After %q)", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// TestWireNotNegotiatedByWildcard pins the default: only an explicit
// application/x-graphwire opts in; */* and other types keep JSON.
func TestWireNotNegotiatedByWildcard(t *testing.T) {
	h := realServer(t)
	for _, accept := range []string{"", "*/*", "application/json", "application/*"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/realize/degree", strings.NewReader(`{"sequence":[1,1]}`))
		req.Header.Set("Content-Type", "application/json")
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("accept %q: %d %s", accept, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("accept %q negotiated %q; JSON must stay the default", accept, ct)
		}
	}

	// And the header is recognized inside a list with q-values.
	req := httptest.NewRequest(http.MethodPost, "/v1/realize/degree", strings.NewReader(`{"sequence":[1,1]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/json;q=0.5, application/x-graphwire;q=0.9")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != wire.MediaType {
		t.Fatalf("listed Accept member not honored: Content-Type %q", ct)
	}
}
