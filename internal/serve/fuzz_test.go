package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphrealize"
	"graphrealize/internal/api"
	"graphrealize/internal/cluster"
	"graphrealize/internal/jobs"
	"graphrealize/internal/serve"
)

// FuzzServeRequest sends each fuzzed body to the realize, sweep and jobs
// routes of a server with MaxN 64 and a one-second job timeout. The server
// must never panic or answer 500; every non-2xx body is an ErrorResponse
// with a message; and every 200 realize body passes checkRealizeBody.
func FuzzServeRequest(f *testing.F) {
	runner := graphrealize.NewRunnerConfig(graphrealize.RunnerConfig{Workers: 2, Queue: 8, JobTimeout: time.Second})
	m := jobs.New(jobs.Config{Backend: runner, MaxJobs: 16, Retention: time.Second})
	f.Cleanup(func() { _ = m.Close(context.Background()) })
	h := serve.New(serve.Config{Backend: runner, Jobs: m, MaxN: 64, MaxSeeds: 4}).Handler()

	for _, body := range []string{
		`{"sequence":[3,3,2,2,2,2],"options":{"seed":7}}`,
		`{"sequence":[2,2,2,2],"variant":"explicit","omit_edges":true}`,
		`{"sequence":[3,3,1,1],"variant":"envelope"}`,
		`{"sequence":[3,3,2,1,1,1,1,2],"variant":"mindiam"}`,
		`{"sequence":[2,2,1,1,1,1],"options":{"model":"ncc1","sort":"oddeven"}}`,
		`{"sequence":[0,0,0]}`,
		`{"kind":"degrees","sequence":[2,2,2],"seeds":[1,2]}`,
		`{"kind":"connectivity","sequence":[2,2,1,1],"seed_count":3,"seed_start":5}`,
		`{"kind":"chain-tree","sequence":[1,1],"label":"x"}`,
		`{"sequence":[3,`,
		`{"variant":3,"sequence":["a"]}`,
		`{"sequence":[1.5,1e2,null]}`,
		`{"sequence":[1,1],"options":{"cap_mul":-3,"max_rounds":1}}`,
		`{"sequence":[9223372036854775807,9223372036854775807,2,2]}`,
	} {
		f.Add([]byte(body))
	}
	paths := []string{"/v1/realize/degree", "/v1/realize/tree", "/v1/realize/connectivity", "/v1/sweep", "/v1/jobs"}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range paths {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch {
			case rec.Code == http.StatusInternalServerError:
				t.Fatalf("%s %q: 500: %s", path, body, rec.Body)
			case rec.Code < 200 || rec.Code > 299:
				var e api.ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("%s %q: %d with body %q, want an error message", path, body, rec.Code, rec.Body)
				}
			case rec.Code == http.StatusOK && path != "/v1/sweep" && path != "/v1/jobs":
				checkRealizeBody(t, path, body, rec.Body.Bytes())
			}
		}
	})
}

// FuzzClusterControl posts each fuzzed (register, heartbeat) body pair to a
// fresh coordinator's control plane (CLUSTER.md §2). Neither route may panic
// or answer 500, and every non-2xx body is an ErrorResponse with a message.
// Afterwards the member listing and /v1/stats still answer 200 with JSON
// that decodes.
func FuzzClusterControl(f *testing.F) {
	for _, pair := range [][2]string{
		{`{"name":"w1","addr":"http://127.0.0.1:9999","capacity":4}`, `{"name":"w1","load":{"workers":4,"active":1,"executed":9}}`},
		{`{"name":"w1"}`, `{"name":"w1","load":{}}`},
		{`{"name":"w1","addr":"http://127.0.0.1:9999","capacity":4}`, `{"name":"w2","load":{}}`},
		{`{"name":"w1","addr":"x","capacity":-1,"extra":1}`, `{"name":"w1","load":{"active":-3,"cache_len":1e3}}`},
		{`{"name":`, `[1,2]`},
	} {
		f.Add([]byte(pair[0]), []byte(pair[1]))
	}
	f.Fuzz(func(t *testing.T, register, heartbeat []byte) {
		_, h := coordinator(t)
		for _, call := range []struct {
			path string
			body []byte
		}{{"/cluster/v1/register", register}, {"/cluster/v1/heartbeat", heartbeat}} {
			rec := post(t, h, call.path, string(call.body))
			switch {
			case rec.Code == http.StatusInternalServerError:
				t.Fatalf("%s %q: 500: %s", call.path, call.body, rec.Body)
			case rec.Code < 200 || rec.Code > 299:
				var e api.ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("%s %q: %d with body %q, want an error message", call.path, call.body, rec.Code, rec.Body)
				}
			}
		}
		rec := get(t, h, "/cluster/v1/workers")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /cluster/v1/workers after %q, %q: %d: %s", register, heartbeat, rec.Code, rec.Body)
		}
		decodeInto[cluster.WorkersResponse](t, rec)
		if rec = get(t, h, "/v1/stats"); rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/stats after %q, %q: %d: %s", register, heartbeat, rec.Code, rec.Body)
		}
		decodeInto[serve.StatsResponse](t, rec)
	})
}

// checkRealizeBody checks a 200 realize body. It must decode with
// encoding/json into a RealizeResponse that encoding/json writes back byte
// for byte, with m edges (none under omit_edges). Unless omit_edges left
// the graph out, the response, rebuilt into a Result for the request's kind
// and sequence, must pass Result.Verify.
func checkRealizeBody(t *testing.T, path string, body, resp []byte) {
	t.Helper()
	var got api.RealizeResponse
	if err := json.Unmarshal(resp, &got); err != nil {
		t.Fatalf("%s %q: 200 body %q does not decode: %v", path, body, resp, err)
	}
	// The server reads the body's first JSON value, as this probe does.
	var req api.RealizeRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		t.Fatalf("%s %q: answered 200 to a body encoding/json rejects: %v", path, body, err)
	}
	if want := got.M; req.OmitEdges && len(got.Edges) != 0 || !req.OmitEdges && len(got.Edges) != want {
		t.Fatalf("%s %q: %d edges for m=%d (omit_edges %v)", path, body, len(got.Edges), want, req.OmitEdges)
	}
	var ref bytes.Buffer
	if err := json.NewEncoder(&ref).Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, ref.Bytes()) {
		t.Fatalf("%s %q: body\n%s\nis not what encoding/json writes:\n%s", path, body, resp, ref.Bytes())
	}
	if req.OmitEdges {
		return
	}
	kind, err := api.KindFor(strings.TrimPrefix(path, "/v1/realize/"), req.Variant)
	if err != nil {
		t.Fatalf("%s %q: 200 for an unknown kind: %v", path, body, err)
	}
	// Edges come in (u, v) order with u < v, so every list fills ascending.
	adj := make([][]int, len(req.Sequence))
	for _, e := range got.Edges {
		if min(e[0], e[1]) < 0 || max(e[0], e[1]) >= len(adj) {
			t.Fatalf("%s %q: edge %v on %d vertices", path, body, e, len(adj))
		}
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	res := graphrealize.Result{
		Job:      graphrealize.Job{Kind: kind, Seq: req.Sequence},
		Graph:    &graphrealize.Graph{N: got.N, Adj: adj},
		Envelope: got.Envelope,
		Stats:    got.Stats.Stats(),
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("%s %q: %v", path, body, err)
	}
}
