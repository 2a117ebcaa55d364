package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// exactMetrics are the traced-run metrics that must repeat exactly when the
// same requests are sent.
var exactMetrics = []string{
	"ncc.rounds_per_job",
	"core.rounds_per_job", "core.msgs_per_job", "core.phases_per_job",
	"trees.rounds_per_job", "trees.msgs_per_job",
	"connectivity.rounds_per_job", "connectivity.msgs_per_job",
	"runner.cache_hit_ratio", "cluster.worker_hit_ratio",
}

// TestDeterminism runs each workload twice with the same seed and a fixed
// request count: both runs must send identical requests, pass every check
// and report identical exact counts. A different seed must change the
// requests.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{ops: 12, trace: true}
			a, err := runWorkload(w, 7, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(w, 7, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range []*report{a, b} {
				if !rep.Correct || rep.Failed != 0 || rep.Attempted != 3*cfg.ops {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.info["first_error"])
				}
			}
			if a.requests != b.requests {
				t.Error("same seed sent different requests")
			}
			for _, name := range exactMetrics {
				if x, y := a.Metrics[name].Value, b.Metrics[name].Value; x != y {
					t.Errorf("%s: %v then %v", name, x, y)
				}
			}
			// Answers carry their own elapsed_ms, whose printed width varies
			// by a few bytes; everything else in them repeats.
			if x, y := a.Metrics["serve.resp_kb"].Value, b.Metrics["serve.resp_kb"].Value; abs(x-y) > 16.0/1024 {
				t.Errorf("serve.resp_kb: %v then %v", x, y)
			}
			if w.name == "cold-mix" && a.Metrics["ncc.rounds_per_job"].Value == 0 {
				t.Error("cold-mix ran no engine rounds")
			}

			other := w.warm(8)
			if bytes.Equal(other[0].body, w.warm(7)[0].body) {
				t.Error("a different seed drew the same warm-up request")
			}
			bench7, bench8 := &bench{w: w, seed: 7, warm: w.warm(7)}, &bench{w: w, seed: 8, warm: other}
			if bytes.Equal(bench7.timedOp(3).body, bench8.timedOp(3).body) {
				t.Error("a different seed drew the same timed request")
			}
		})
	}
}

func abs(x float64) float64 { return max(x, -x) }

// TestChecksRejectWrongAnswers feeds the checks answers that break the
// paper's definitions.
func TestChecksRejectWrongAnswers(t *testing.T) {
	path := func(n int) [][]int { // the path 0-1-…-(n-1)
		adj := make([][]int, n)
		for v := 0; v+1 < n; v++ {
			adj[v] = append(adj[v], v+1)
			adj[v+1] = append(adj[v+1], v)
		}
		return adj
	}
	star := [][]int{{1, 2, 3}, {0}, {0}, {0}}
	cases := []struct {
		name string
		o    op
		adj  [][]int
		ok   bool
	}{
		{"degrees realized", op{kind: degImplicit, seq: []int{1, 2, 2, 1}}, path(4), true},
		{"degree off", op{kind: degExplicit, seq: []int{2, 2, 2, 1}}, path(4), false},
		{"chain tree", op{kind: treeChain, seq: []int{1, 2, 2, 1}}, path(4), true},
		{"not a tree", op{kind: treeChain, seq: []int{1, 1, 1, 1}}, [][]int{{1}, {0}, {3}, {2}}, false},
		{"min diameter", op{kind: treeMinDiam, seq: []int{3, 1, 1, 1}}, star, true},
		{"diameter above minimum", op{kind: treeMinDiam, seq: []int{4, 2, 2, 2, 1, 1, 1, 1}},
			[][]int{{1, 4, 5, 6}, {0, 2}, {1, 3}, {2, 7}, {0}, {0}, {0}, {3}}, false},
		{"thresholds met", op{kind: connNCC1, seq: []int{1, 1, 1, 1}}, path(4), true},
		{"degree below ρ", op{kind: connNCC0, seq: []int{2, 1, 1, 1}}, path(4), false},
		{"self loop", op{kind: connNCC1, seq: []int{1, 1}}, [][]int{{0, 1}, {0}}, false},
	}
	for _, c := range cases {
		r := &result{doc: realizeDoc{N: len(c.adj), M: edgeCount(c.adj)}, adj: c.adj}
		if err := checkResult(c.o, r); (err == nil) != c.ok {
			t.Errorf("%s: check returned %v", c.name, err)
		}
	}
}

func TestDecodeHotJSON(t *testing.T) {
	edges := []byte(`[[0,1],[1,2]]`)
	ref := &reference{n: 3, m: 2, edges: edges}
	body := []byte(`{"kind":"connectivity","n":3,"m":2,"edges":[[0,1],[1,2]],"stats":{"rounds":5},"cached":true,"elapsed_ms":0.1}` + "\n")
	var r result
	if err := decodeHotJSON(body, ref, &r); err != nil || r.doc.N != 3 || r.doc.Stats.Rounds != 5 || !r.doc.Cached {
		t.Fatalf("decodeHotJSON = %v, doc %+v", err, r.doc)
	}
	for _, bad := range []string{
		`{"kind":"connectivity","n":3,"m":2,"edges":[[0,1],[0,2]],"stats":{},"cached":true}`,
		`{"kind":"connectivity","n":3,"m":2,"edges":[[0,1],[1,2]],"stats":{},"cached":tru}`,
		`{"kind":"connectivity","n":3,"m":2,"stats":{}}`,
	} {
		if err := decodeHotJSON([]byte(bad), ref, &r); err == nil {
			t.Errorf("decodeHotJSON accepted %s", bad)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := &span{start: 0, end: 10 * ms}
	children := []*span{{start: 1 * ms, end: 4 * ms}, {start: 3 * ms, end: 5 * ms}, {start: 8 * ms, end: 12 * ms}}
	if got := selfTime(parent, children); got != 4*ms {
		t.Fatalf("selfTime = %v, want 4ms", got)
	}
}

// TestWindowStats checks that a slow burst over two windows of ten moves
// none of the windowed statistics, and that one over three windows moves
// them.
func TestWindowStats(t *testing.T) {
	slowFor := func(slow time.Duration) phaseOut {
		var ph phaseOut
		for i := range 1000 {
			s := sample{ok: true, lat: 10 * time.Millisecond, done: time.Duration(i) * 10 * time.Millisecond}
			if s.done >= 3*time.Second && s.done < 3*time.Second+slow {
				s.lat = 100 * time.Millisecond
			}
			ph.samples = append(ph.samples, s)
		}
		ph.elapsed = 10 * time.Second
		return ph
	}
	ph := slowFor(2 * time.Second)
	if w := windowStats(ph, ph.elapsed); w.throughput != 100 || w.p50 != 10 || w.p95 != 10 || w.windows != timedWindows {
		t.Fatalf("windowStats = %+v, want 100/s, 10ms, 10ms over %d windows", w, timedWindows)
	}
	ph = slowFor(3 * time.Second)
	if w := windowStats(ph, ph.elapsed); w.p50 != 25 || w.p95 != 25 {
		t.Fatalf("windowStats = %+v, want p50 and p95 of 25ms", w)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(xs, 0.5); q != 5 {
		t.Errorf("p50 = %v", q)
	}
	if q := quantile(xs, 0.95); q != 10 {
		t.Errorf("p95 = %v", q)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in step
// with the program's.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		spec []def
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got, want []metricDef
		for _, d := range c.spec {
			got = append(got, metricDef{d.Name, d.Unit})
		}
		want = c.prog
		if !slices.Equal(got, want) {
			t.Errorf("BENCHMARK.json metrics %v, program prints %v", got, want)
		}
	}
}
