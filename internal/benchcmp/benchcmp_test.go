package benchcmp

import (
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: graphrealize
BenchmarkBatchRealization/sequential-8   	       3	 383126167 ns/op	 1234 B/op	   56 allocs/op
BenchmarkBatchRealization/runner-8       	       3	 103126167 ns/op
BenchmarkBatchRealization/sequential-8   	       3	 390000000 ns/op
BenchmarkBatchRealization/runner-8       	       3	  99000000 ns/op
BenchmarkRealizeDegreesRounds/n=64-8     	       3	   1000000 ns/op	        55.00 rounds	       123 msgs
--- BENCH: BenchmarkSomething
    some_test.go:12: noise line with numbers 3 4 ns/op-ish
PASS
ok  	graphrealize	12.3s
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got["BenchmarkBatchRealization/sequential"]) != 2 {
		t.Fatalf("want 2 sequential samples, got %v", got)
	}
	if len(got["BenchmarkBatchRealization/runner"]) != 2 {
		t.Fatalf("want 2 runner samples, got %v", got)
	}
	// Custom-metric lines parse their ns/op, suffixes are stripped.
	if vs := got["BenchmarkRealizeDegreesRounds/n=64"]; len(vs) != 1 || vs[0] != 1e6 {
		t.Fatalf("custom-metric line parsed wrong: %v", vs)
	}
	if len(got) != 3 {
		t.Fatalf("noise lines must not parse: %v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("odd median: %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median: %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Fatalf("empty median: %v", m)
	}
	vs := []float64{9, 1}
	_ = Median(vs)
	if vs[0] != 9 {
		t.Fatal("Median must not mutate its input")
	}
}

func TestCompareAndRegressions(t *testing.T) {
	base := map[string][]float64{
		"BenchmarkBatchRealization/runner": {100, 110, 105},
		"BenchmarkOnlyInBase":              {50},
		"BenchmarkStable":                  {200},
	}
	head := map[string][]float64{
		"BenchmarkBatchRealization/runner": {150, 140, 145},
		"BenchmarkOnlyInHead":              {70},
		"BenchmarkStable":                  {210},
	}
	deltas := Compare(base, head)
	if len(deltas) != 2 {
		t.Fatalf("only common benchmarks compare: %+v", deltas)
	}
	runner := deltas[0]
	if runner.Name != "BenchmarkBatchRealization/runner" {
		t.Fatalf("deltas must be name-sorted: %+v", deltas)
	}
	// medians 105 -> 145: +38.1%
	if runner.Pct < 38 || runner.Pct > 39 {
		t.Fatalf("runner delta pct wrong: %+v", runner)
	}

	gate := regexp.MustCompile(`BatchRealization`)
	regs := Regressions(deltas, gate, 30)
	if len(regs) != 1 || regs[0].Name != runner.Name {
		t.Fatalf("runner must gate at >30%%: %+v", regs)
	}
	// The stable benchmark's +5% is under threshold; the gate also ignores
	// non-matching names entirely.
	if regs := Regressions(deltas, gate, 40); len(regs) != 0 {
		t.Fatalf("38%% must pass a 40%% threshold: %+v", regs)
	}
	if regs := Regressions(deltas, regexp.MustCompile(`Stable`), 1); len(regs) != 1 {
		t.Fatalf("threshold applies per matching benchmark: %+v", regs)
	}
}
