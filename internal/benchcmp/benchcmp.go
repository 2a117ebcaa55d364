// Package benchcmp parses `go test -bench` output and compares two runs,
// the medians-based core of the CI benchmark-regression gate (cmd/benchgate).
// benchstat remains the tool for human-readable statistics; this package
// exists so the gate has a dependency-free, threshold-based pass/fail rule.
package benchcmp

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result line: name, iteration count, and
// the ns/op value. The -8 style GOMAXPROCS suffix is stripped from the name
// so runs from machines with different core counts compare.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+(\d+)\s+([0-9.eE+]+)\s+ns/op`)

// Parse reads benchmark output and returns ns/op samples keyed by benchmark
// name. Repeated runs of one benchmark (-count > 1) accumulate samples.
func Parse(r io.Reader) (map[string][]float64, error) {
	out := map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchcmp: bad ns/op in %q: %v", sc.Text(), err)
		}
		out[m[1]] = append(out[m[1]], v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Median returns the median of vs (0 for an empty slice). It sorts a copy.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Delta is one benchmark's base-to-head comparison.
type Delta struct {
	Name    string  `json:"name"`
	BaseNs  float64 `json:"base_ns_op"` // median over base samples
	HeadNs  float64 `json:"head_ns_op"` // median over head samples
	Pct     float64 `json:"pct"`        // (head-base)/base·100; positive = slower
	Samples int     `json:"samples"`    // min(#base, #head) samples backing it
}

// Compare computes per-benchmark deltas over the names present in both
// runs, sorted by name. Benchmarks present in only one run carry no signal
// for a regression gate and are skipped.
func Compare(base, head map[string][]float64) []Delta {
	var out []Delta
	for name, baseVs := range base {
		headVs, ok := head[name]
		if !ok {
			continue
		}
		b, h := Median(baseVs), Median(headVs)
		d := Delta{Name: name, BaseNs: b, HeadNs: h, Samples: min(len(baseVs), len(headVs))}
		if b > 0 {
			d.Pct = (h - b) / b * 100
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Regressions filters deltas to those matching the pattern whose slowdown
// exceeds thresholdPct.
func Regressions(deltas []Delta, match *regexp.Regexp, thresholdPct float64) []Delta {
	var out []Delta
	for _, d := range deltas {
		if match != nil && !match.MatchString(d.Name) {
			continue
		}
		if d.Pct > thresholdPct {
			out = append(out, d)
		}
	}
	return out
}
