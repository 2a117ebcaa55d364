package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// histogram.go is a fixed-bucket, lock-free histogram plus its Prometheus
// text rendering. Buckets are chosen at construction and never change, so
// Observe is two atomic adds and a CAS loop for the sum — cheap enough to
// sit on every HTTP request and every engine round.

// DefaultLatencyBuckets covers request and job latencies from 0.5ms to 60s
// (the serving stack's synchronous deadline ceiling), roughly ×2–×2.5 per
// step so each decade gets three buckets — enough resolution for p99 without
// bloating every scrape.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// RoundBuckets covers single engine rounds: most rounds take microseconds to
// hundreds of microseconds, with a 1s top bucket to catch pathological
// stalls.
var RoundBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
	5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1, 1,
}

// Histogram counts observations into fixed upper-bound buckets (Prometheus
// `le` semantics: a value equal to a bound lands in that bound's bucket).
// All methods are safe for concurrent use.
type Histogram struct {
	bounds  []float64 // strictly ascending finite upper bounds
	counts  []atomic.Int64
	over    atomic.Int64 // observations above every bound (the +Inf bucket)
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram creates a histogram with the given finite upper bounds, which
// must be strictly ascending and non-empty (+Inf is implicit). The slice is
// copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: NewHistogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: NewHistogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds))
	return h
}

// Observe records one value (in the unit the bounds are expressed in —
// seconds, for both bucket presets in this package).
func (h *Histogram) Observe(v float64) {
	// First bound ≥ v is exactly the `le` bucket the value belongs to.
	idx := sort.SearchFloat64s(h.bounds, v)
	if idx < len(h.bounds) {
		h.counts[idx].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// HistSnapshot is a point-in-time copy of a histogram: per-bound cumulative
// counts (Prometheus bucket semantics; the implicit +Inf bucket equals
// Count), the total count, and the sum of observed values.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64 // cumulative: Counts[i] = observations ≤ Bounds[i]
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram's state. Individual loads are atomic but the
// snapshot is not one transaction; under concurrent writes the cumulative
// counts can trail Count by in-flight observations, which rendering treats
// as part of the +Inf bucket.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]int64, len(h.bounds)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Counts[i] = cum
	}
	s.Count = cum + h.over.Load()
	if c := h.count.Load(); c > s.Count {
		s.Count = c
	}
	return s
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) by linear interpolation
// within the bucket containing the target rank, the same estimate Prometheus'
// histogram_quantile computes. Values beyond the last finite bound clamp to
// it; an empty histogram yields 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	for i, cum := range s.Counts {
		if float64(cum) < rank {
			continue
		}
		lower := 0.0
		prev := int64(0)
		if i > 0 {
			lower = s.Bounds[i-1]
			prev = s.Counts[i-1]
		}
		width := s.Bounds[i] - lower
		inBucket := cum - prev
		if inBucket == 0 {
			return s.Bounds[i]
		}
		return lower + width*(rank-float64(prev))/float64(inBucket)
	}
	// Rank falls into the +Inf bucket: the last finite bound is the best
	// (and the conventional) answer.
	return s.Bounds[len(s.Bounds)-1]
}

// HistogramSeries is one labeled series of a histogram family for rendering:
// Labels is a pre-rendered label list without the le label (e.g.
// `route="realize"`), empty for an unlabeled family.
type HistogramSeries struct {
	Labels string
	Snap   HistSnapshot
}

// WriteHistogram renders one complete histogram family in the Prometheus
// text exposition format: one HELP/TYPE header, then per series the
// cumulative `_bucket{le=...}` samples (including +Inf), `_sum`, and
// `_count`. Output is deterministic in the order series are given.
func WriteHistogram(w io.Writer, name, help string, series ...HistogramSeries) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, s := range series {
		sep := ""
		if s.Labels != "" {
			sep = s.Labels + ","
		}
		for i, b := range s.Snap.Bounds {
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sep, formatBound(b), s.Snap.Counts[i])
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, s.Snap.Count)
		labels := ""
		if s.Labels != "" {
			labels = "{" + s.Labels + "}"
		}
		fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, s.Snap.Sum)
		fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Snap.Count)
	}
}

// formatBound renders a bucket bound the way Prometheus clients do: shortest
// representation that round-trips.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}
