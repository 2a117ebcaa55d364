package obs

import (
	"sort"
	"sync"
	"time"
)

// recorder.go is the slowest-jobs flight recorder: a bounded, in-memory list
// of the slowest executed jobs by run duration, so a latency outlier under
// load is attributable — trace ID, job shape, and phase breakdown — from one
// GET /v1/debug/slowest, without external tracing infrastructure.

// FlightEntry is one recorded job execution.
type FlightEntry struct {
	TraceID string
	Kind    string
	Label   string
	N       int // sequence length
	Seed    int64

	Wait time.Duration // queued, waiting for a worker
	Run  time.Duration // executing

	// Phase breakdown accumulated over the job's rounds (zero for jobs
	// served without engine execution, e.g. in-run cache hits).
	Rounds   int64
	Compute  time.Duration
	Delivery time.Duration
	Barrier  time.Duration

	Err      string // terminal error, "" on success
	Finished time.Time
}

// FlightRecorder retains the slowest entries by Run duration (ties at the
// eviction edge keep the earlier entry). It is safe for concurrent use;
// Record is O(log k + k) on the bounded k, off the engine's hot path (once
// per job, not per round).
type FlightRecorder struct {
	mu      sync.Mutex
	limit   int
	entries []FlightEntry // sorted by Run descending
}

// NewFlightRecorder creates a recorder retaining at most limit entries
// (minimum 1).
func NewFlightRecorder(limit int) *FlightRecorder {
	if limit < 1 {
		limit = 1
	}
	return &FlightRecorder{limit: limit}
}

// Record offers one execution to the recorder; it is kept iff it ranks among
// the slowest retained runs.
func (r *FlightRecorder) Record(e FlightEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) == r.limit && e.Run <= r.entries[len(r.entries)-1].Run {
		return
	}
	// Insert before the first shorter run; ties go after existing entries
	// of the same duration.
	idx := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].Run < e.Run })
	r.entries = append(r.entries, FlightEntry{})
	copy(r.entries[idx+1:], r.entries[idx:])
	r.entries[idx] = e
	if len(r.entries) > r.limit {
		r.entries = r.entries[:r.limit]
	}
}

// Slowest returns the retained entries, slowest first. The slice is a copy.
func (r *FlightRecorder) Slowest() []FlightEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FlightEntry, len(r.entries))
	copy(out, r.entries)
	return out
}
