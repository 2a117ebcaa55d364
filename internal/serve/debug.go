package serve

import (
	"net/http"
	"time"
)

// debug.go serves GET /v1/debug/slowest: the Runner's flight recorder of the
// slowest executed jobs, so a latency outlier is attributable — trace ID,
// job shape, queue wait, and engine phase breakdown — from one curl, without
// external tracing infrastructure. The endpoint is always registered; with a
// backend that exposes no instruments (scripted tests) it returns an empty
// list.

// SlowJobJSON is one entry of GET /v1/debug/slowest.
type SlowJobJSON struct {
	TraceID string `json:"trace_id,omitempty"`
	Kind    string `json:"kind"`
	Label   string `json:"label,omitempty"`
	N       int    `json:"n"`
	Seed    int64  `json:"seed"`

	WaitMS float64 `json:"wait_ms"`
	RunMS  float64 `json:"run_ms"`

	// Engine phase breakdown over the job's completed rounds; all zero for
	// jobs that never drove the engine (e.g. in-run cache hits).
	Rounds     int64   `json:"rounds"`
	ComputeMS  float64 `json:"compute_ms"`
	DeliveryMS float64 `json:"delivery_ms"`
	BarrierMS  float64 `json:"barrier_ms"`

	Error      string    `json:"error,omitempty"`
	FinishedAt time.Time `json:"finished_at"`
}

// SlowestResponse is the body of GET /v1/debug/slowest, slowest run first.
type SlowestResponse struct {
	Slowest []SlowJobJSON `json:"slowest"`
}

func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func (s *Server) handleDebugSlowest(w http.ResponseWriter, r *http.Request) {
	resp := SlowestResponse{Slowest: []SlowJobJSON{}}
	if s.runnerObs != nil {
		for _, e := range s.runnerObs.Recorder.Slowest() {
			resp.Slowest = append(resp.Slowest, SlowJobJSON{
				TraceID:    e.TraceID,
				Kind:       e.Kind,
				Label:      e.Label,
				N:          e.N,
				Seed:       e.Seed,
				WaitMS:     durMS(e.Wait),
				RunMS:      durMS(e.Run),
				Rounds:     e.Rounds,
				ComputeMS:  durMS(e.Compute),
				DeliveryMS: durMS(e.Delivery),
				BarrierMS:  durMS(e.Barrier),
				Error:      e.Err,
				FinishedAt: e.Finished,
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
