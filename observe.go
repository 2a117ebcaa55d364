package graphrealize

import (
	"time"

	"graphrealize/internal/obs"
)

// observe.go is the Runner's wall-clock observability: latency histograms,
// the engine phase profile, and the slowest-jobs flight recorder.
// Everything here is observational — it feeds /metrics, /v1/stats, and
// /v1/debug/slowest but never influences a job's outcome, its cache key, or
// the deterministic traces (see internal/ncc's Config.Profile contract).

// flightRecorderSize bounds the slowest-jobs flight recorder. 32 entries is
// enough to attribute a latency tail without holding meaningful memory.
const flightRecorderSize = 32

// RunnerObs aggregates a Runner's observability instruments. All fields are
// safe for concurrent use; read them via Snapshot-style accessors
// (Histogram.Snapshot, PhaseProfile.Snapshot, FlightRecorder.Slowest).
type RunnerObs struct {
	// QueueWait observes each executed job's time from admission to worker
	// acquisition; Run observes its execution time. Both complement the
	// TotalWait/TotalRun counters in RunnerStats with full distributions.
	QueueWait *obs.Histogram
	Run       *obs.Histogram
	// Recorder retains the slowest executed jobs by run duration.
	Recorder *obs.FlightRecorder
	// Phases accumulates the engine round phase time of every executed job.
	Phases *obs.PhaseProfile
}

func newRunnerObs() *RunnerObs {
	return &RunnerObs{
		QueueWait: obs.NewHistogram(obs.DefaultLatencyBuckets),
		Run:       obs.NewHistogram(obs.DefaultLatencyBuckets),
		Recorder:  obs.NewFlightRecorder(flightRecorderSize),
		Phases:    obs.NewPhaseProfile(),
	}
}

// Obs exposes the Runner's observability instruments.
func (r *Runner) Obs() *RunnerObs { return r.obs }

// phaseAccum collects one job's engine phase totals. It is written from the
// simulation's driver goroutine — which is the goroutine running the job —
// and read only after the run returns, so it needs no synchronization.
type phaseAccum struct {
	compute, delivery, barrier time.Duration
	rounds                     int64
}

// observe returns a copy of j whose Profile hook feeds both the Runner's
// phase profile and acc, chained in front of any caller-supplied hook (the
// instrument pattern internal/jobs uses for Progress). The caller's Job is
// left untouched, and the hook is not part of the cache key.
func (r *Runner) observe(j Job, acc *phaseAccum) Job {
	caller := j.Profile
	j.Profile = func(compute, delivery, barrier time.Duration) {
		acc.compute += compute
		acc.delivery += delivery
		acc.barrier += barrier
		acc.rounds++
		r.obs.Phases.ObserveRound(compute, delivery, barrier)
		if caller != nil {
			caller(compute, delivery, barrier)
		}
	}
	return j
}

// recordFlight offers one finished execution to the flight recorder.
func (r *Runner) recordFlight(j Job, res Result, wait, run time.Duration, acc *phaseAccum) {
	opt := j.Opt.norm()
	var errStr string
	if res.Err != nil {
		errStr = res.Err.Error()
	}
	r.obs.Recorder.Record(obs.FlightEntry{
		TraceID:  j.TraceID,
		Kind:     j.Kind.String(),
		Label:    j.Label,
		N:        len(j.Seq),
		Seed:     opt.Seed,
		Wait:     wait,
		Run:      run,
		Rounds:   acc.rounds,
		Compute:  acc.compute,
		Delivery: acc.delivery,
		Barrier:  acc.barrier,
		Err:      errStr,
		Finished: time.Now(),
	})
}
