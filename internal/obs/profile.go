package obs

import (
	"sync/atomic"
	"time"
)

// profile.go accumulates engine phase timings. The engine's driver loop
// splits every completed round's wall time into three phases:
//
//	compute  — node protocol slices running, from release to the barrier
//	delivery — the delivery layer routing this round's messages
//	barrier  — everything else the engine does between barriers (partitioning
//	           checked-in nodes, collectives, round advance, wake-set sort)
//
// and reports them through ncc.Config.Profile once per round. A PhaseProfile
// aggregates those callbacks: total nanoseconds per phase, the round count,
// and a histogram of whole-round durations.

// PhaseProfile accumulates per-round phase timings. All methods are safe for
// concurrent use (many concurrent jobs feed one profile).
type PhaseProfile struct {
	compute  atomic.Int64 // nanoseconds
	delivery atomic.Int64
	barrier  atomic.Int64
	rounds   atomic.Int64

	// Round is the distribution of whole-round durations (seconds).
	Round *Histogram
}

// NewPhaseProfile creates a profile with the standard round-duration buckets.
func NewPhaseProfile() *PhaseProfile {
	return &PhaseProfile{Round: NewHistogram(RoundBuckets)}
}

// ObserveRound records one completed round's phase split. Its signature
// matches ncc.Config.Profile so a profile can be installed directly as (or
// chained into) the hook.
func (p *PhaseProfile) ObserveRound(compute, delivery, barrier time.Duration) {
	p.compute.Add(int64(compute))
	p.delivery.Add(int64(delivery))
	p.barrier.Add(int64(barrier))
	p.rounds.Add(1)
	p.Round.ObserveDuration(compute + delivery + barrier)
}

// PhaseSnapshot is a point-in-time copy of a profile's accumulators.
type PhaseSnapshot struct {
	Compute  time.Duration
	Delivery time.Duration
	Barrier  time.Duration
	Rounds   int64
}

// Snapshot reads the accumulators. Loads are atomic but not transactional;
// totals can trail Rounds by in-flight observations.
func (p *PhaseProfile) Snapshot() PhaseSnapshot {
	return PhaseSnapshot{
		Compute:  time.Duration(p.compute.Load()),
		Delivery: time.Duration(p.delivery.Load()),
		Barrier:  time.Duration(p.barrier.Load()),
		Rounds:   p.rounds.Load(),
	}
}
