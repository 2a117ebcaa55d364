// Package lowerbound operationalizes the lower bounds of §7 as measurable
// quantities, so the benchmark harness can report how close the upper-bound
// algorithms run to the Ω(·) barriers.
//
// The arguments being information-theoretic, the measurable counterpart of
// each bound is a count of IDs some node must learn, at most capacity =
// Θ(log n) of them per round. Theorem 19's explicit bound: the
// maximum-degree node alone must receive Δ IDs. Theorem 20's D* family:
// some node must receive Ω(√m) IDs.
package lowerbound

import (
	"math"

	"graphrealize/internal/seq"
)

// ExplicitFloor returns the Theorem 19 floor in rounds for a degree
// sequence with maximum degree Δ under per-round receive capacity cap:
// ⌈Δ/cap⌉. Any explicit realization algorithm needs at least this many
// rounds on every instance.
func ExplicitFloor(d []int, cap int) int {
	if cap < 1 {
		cap = 1
	}
	delta := seq.MaxDegree(d)
	return (delta + cap - 1) / cap
}

// ImplicitFloorDStar returns the Theorem 20 floor in rounds for the D*
// family: with k = ⌊√m⌋ nodes of degree ≈ k, the k requesting nodes must
// jointly learn Ω(m) IDs, so some node learns ≥ m/k ≈ √m of them:
// ⌈(m/k)/cap⌉ rounds.
func ImplicitFloorDStar(d []int, cap int) int {
	if cap < 1 {
		cap = 1
	}
	m := seq.SumDegrees(d) / 2
	if m == 0 {
		return 0
	}
	k := int(math.Sqrt(float64(m)))
	if k < 1 {
		k = 1
	}
	perNode := (m + k - 1) / k
	return (perNode + cap - 1) / cap
}

// Tightness summarizes an upper-bound measurement against its floor.
type Tightness struct {
	MeasuredRounds int
	FloorRounds    int
	// Ratio = measured / max(1, floor); the theorems predict it is
	// O(polylog n) on the adversarial families.
	Ratio float64
}

// NewTightness computes the summary.
func NewTightness(measured, floor int) Tightness {
	f := floor
	if f < 1 {
		f = 1
	}
	return Tightness{MeasuredRounds: measured, FloorRounds: floor, Ratio: float64(measured) / float64(f)}
}
