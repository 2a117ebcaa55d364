package lowerbound

import (
	"testing"

	"graphrealize/internal/gen"
	"graphrealize/internal/seq"
)

func TestExplicitFloor(t *testing.T) {
	d := gen.Regular(64, 32)
	if f := ExplicitFloor(d, 8); f != 4 {
		t.Fatalf("floor = %d, want 4", f)
	}
	if f := ExplicitFloor(d, 100); f != 1 {
		t.Fatalf("floor = %d, want 1 (ceil)", f)
	}
	if f := ExplicitFloor(d, 0); f != 32 {
		t.Fatalf("cap clamp failed: %d", f)
	}
}

func TestImplicitFloorDStar(t *testing.T) {
	d := gen.LowerBoundDStar(128, 128*128/4)
	m := seq.SumDegrees(d) / 2
	if m == 0 {
		t.Fatal("degenerate D*")
	}
	f := ImplicitFloorDStar(d, 16)
	if f < 1 {
		t.Fatalf("floor = %d", f)
	}
	// Doubling the capacity should not increase the floor.
	if f2 := ImplicitFloorDStar(d, 32); f2 > f {
		t.Fatalf("floor grew with capacity: %d -> %d", f, f2)
	}
	if ImplicitFloorDStar([]int{0, 0, 0}, 8) != 0 {
		t.Fatal("zero-edge floor should be 0")
	}
}

func TestTightness(t *testing.T) {
	ti := NewTightness(100, 10)
	if ti.Ratio != 10 {
		t.Fatalf("ratio = %v", ti.Ratio)
	}
	// floor 0 must not divide by zero
	ti = NewTightness(7, 0)
	if ti.Ratio != 7 {
		t.Fatalf("ratio with zero floor = %v", ti.Ratio)
	}
}
