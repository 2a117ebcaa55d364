package connectivity

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"graphrealize/internal/core"
	"graphrealize/internal/gen"
	"graphrealize/internal/ncc"
	"graphrealize/internal/ncctest"
	"graphrealize/internal/sortnet"
	"graphrealize/internal/verify"
)

func runConn(t *testing.T, rho []int, model ncc.Model, seed int64) (*ncc.Trace, error) {
	s := ncc.New(ncc.Config{N: len(rho), Seed: seed, Model: model, Strict: true, Inputs: rho})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		rho := nd.Input()
		done := func(out Outcome) ncc.Op {
			nd.SetOutput("stored", int64(out.Stored))
			nd.SetOutput("d0", int64(out.D0))
			return ncc.Done()
		}
		if nd.Model() == ncc.NCC1 {
			return RealizeNCC1(nd, rho, done)
		}
		return core.Setup(nd, sortnet.Oracle, func(env *core.Env) ncc.Op {
			return RealizeNCC0(nd, env, rho, done)
		})
	})
	if err != nil && t != nil {
		t.Fatalf("n=%d model=%v: %v", len(rho), model, err)
	}
	return tr, err
}

func rhoCases() map[string][]int {
	return map[string][]int{
		"uniform1":  {1, 1, 1, 1, 1},
		"uniform3":  {3, 3, 3, 3, 3, 3},
		"tiered":    gen.TieredRho(16, 3, 6, 3, 1),
		"random12":  gen.UniformRho(12, 5, 3),
		"random20":  gen.UniformRho(20, 7, 4),
		"skewed":    {9, 2, 2, 2, 1, 1, 1, 1, 1, 1},
		"allbutone": {4, 4, 4, 4, 4, 1},
	}
}

func TestNCC1ConnectivityMeetsThresholds(t *testing.T) { meetsThresholds(t, ncc.NCC1, 7) }

func TestNCC0ConnectivityMeetsThresholds(t *testing.T) { meetsThresholds(t, ncc.NCC0, 9) }

// meetsThresholds runs every rhoCases input under model and checks each
// result with the connectivity oracle.
func meetsThresholds(t *testing.T, model ncc.Model, seed int64) {
	for name, rho := range rhoCases() {
		tr, _ := runConn(t, rho, model, seed)
		if tr.Unrealizable {
			t.Fatalf("%s: flagged unrealizable", name)
		}
		if err := verify.Connectivity(tr.Adjacency(), rho); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestNCC0ExplicitStorage(t *testing.T) {
	// Every edge must be stored once at each endpoint (explicit).
	rho := gen.UniformRho(14, 4, 11)
	tr, _ := runConn(t, rho, ncc.NCC0, 11)
	if err := errors.Join(ncctest.Storage(tr, true), verify.Connectivity(tr.Adjacency(), rho)); err != nil {
		t.Fatal(err)
	}
}

// TestSmallNConnectivityStorage checks edge storage at the trace level,
// which the facade's merged Graph cannot show: for every ρ in [1, n−1]ⁿ
// with 2 ≤ n ≤ 5, RealizeNCC0 stores every edge exactly once at each
// endpoint.
func TestSmallNConnectivityStorage(t *testing.T) {
	runs := 0
	for n := 2; n <= 5; n++ {
		rho := slices.Repeat([]int{1}, n)
		for {
			tr, err := runConn(nil, rho, ncc.NCC0, int64(runs))
			if err == nil {
				err = ncctest.Storage(tr, true)
			}
			if err != nil {
				t.Fatalf("ρ = %v: %v", rho, err)
			}
			runs++
			// The next ρ in [1, n−1]ⁿ, as an odometer.
			i := 0
			for i < n && rho[i] == n-1 {
				rho[i] = 1
				i++
			}
			if i == n {
				break
			}
			rho[i]++
		}
	}
	if runs != 1114 {
		t.Fatalf("%d runs, want 1,114", runs)
	}
}

func TestConnectivityRejectsInfeasible(t *testing.T) {
	for _, model := range []ncc.Model{ncc.NCC0, ncc.NCC1} {
		tr, err := runConn(nil, []int{5, 1, 1}, model, 13) // ρ > n-1
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if !tr.Unrealizable {
			t.Fatalf("%v: infeasible ρ accepted", model)
		}
	}
}

func TestQuickConnectivityBothModels(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 4
		rho := make([]int, n)
		for i := range rho {
			rho[i] = 1 + rng.Intn(n-1)
		}
		for _, model := range []ncc.Model{ncc.NCC0, ncc.NCC1} {
			tr, err := runConn(nil, rho, model, seed)
			if err != nil || tr.Unrealizable {
				return false
			}
			if err := verify.Connectivity(tr.Adjacency(), rho); err != nil {
				t.Logf("n=%d %v: %v", n, model, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNCC1RoundsArePolylog(t *testing.T) {
	// Theorem 17: O~(1); with the Gk-tree setup this is O(log n) rounds,
	// independent of Δ.
	for _, n := range []int{64, 256, 1024} {
		rho := gen.UniformRho(n, n/4, int64(n))
		tr, _ := runConn(t, rho, ncc.NCC1, int64(n))
		K := ncc.CeilLog2(n)
		if tr.Metrics.Rounds > 12*K+40 {
			t.Fatalf("n=%d: NCC1 connectivity took %d rounds (Δ=%d)", n, tr.Metrics.Rounds, n/4)
		}
	}
}

func TestNCC0RoundsScaleWithDelta(t *testing.T) {
	// Theorem 18: O~(Δ). Verify rounds grow with Δ but stay within
	// c·Δ·log n + sort/setup charges.
	n := 128
	K := ncc.CeilLog2(n)
	measure := func(maxRho int) int {
		rho := gen.UniformRho(n, maxRho, 5)
		tr, _ := runConn(t, rho, ncc.NCC0, 5)
		return tr.Metrics.Rounds
	}
	r4, r32 := measure(4), measure(32)
	if r32 <= r4 {
		t.Fatalf("rounds did not grow with Δ: %d vs %d", r4, r32)
	}
	// Upper bound: waves cost ≤ 2K per distance plus phases of the core
	// realization (each with a K³ sort charge).
	if r32 > 40*K*K*K+2*32*2*K+400*K {
		t.Fatalf("Δ=32 rounds %d exceed the O~(Δ) budget", r32)
	}
}
