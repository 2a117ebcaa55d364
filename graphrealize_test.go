package graphrealize

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"graphrealize/internal/ncc"
)

func TestFacadeRealizeDegrees(t *testing.T) {
	d := []int{3, 3, 2, 2, 2, 2}
	g, stats, err := RealizeDegrees(d, nil)
	if err != nil {
		t.Fatalf("realize: %v", err)
	}
	for i, deg := range g.Degrees() {
		if deg != d[i] {
			t.Fatalf("vertex %d degree %d, want %d", i, deg, d[i])
		}
	}
	if stats.Rounds == 0 || stats.Messages == 0 {
		t.Fatalf("empty stats: %+v", stats)
	}
	if stats.Phases == 0 {
		t.Fatal("phase count missing")
	}
}

func TestFacadeUnrealizable(t *testing.T) {
	_, _, err := RealizeDegrees([]int{3, 3, 1, 1}, nil)
	if !errors.Is(err, ErrUnrealizable) {
		t.Fatalf("want ErrUnrealizable, got %v", err)
	}
	if _, _, err := RealizeDegrees(nil, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput, got %v", err)
	}
}

// TestFacadeMaxRoundsIsBadInput: a run that exceeds the caller's MaxRounds
// cap is the caller's input error, not a server fault.
func TestFacadeMaxRoundsIsBadInput(t *testing.T) {
	_, _, err := RealizeDegrees([]int{1, 1}, &Options{MaxRounds: 1})
	if !errors.Is(err, ErrBadInput) || !errors.Is(err, ncc.ErrMaxRounds) {
		t.Fatalf("want ErrBadInput wrapping ncc.ErrMaxRounds, got %v", err)
	}
}

func TestFacadeExplicit(t *testing.T) {
	d := []int{2, 2, 2, 2}
	g, _, err := RealizeDegreesExplicit(d, &Options{Strict: true, Seed: 3})
	if err != nil {
		t.Fatalf("explicit: %v", err)
	}
	if !g.Connected() {
		t.Fatal("4-cycle family should be connected here")
	}
}

func TestFacadeEnvelope(t *testing.T) {
	d := []int{3, 3, 1, 1} // non-graphic
	g, envl, _, err := RealizeUpperEnvelope(d, &Options{Strict: true})
	if err != nil {
		t.Fatalf("envelope: %v", err)
	}
	sumD, sumE := 0, 0
	for i := range d {
		if envl[i] < d[i] {
			t.Fatalf("envelope[%d] = %d < %d", i, envl[i], d[i])
		}
		if g.Degrees()[i] != envl[i] {
			t.Fatalf("degree/envelope mismatch at %d", i)
		}
		sumD += d[i]
		sumE += envl[i]
	}
	if sumE > 2*sumD {
		t.Fatalf("Σd' = %d > 2Σd = %d", sumE, 2*sumD)
	}
}

func TestFacadeTrees(t *testing.T) {
	d := []int{3, 2, 2, 1, 1, 1, 1, 1} // Σ = 12? 3+2+2+5 = 12... n=8 needs 14
	d = []int{3, 3, 2, 1, 1, 1, 1, 2}  // Σ = 14 = 2·7
	if !IsTreeSequence(d) {
		t.Fatal("test bug")
	}
	chain, _, err := RealizeTree(d, &Options{Strict: true})
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	greedy, _, err := RealizeMinDiameterTree(d, &Options{Strict: true})
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	if !chain.IsTree() || !greedy.IsTree() {
		t.Fatal("realizations are not trees")
	}
	if greedy.Diameter() != MinTreeDiameter(d) {
		t.Fatalf("greedy diameter %d, optimal %d", greedy.Diameter(), MinTreeDiameter(d))
	}
	if greedy.Diameter() > chain.Diameter() {
		t.Fatal("greedy worse than chain")
	}
	if _, _, err := RealizeTree([]int{2, 2, 2}, nil); !errors.Is(err, ErrUnrealizable) {
		t.Fatalf("cycle accepted as tree: %v", err)
	}
}

func TestFacadeConnectivityBothModels(t *testing.T) {
	rho := []int{3, 3, 2, 2, 1, 1, 1, 1}
	for _, model := range []Model{NCC0, NCC1} {
		g, stats, err := RealizeConnectivity(rho, &Options{Model: model, Strict: true, Seed: 5})
		if err != nil {
			t.Fatalf("model %v: %v", model, err)
		}
		for u := 0; u < len(rho); u++ {
			for v := u + 1; v < len(rho); v++ {
				want := rho[u]
				if rho[v] < want {
					want = rho[v]
				}
				if c := g.EdgeConnectivity(u, v); c < want {
					t.Fatalf("model %v: Conn(%d,%d)=%d < %d", model, u, v, c, want)
				}
			}
		}
		lb := ConnectivityLowerBound(rho)
		if g.M() > 2*lb {
			t.Fatalf("model %v: %d edges > 2·LB = %d", model, g.M(), 2*lb)
		}
		if stats.Rounds == 0 {
			t.Fatal("no rounds recorded")
		}
	}
}

func TestFacadeBaselines(t *testing.T) {
	d := []int{3, 3, 2, 2, 2, 2}
	g, err := HavelHakimi(d)
	if err != nil {
		t.Fatalf("hh: %v", err)
	}
	for i, deg := range g.Degrees() {
		if deg != d[i] {
			t.Fatalf("hh degree %d at %d", deg, i)
		}
	}
	if _, err := HavelHakimi([]int{3, 3, 1, 1}); !errors.Is(err, ErrUnrealizable) {
		t.Fatal("hh accepted non-graphic")
	}
	td := []int{2, 2, 1, 1}
	ct, err := ChainTree(td)
	if err != nil || !ct.IsTree() {
		t.Fatalf("chain tree: %v", err)
	}
	gt, err := GreedyTree(td)
	if err != nil || !gt.IsTree() {
		t.Fatalf("greedy tree: %v", err)
	}
}

func TestFacadeDeterminism(t *testing.T) {
	d := MakeGraphic([]int{5, 4, 4, 3, 3, 2, 2, 1})
	opt := &Options{Seed: 42}
	g1, s1, err1 := RealizeDegrees(d, opt)
	g2, s2, err2 := RealizeDegrees(d, opt)
	if err1 != nil || err2 != nil {
		t.Fatalf("%v %v", err1, err2)
	}
	if s1.Rounds != s2.Rounds || s1.Messages != s2.Messages {
		t.Fatal("stats differ across identical runs")
	}
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatal("edge sets differ")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("edges differ")
		}
	}
}

func TestFacadeAgreesWithSequentialOnGraphicness(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%14) + 2
		d := make([]int, n)
		for i := range d {
			d[i] = rng.Intn(n)
		}
		_, _, errD := RealizeDegrees(d, &Options{Seed: seed})
		_, errS := HavelHakimi(d)
		return errors.Is(errD, ErrUnrealizable) == errors.Is(errS, ErrUnrealizable)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphHelpers(t *testing.T) {
	g, _, err := RealizeDegrees([]int{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || !g.Connected() || !g.IsTree() || g.Diameter() != 1 {
		t.Fatalf("pair graph helpers wrong: m=%d", g.M())
	}
	if len(g.Edges()) != 1 {
		t.Fatal("edges helper")
	}
	if !IsGraphic([]int{1, 1}) || IsGraphic([]int{1}) {
		t.Fatal("IsGraphic re-export")
	}
}

func TestOddEvenSortOption(t *testing.T) {
	d := []int{2, 2, 2, 2, 2, 2}
	g, stats, err := RealizeDegrees(d, &Options{Sort: OddEvenSort, Strict: true})
	if err != nil {
		t.Fatalf("odd-even: %v", err)
	}
	for i, deg := range g.Degrees() {
		if deg != d[i] {
			t.Fatalf("degree %d at %d", deg, i)
		}
	}
	if stats.ChargedRounds != 0 {
		t.Fatal("odd-even run must charge nothing")
	}
}

func TestMergeSortOption(t *testing.T) {
	d := []int{3, 3, 2, 2, 2, 2, 1, 1}
	gM, stM, err := RealizeDegrees(d, &Options{Sort: MergeSort, Strict: true, Seed: 9})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	gO, _, err := RealizeDegrees(d, &Options{Sort: OracleSort, Strict: true, Seed: 9})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if stM.ChargedRounds != 0 {
		t.Fatal("merge-sort realization must charge nothing")
	}
	eM, eO := gM.Edges(), gO.Edges()
	if len(eM) != len(eO) {
		t.Fatalf("edge counts differ: %d vs %d", len(eM), len(eO))
	}
	for i := range eM {
		if eM[i] != eO[i] {
			t.Fatal("merge-sorted realization differs from oracle-sorted one")
		}
	}
}
