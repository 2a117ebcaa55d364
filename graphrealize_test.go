package graphrealize

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"graphrealize/internal/ncc"
	"graphrealize/internal/verify"
)

func TestFacadeRealizeDegrees(t *testing.T) {
	d := []int{3, 3, 2, 2, 2, 2}
	g, stats, err := RealizeDegrees(d, nil)
	if err != nil {
		t.Fatalf("realize: %v", err)
	}
	if err := (Result{Job: Job{Kind: JobDegrees, Seq: d}, Graph: g, Stats: stats}).Verify(); err != nil {
		t.Fatal(err)
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
	g, envl, st, err := RealizeUpperEnvelope(d, &Options{Strict: true})
	if err != nil {
		t.Fatalf("envelope: %v", err)
	}
	res := Result{Job: Job{Kind: JobUpperEnvelope, Seq: d}, Graph: g, Envelope: envl, Stats: st}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTrees(t *testing.T) {
	d := []int{3, 3, 2, 1, 1, 1, 1, 2} // Σ = 14 = 2·7
	for _, kind := range []JobKind{JobChainTree, JobMinDiamTree} {
		res := Execute(context.Background(), Job{Kind: kind, Seq: d, Opt: &Options{Strict: true}})
		if res.Err != nil {
			t.Fatalf("%s: %v", kind, res.Err)
		}
		if err := res.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := RealizeTree([]int{2, 2, 2}, nil); !errors.Is(err, ErrUnrealizable) {
		t.Fatalf("cycle accepted as tree: %v", err)
	}
}

func TestFacadeConnectivityBothModels(t *testing.T) {
	rho := []int{3, 3, 2, 2, 1, 1, 1, 1}
	for _, model := range []Model{NCC0, NCC1} {
		res := Execute(context.Background(), Job{Kind: JobConnectivity, Seq: rho, Opt: &Options{Model: model, Strict: true, Seed: 5}})
		if res.Err != nil {
			t.Fatalf("model %v: %v", model, res.Err)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("model %v: %v", model, err)
		}
		if res.Stats.Rounds == 0 {
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
	if err := verify.Degrees(g.Adj, d); err != nil {
		t.Fatalf("hh: %v", err)
	}
	if _, err := HavelHakimi([]int{3, 3, 1, 1}); !errors.Is(err, ErrUnrealizable) {
		t.Fatal("hh accepted non-graphic")
	}
	td := []int{2, 2, 1, 1}
	ct, err := ChainTree(td)
	if err != nil || verify.ChainTree(ct.Adj, td) != nil {
		t.Fatalf("chain tree: %v", err)
	}
	gt, err := GreedyTree(td)
	if err != nil || verify.MinDiamTree(gt.Adj, td) != nil {
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
	if err := (Result{Job: Job{Kind: JobDegrees, Seq: d}, Graph: g, Stats: stats}).Verify(); err != nil {
		t.Fatal(err)
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

// TestResultVerifyRejections holds Result.Verify to its rejection rule:
// ErrUnrealizable is correct exactly when the sequential reference rejects
// the input, and the envelope kind never rejects.
func TestResultVerifyRejections(t *testing.T) {
	for _, c := range []struct {
		kind                 JobKind
		rejected, realizable []int
	}{
		{JobDegrees, []int{3, 3, 1, 1}, []int{2, 2, 2}},
		{JobDegreesExplicit, []int{2, 0, 0}, []int{1, 1}},
		{JobUpperEnvelope, nil, []int{3, 3, 1, 1}},
		{JobChainTree, []int{2, 2, 2}, []int{1, 2, 1}},
		{JobMinDiamTree, []int{1, 1, 1, 1}, []int{0}},
		{JobConnectivity, []int{5, 1, 1}, []int{2, 2, 2}},
	} {
		if c.rejected != nil {
			if err := (Result{Job: Job{Kind: c.kind, Seq: c.rejected}, Err: ErrUnrealizable}).Verify(); err != nil {
				t.Errorf("%s: correct rejection of %v refused: %v", c.kind, c.rejected, err)
			}
		}
		err := Result{Job: Job{Kind: c.kind, Seq: c.realizable}, Err: ErrUnrealizable}.Verify()
		if err == nil || !strings.Contains(err.Error(), "ErrUnrealizable") {
			t.Errorf("%s: rejection of %v: %v, want a refusal naming ErrUnrealizable", c.kind, c.realizable, err)
		}
	}
	edgeless := Result{Job: Job{Kind: JobConnectivity, Seq: []int{-1, 0}}, Graph: &Graph{N: 2, Adj: make([][]int, 2)}, Stats: &Stats{}}
	if err := edgeless.Verify(); err == nil || !strings.Contains(err.Error(), "ErrUnrealizable") {
		t.Errorf("a realization of ρ = (-1, 0): %v, want a refusal", err)
	}
	if err := (Result{Err: ErrBadInput}).Verify(); !errors.Is(err, ErrBadInput) {
		t.Errorf("ErrBadInput came back as %v", err)
	}
}

// TestResultVerifyPhaseBound: a degree result stays within
// 2·min{⌊√m⌋, Δ}+2 phases, which is 2·min{1, 2}+2 = 4 for the triangle.
func TestResultVerifyPhaseBound(t *testing.T) {
	res := Result{Job: Job{Kind: JobDegrees, Seq: []int{2, 2, 2}}, Graph: &Graph{N: 3, Adj: [][]int{{1, 2}, {0, 2}, {0, 1}}}}
	res.Stats = &Stats{Phases: 4}
	if err := res.Verify(); err != nil {
		t.Fatalf("4 phases: %v", err)
	}
	res.Stats = &Stats{Phases: 5}
	if err := res.Verify(); err == nil || !strings.Contains(err.Error(), "5 phases above Lemma 10's bound 4") {
		t.Fatalf("5 phases: %v", err)
	}
}
