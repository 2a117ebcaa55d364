package seq

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestIsGraphicKnownCases(t *testing.T) {
	cases := []struct {
		d    []int
		want bool
	}{
		{[]int{}, true},
		{[]int{0}, true},
		{[]int{1}, false},
		{[]int{1, 1}, true},
		{[]int{2, 2, 2}, true},           // triangle
		{[]int{3, 3, 3, 3}, true},        // K4
		{[]int{3, 1, 1, 1}, true},        // star
		{[]int{4, 1, 1, 1, 1}, true},     // star K1,4
		{[]int{3, 3, 1, 1}, false},       // classic non-graphic
		{[]int{5, 5, 5, 1, 1, 1}, false}, // EG violation at k=3
		{[]int{2, 2, 1, 1}, true},        // path
		{[]int{1, 1, 1}, false},          // odd sum
		{[]int{4, 4, 4, 4, 4}, true},     // K5
		{[]int{5, 4, 3, 2, 1}, false},    // odd sum
		{[]int{5, 4, 3, 2, 1, 1}, false}, // EG fails at k=2: 9 > 8
		{[]int{3, 3, 2, 2, 2, 2}, true},
		{[]int{-1, 1}, false},
		{[]int{3, 2, 1}, false}, // d exceeds n-1... 3 > 2
	}
	for _, c := range cases {
		if got := IsGraphic(c.d); got != c.want {
			t.Errorf("IsGraphic(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestHavelHakimiRealizesGraphicSequences(t *testing.T) {
	seqs := [][]int{
		{2, 2, 2},
		{3, 3, 3, 3},
		{3, 1, 1, 1},
		{2, 2, 1, 1},
		{4, 4, 4, 4, 4},
		{3, 3, 2, 2, 2, 2},
		{0, 0, 0},
	}
	for _, d := range seqs {
		g, ok := HavelHakimi(d)
		if !ok {
			t.Fatalf("HavelHakimi(%v) reported non-graphic", d)
		}
		if !slices.Equal(g.Degrees(), d) {
			t.Fatalf("HavelHakimi(%v) degrees = %v", d, g.Degrees())
		}
	}
}

func TestHavelHakimiRejectsNonGraphic(t *testing.T) {
	for _, d := range [][]int{{3, 3, 1, 1}, {1, 1, 1}, {1}, {5, 5, 5, 1, 1, 1}} {
		if _, ok := HavelHakimi(d); ok {
			t.Fatalf("HavelHakimi(%v) accepted a non-graphic sequence", d)
		}
	}
}

// TestQuickHavelHakimiAgreesWithErdosGallai is the central equivalence
// property: the constructive and the characterization-based tests agree, and
// every construction exactly realizes its input.
func TestQuickHavelHakimiAgreesWithErdosGallai(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		d := make([]int, n)
		for i := range d {
			d[i] = rng.Intn(n)
		}
		g, ok := HavelHakimi(d)
		if ok != IsGraphic(d) {
			return false
		}
		if ok && !slices.Equal(g.Degrees(), d) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIsTreeSequence(t *testing.T) {
	cases := []struct {
		d    []int
		want bool
	}{
		{[]int{0}, true},
		{[]int{1, 1}, true},
		{[]int{2, 1, 1}, true},
		{[]int{3, 1, 1, 1}, true},
		{[]int{2, 2, 1, 1}, true},
		{[]int{2, 2, 2}, false}, // cycle, not tree
		{[]int{1, 1, 1, 1}, false},
		{[]int{0, 1}, false},
		{[]int{}, false},
	}
	for _, c := range cases {
		if got := IsTreeSequence(c.d); got != c.want {
			t.Errorf("IsTreeSequence(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestChainTreeAndGreedyTreeRealize(t *testing.T) {
	seqs := [][]int{
		{1, 1},
		{2, 1, 1},
		{3, 1, 1, 1},
		{2, 2, 1, 1},
		{4, 3, 3, 2, 1, 1, 1, 1, 1, 1}, // n=10, Σd = 18 = 2(n-1)
		{4, 1, 1, 1, 1},                // star
		{1, 2, 2, 2, 2, 1},             // path, unsorted input order
	}
	for _, d := range seqs {
		if !IsTreeSequence(d) {
			t.Fatalf("test bug: %v is not a tree sequence", d)
		}
		ct, ok := ChainTree(d)
		if !ok || !ct.IsTree() || !slices.Equal(ct.Degrees(), d) {
			t.Fatalf("ChainTree(%v): ok=%v tree=%v degrees=%v", d, ok, ct != nil && ct.IsTree(), ct.Degrees())
		}
		gt, ok := GreedyTree(d)
		if !ok || !gt.IsTree() || !slices.Equal(gt.Degrees(), d) {
			t.Fatalf("GreedyTree(%v): ok=%v", d, ok)
		}
		if gt.TreeDiameter() > ct.TreeDiameter() {
			t.Fatalf("GreedyTree diameter %d > ChainTree diameter %d for %v",
				gt.TreeDiameter(), ct.TreeDiameter(), d)
		}
	}
}

func TestGreedyTreeMinimalityByExhaustion(t *testing.T) {
	// For small n, enumerate all labeled trees via Prüfer strings and verify
	// no realization of the sequence has smaller diameter than GreedyTree.
	for n := 3; n <= 6; n++ {
		// Enumerate Prüfer strings of length n-2 over [0,n).
		total := 1
		for i := 0; i < n-2; i++ {
			total *= n
		}
		type key string
		best := map[string]int{}
		for code := 0; code < total; code++ {
			pr := make([]int, n-2)
			c := code
			for i := range pr {
				pr[i] = c % n
				c /= n
			}
			g := pruferToTree(n, pr)
			d := g.Degrees()
			k := degKey(d)
			diam := g.TreeDiameter()
			if cur, ok := best[k]; !ok || diam < cur {
				best[k] = diam
			}
		}
		for k, wantDiam := range best {
			d := keyDeg(k)
			gt, ok := GreedyTree(d)
			if !ok {
				t.Fatalf("n=%d: GreedyTree rejected realizable %v", n, d)
			}
			if got := gt.TreeDiameter(); got != wantDiam {
				t.Fatalf("n=%d seq=%v: greedy diameter %d, optimal %d", n, d, got, wantDiam)
			}
		}
	}
}

func TestMinTreeDiameterStarAndPath(t *testing.T) {
	star := []int{4, 1, 1, 1, 1}
	if d := MinTreeDiameter(star); d != 2 {
		t.Fatalf("star min diameter = %d, want 2", d)
	}
	path := []int{1, 2, 2, 2, 1}
	if d := MinTreeDiameter(path); d != 4 {
		t.Fatalf("path min diameter = %d, want 4", d)
	}
	if d := MinTreeDiameter([]int{2, 2, 2}); d != -1 {
		t.Fatalf("non-tree sequence min diameter = %d, want -1", d)
	}
}

func TestConnectivityLowerBound(t *testing.T) {
	if lb := ConnectivityLowerBound([]int{3, 3, 3}); lb != 5 {
		t.Fatalf("LB = %d, want 5", lb)
	}
	if lb := ConnectivityLowerBound([]int{2, 2}); lb != 2 {
		t.Fatalf("LB = %d, want 2", lb)
	}
}

func TestSumAndMax(t *testing.T) {
	if SumDegrees([]int{1, 2, 3}) != 6 {
		t.Fatal("SumDegrees")
	}
	if MaxDegree([]int{1, 5, 3}) != 5 || MaxDegree(nil) != 0 {
		t.Fatal("MaxDegree")
	}
}
