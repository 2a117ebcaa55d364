package verify

import (
	"slices"
	"strings"
	"testing"
)

// Worked examples for every rule of the oracle. Each function has one
// hand-built graph that passes; each rule has one case that breaks that
// rule alone and must fail with an error naming it.

var (
	cycle4    = [][]int{{1, 3}, {0, 2}, {1, 3}, {0, 2}}
	k4        = [][]int{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}
	k4minus23 = [][]int{{1, 2, 3}, {0, 2, 3}, {0, 1}, {0, 1}}
	// twoTriangles is 0-1-2 and 3-4-5, with no path between them.
	twoTriangles = [][]int{{1, 2}, {0, 2}, {0, 1}, {4, 5}, {3, 5}, {3, 4}}
	// triangleAndEdge has the degrees of a 5-vertex tree, but a cycle.
	triangleAndEdge = [][]int{{1, 2}, {0, 2}, {0, 1}, {4}, {3}}
	// spiderD has one vertex of degree 3, three of degree 2 and three
	// leaves. Its trees have diameter 4 (spider) to 5 (caterpillar).
	spiderD = []int{3, 2, 2, 2, 1, 1, 1}
	// spider: centre 0 with legs 0-1-4, 0-2-5, 0-3-6; diameter 4.
	spider = [][]int{{1, 2, 3}, {0, 4}, {0, 5}, {0, 6}, {1}, {2}, {3}}
	// caterpillar: path 4-0-1-2-3-6 with leaf 5 on 0; diameter 5.
	caterpillar = [][]int{{1, 4, 5}, {0, 2}, {1, 3}, {2, 6}, {0}, {0}, {3}}
)

func TestWorkedExamples(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		want string // "" when the check must pass, else a substring of its error
	}{
		// Degrees (Theorems 11 and 12), and the Graph.Adj format every
		// check tests first.
		{"degrees: the 4-cycle realizes (2,2,2,2)", Degrees(cycle4, []int{2, 2, 2, 2}), ""},
		{"format: one list per input", Degrees(cycle4, []int{2, 2, 2}), "4 adjacency lists for 3 inputs"},
		{"format: a self-loop", Degrees([][]int{{0, 1}, {0}}, []int{2, 1}), "self-loop at 0"},
		{"format: an edge listed at one end only", Degrees([][]int{{1}, {}}, []int{1, 0}), "edge {0,1} listed at 0 only"},
		{"format: an unsorted list", Degrees([][]int{{2, 1}, {0}, {0}}, []int{2, 1, 1}), "list 0 is not ascending"},
		{"format: a repeated edge", Degrees([][]int{{1, 1}, {0, 0}}, []int{2, 2}), "list 0 is not ascending and duplicate-free"},
		{"format: a vertex out of range", Degrees([][]int{{2}, {}}, []int{1, 0}), "vertex 2, out of range"},
		{"degrees: a wrong degree", Degrees(cycle4, []int{2, 2, 2, 3}), "deg(3) = 2, want 3"},

		// Envelope (Theorem 13): (3,3,1,1) is not graphic; K4 minus {2,3}
		// realizes the envelope (3,3,2,2).
		{"envelope: (3,3,2,2) over (3,3,1,1)", Envelope(k4minus23, []int{3, 3, 1, 1}, []int{3, 3, 2, 2}), ""},
		{"envelope: clamps d into [0, n-1]", Envelope(k4minus23, []int{9, 3, 1, -4}, []int{3, 3, 2, 2}), ""},
		{"envelope: one entry per input", Envelope(k4minus23, []int{3, 3, 1, 1}, []int{3, 3, 2}), "envelope of length 3 for 4 inputs"},
		{"envelope: the graph realizes d′", Envelope(k4minus23, []int{3, 3, 1, 1}, []int{3, 3, 2, 1}), "deg(3) = 2, want 1"},
		{"envelope: d′ < d", Envelope(k4minus23, []int{3, 3, 3, 1}, []int{3, 3, 2, 2}), "d′(2) = 2 below d(2) = 3"},
		{"envelope: Σd′ > 2Σd", Envelope(k4, []int{1, 1, 0, 0}, []int{3, 3, 3, 3}), "Σd′ = 12 above 2Σd = 4"},

		// Chain tree (Algorithm 4): the maximum diameter, 1 + #{d(v) ≥ 2}.
		{"chain tree: the caterpillar", ChainTree(caterpillar, spiderD), ""},
		{"chain tree: a single vertex", ChainTree([][]int{{}}, []int{0}), ""},
		{"chain tree: a single edge", ChainTree([][]int{{1}, {0}}, []int{1, 1}), ""},
		{"chain tree: one short of the maximum", ChainTree(spider, spiderD), "tree diameter 4, maximum is 5"},
		{"chain tree: degrees", ChainTree(caterpillar, []int{2, 2, 2, 2, 1, 1, 1}), "deg(0) = 3, want 2"},
		{"chain tree: a triangle and an edge is no tree", ChainTree(triangleAndEdge, []int{2, 2, 2, 1, 1}), "not a tree"},

		// Minimum-diameter tree (Lemma 15): seq.MinTreeDiameter(d).
		{"min-diameter tree: the spider", MinDiamTree(spider, spiderD), ""},
		{"min-diameter tree: above the minimum", MinDiamTree(caterpillar, spiderD), "tree diameter 5, minimum is 4"},
		{"min-diameter tree: a triangle and an edge is no tree", MinDiamTree(triangleAndEdge, []int{2, 2, 2, 1, 1}), "not a tree"},

		// Connectivity (Theorems 17 and 18).
		{"connectivity: the 4-cycle meets ρ = 2", Connectivity(cycle4, []int{2, 2, 2, 2}), ""},
		{"connectivity: ρ = 0 needs nothing", Connectivity([][]int{{}, {}}, []int{0, 0}), ""},
		{"connectivity: format first", Connectivity([][]int{{1}, {}}, []int{1, 0}), "listed at 0 only"},
		{"connectivity: deg below ρ", Connectivity(cycle4, []int{3, 2, 2, 2}), "deg(0) = 2 below ρ = 3"},
		{"connectivity: m > Σρ", Connectivity(k4, []int{1, 1, 1, 1}), "m = 6 above Σρ = 4"},
		{"connectivity: λ below min ρ", Connectivity(twoTriangles, []int{2, 2, 2, 2, 2, 2}), "λ(0,3) = 0 below min ρ = 2"},
	} {
		switch {
		case c.want == "" && c.err != nil:
			t.Errorf("%s: %v", c.name, c.err)
		case c.want != "" && (c.err == nil || !strings.Contains(c.err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, c.err, c.want)
		}
	}
}

// TestConnectivityPairs pins how Connectivity chooses the pairs it checks
// by max-flow: every pair up to 32 vertices; above, 64 pairs that start
// with the two largest-ρ vertices and repeat on a repeated input.
func TestConnectivityPairs(t *testing.T) {
	if got := len(pairs(make([]int, 32))); got != 32*31/2 {
		t.Fatalf("n=32: %d pairs, want all %d", got, 32*31/2)
	}
	rho := make([]int, 40)
	for v := range rho {
		rho[v] = 1 + v%3
	}
	rho[33], rho[17] = 9, 8
	ps := pairs(rho)
	if len(ps) != 64 || ps[0] != [2]int{33, 17} {
		t.Fatalf("n=40: %d pairs starting %v, want 64 starting {33 17}", len(ps), ps[0])
	}
	for _, p := range ps {
		if p[0] == p[1] || min(p[0], p[1]) < 0 || max(p[0], p[1]) >= len(rho) {
			t.Fatalf("n=40: pair %v", p)
		}
	}
	if !slices.Equal(ps, pairs(rho)) {
		t.Fatal("n=40: a repeated input chose different pairs")
	}
}
