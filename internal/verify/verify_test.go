package verify

import (
	"fmt"
	"math"
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
		{"connectivity: λ below min ρ", Connectivity(twoTriangles, []int{2, 2, 2, 2, 2, 2}), "λ(0,3) ≤ 0 below min ρ = 2"},
	} {
		switch {
		case c.want == "" && c.err != nil:
			t.Errorf("%s: %v", c.name, c.err)
		case c.want != "" && (c.err == nil || !strings.Contains(c.err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, c.err, c.want)
		}
	}
}

// FuzzConnectivity holds Connectivity to a reference that uses no flow
// code, on graphs of at most 12 vertices: the degree and Σρ rules, and
// λ(u,v) ≥ min(ρ(u), ρ(v)) on every pair with each λ found by enumerating
// vertex subsets. n is len(rhoIn) up to 12 and ρ(v) is rhoIn[v] mod n; the
// bits of edges pick the edges {0,1}, {0,2}, …, {n−2,n−1} in that order.
// A refusal that names a pair must name one that violates its threshold.
func FuzzConnectivity(f *testing.F) {
	// twoTrianglesBridged is twoTriangles plus the edge {2,3}: every
	// deg(v) ≥ 2 and m ≤ Σρ, but λ(0,3) = 1. pendantTriangle, the triangle
	// 1-2-3 with the leaf 0 on 1, meets ρ = (1,2,2,2) only when vertex 0 is
	// checked last, not in input order.
	twoTrianglesBridged := [][]int{{1, 2}, {0, 2}, {0, 1, 3}, {2, 4, 5}, {3, 5}, {3, 4}}
	pendantTriangle := [][]int{{1}, {0, 2, 3}, {1, 3}, {1, 2}}
	for _, c := range []struct {
		adj [][]int
		rho []byte
	}{
		{nil, nil},
		{[][]int{{}}, []byte{0}},
		{cycle4, []byte{2, 2, 2, 2}},
		{[][]int{{}, {}}, []byte{0, 0}},
		{cycle4, []byte{3, 2, 2, 2}},
		{k4, []byte{1, 1, 1, 1}},
		{twoTriangles, []byte{2, 2, 2, 2, 2, 2}},
		{twoTrianglesBridged, []byte{2, 2, 2, 2, 2, 2}},
		{pendantTriangle, []byte{1, 2, 2, 2}},
	} {
		var edges []byte
		for bit, p := range allPairs(len(c.adj)) {
			if bit%8 == 0 {
				edges = append(edges, 0)
			}
			if slices.Contains(c.adj[p[0]], p[1]) {
				edges[bit/8] |= 1 << (bit % 8)
			}
		}
		f.Add(c.rho, edges)
	}
	f.Fuzz(func(t *testing.T, rhoIn, edges []byte) {
		n := min(len(rhoIn), 12)
		rho, adj := make([]int, n), make([][]int, n)
		for v := range rho {
			rho[v] = int(rhoIn[v]) % n
		}
		for bit, p := range allPairs(n) {
			if bit/8 < len(edges) && edges[bit/8]>>(bit%8)&1 == 1 {
				adj[p[0]] = append(adj[p[0]], p[1])
				adj[p[1]] = append(adj[p[1]], p[0])
			}
		}
		lam := subsetLambdas(adj)
		m, sum, ok := 0, 0, true
		for v, a := range adj {
			m, sum, ok = m+len(a), sum+rho[v], ok && len(a) >= rho[v]
		}
		ok = ok && m/2 <= sum
		for _, p := range allPairs(n) {
			ok = ok && lam[p[0]][p[1]] >= min(rho[p[0]], rho[p[1]])
		}
		err := Connectivity(adj, rho)
		if (err == nil) != ok {
			t.Fatalf("ρ %v, graph %v: Connectivity says %v, the reference ok = %v", rho, adj, err, ok)
		}
		if err != nil && strings.Contains(err.Error(), "λ(") {
			var u, v, bound, need int
			if _, serr := fmt.Sscanf(err.Error(), "verify: λ(%d,%d) ≤ %d below min ρ = %d", &u, &v, &bound, &need); serr != nil {
				t.Fatalf("ρ %v, graph %v: %v: %v", rho, adj, err, serr)
			}
			if lam[u][v] > bound || bound >= need || need != min(rho[u], rho[v]) {
				t.Fatalf("ρ %v, graph %v: %v, but λ(%d,%d) = %d", rho, adj, err, u, v, lam[u][v])
			}
		}
	})
}

// allPairs lists the pairs {u,v}, u < v, of n vertices in order.
func allPairs(n int) [][2]int {
	var ps [][2]int
	for u := range n {
		for v := u + 1; v < n; v++ {
			ps = append(ps, [2]int{u, v})
		}
	}
	return ps
}

// subsetLambdas returns λ(u,v) for every pair of adj's vertices: the fewest
// edges leaving a vertex subset that holds u but not v, over all 2ⁿ subsets.
func subsetLambdas(adj [][]int) [][]int {
	n := len(adj)
	lam := make([][]int, n)
	for u := range lam {
		lam[u] = make([]int, n)
		for v := range lam[u] {
			lam[u][v] = math.MaxInt
		}
	}
	for set := range 1 << n {
		cut := 0
		for u, a := range adj {
			for _, v := range a {
				if set>>u&1 == 1 && set>>v&1 == 0 {
					cut++
				}
			}
		}
		for u := range n {
			for v := range n {
				if set>>u&1 == 1 && set>>v&1 == 0 {
					lam[u][v], lam[v][u] = min(lam[u][v], cut), min(lam[v][u], cut)
				}
			}
		}
	}
	return lam
}
