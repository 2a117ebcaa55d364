package verify

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphrealize/internal/graph"
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
		{"format: an edge listed at its higher end only", Degrees([][]int{{}, {0}}, []int{0, 1}), "edge {1,0} listed at 1 only"},
		{"format: an edge missing in the middle of a list", Degrees([][]int{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 2}}, []int{3, 3, 3, 2}), "edge {1,3} listed at 1 only"},
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

// symmetricRef is the reference for format's symmetry rule, on lists that
// already passed its per-list rules: one binary search per listed edge.
func symmetricRef(adj [][]int) bool {
	for u, a := range adj {
		for _, v := range a {
			if _, ok := slices.BinarySearch(adj[v], u); !ok {
				return false
			}
		}
	}
	return true
}

// TestFormatSymmetryMatchesReference compares format's one-pass symmetry
// check with symmetricRef on random ascending, loop-free lists of up to 7
// vertices: the verdicts must agree, and an edge format names as one-sided
// must be listed at the named end and missing at the other.
func TestFormatSymmetryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(8)
		adj := make([][]int, n)
		for _, p := range allPairs(n) {
			// Most edges are listed at both ends or none, so that symmetric
			// inputs are common; the rest at one end only.
			switch r := rng.Intn(16); {
			case r < 6:
				adj[p[0]] = append(adj[p[0]], p[1])
				adj[p[1]] = append(adj[p[1]], p[0])
			case r == 6:
				adj[p[0]] = append(adj[p[0]], p[1])
			case r == 7:
				adj[p[1]] = append(adj[p[1]], p[0])
			}
		}
		for _, a := range adj {
			slices.Sort(a)
		}
		err := format(adj, n)
		if ok := symmetricRef(adj); ok != (err == nil) {
			t.Fatalf("%v: format says %v, the reference ok = %v", adj, err, ok)
		}
		if err != nil {
			var u, v, at int
			if _, serr := fmt.Sscanf(err.Error(), "verify: edge {%d,%d} listed at %d only", &u, &v, &at); serr != nil {
				t.Fatalf("%v: %v: %v", adj, err, serr)
			}
			if at != u || !slices.Contains(adj[u], v) || slices.Contains(adj[v], u) {
				t.Fatalf("%v: %v, but that edge is not listed at %d alone", adj, err, u)
			}
		}
	}
}

// TestConnectivityOrderMatchesStableSort holds Connectivity, which orders
// the vertices by counting sort, to stableSortRef, the same check with the
// order it replaced, slices.SortStableFunc by non-increasing ρ, on random
// graphs of up to 12 vertices whose thresholds tie, are zero or negative:
// the verdicts and the error texts must be the same. Where the degree rule
// holds, byThreshold must also be the stable order by max(ρ, 0).
func TestConnectivityOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	outcomes := map[string]int{}
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(13)
		adj := make([][]int, n)
		p := rng.Float64()
		for _, e := range allPairs(n) {
			if rng.Float64() < p {
				adj[e[0]] = append(adj[e[0]], e[1])
				adj[e[1]] = append(adj[e[1]], e[0])
			}
		}
		rho := make([]int, n)
		for v, a := range adj {
			switch r := rng.Intn(16); {
			case r < 2:
				rho[v] = -rng.Intn(3)
			case r == 2:
				rho[v] = len(a) + 1
			default:
				rho[v] = rng.Intn(len(a) + 1)
			}
		}
		err, want := Connectivity(adj, rho), stableSortRef(adj, rho)
		if errText(err) != errText(want) {
			t.Fatalf("ρ %v, graph %v: Connectivity says %q, the stable-sort reference %q", rho, adj, errText(err), errText(want))
		}
		outcome := "pass"
		for _, rule := range []string{"verify: deg", "verify: m", "verify: λ"} {
			if strings.HasPrefix(errText(err), rule) {
				outcome = rule
			}
		}
		outcomes[outcome]++
		if slices.ContainsFunc(rho, func(r int) bool { return r >= n }) {
			continue
		}
		order := make([]int, n)
		for v := range order {
			order[v] = v
		}
		slices.SortStableFunc(order, func(u, v int) int { return max(rho[v], 0) - max(rho[u], 0) })
		if got := byThreshold(rho); !slices.Equal(got, order) {
			t.Fatalf("ρ %v: byThreshold %v, stable order %v", rho, got, order)
		}
	}
	for _, o := range []string{"pass", "verify: deg", "verify: m", "verify: λ"} {
		if outcomes[o] == 0 {
			t.Errorf("no trial ended in %q: %v", o, outcomes)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}

// stableSortRef is Connectivity with the order it had before byThreshold:
// slices.SortStableFunc by non-increasing ρ, negative values included.
func stableSortRef(adj [][]int, rho []int) error {
	if err := format(adj, len(rho)); err != nil {
		return err
	}
	m, order := 0, make([]int, len(rho))
	for v, a := range adj {
		if len(a) < rho[v] {
			return fmt.Errorf("verify: deg(%d) = %d below ρ = %d", v, len(a), rho[v])
		}
		m, order[v] = m+len(a), v
	}
	sum := 0
	for _, r := range rho {
		sum += r
	}
	if m/2 > sum {
		return fmt.Errorf("verify: m = %d above Σρ = %d", m/2, sum)
	}
	slices.SortStableFunc(order, func(u, v int) int { return cmp.Compare(rho[v], rho[u]) })
	cuts := graph.FromAdj(adj).Cuts()
	for i := 1; i < len(order); i++ {
		x := order[i]
		cuts.AddSink(order[i-1])
		if lam := cuts.Flow(x, rho[x]); lam < rho[x] {
			return fmt.Errorf("verify: λ(%d,%d) ≤ %d below min ρ = %d", order[0], x, lam, rho[x])
		}
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
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
