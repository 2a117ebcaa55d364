package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustEdge(t *testing.T, g *Graph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

func path(t *testing.T, n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		mustEdge(t, g, i, i+1)
	}
	return g
}

func cycle(t *testing.T, n int) *Graph {
	g := path(t, n)
	mustEdge(t, g, 0, n-1)
	return g
}

func complete(t *testing.T, n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			mustEdge(t, g, u, v)
		}
	}
	return g
}

func TestAddEdgeRejectsLoopsAndRange(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range accepted")
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 1) // duplicate ignored
	mustEdge(t, g, 1, 0) // reversed duplicate ignored
	if g.M() != 1 {
		t.Fatalf("m = %d, want 1", g.M())
	}
	if !slices.Equal(g.Degrees(), []int{1, 1, 0}) {
		t.Fatalf("degrees = %v", g.Degrees())
	}
}

func TestBFSAndDiameterOnPath(t *testing.T) {
	g := path(t, 10)
	d := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		if d[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	if g.Diameter() != 9 {
		t.Fatalf("path diameter = %d, want 9", g.Diameter())
	}
	if !g.IsTree() {
		t.Fatal("path is a tree")
	}
	if g.TreeDiameter() != 9 {
		t.Fatalf("tree diameter = %d, want 9", g.TreeDiameter())
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 2, 3)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if g.Diameter() != -1 {
		t.Fatalf("diameter of disconnected graph = %d, want -1", g.Diameter())
	}
	if g.IsTree() {
		t.Fatal("forest with 2 components is not a tree")
	}
}

func TestEdgeConnectivityBasics(t *testing.T) {
	if c := path(t, 5).EdgeConnectivity(0, 4); c != 1 {
		t.Fatalf("path connectivity = %d, want 1", c)
	}
	if c := cycle(t, 6).EdgeConnectivity(0, 3); c != 2 {
		t.Fatalf("cycle connectivity = %d, want 2", c)
	}
	k5 := complete(t, 5)
	if c := k5.EdgeConnectivity(0, 4); c != 4 {
		t.Fatalf("K5 connectivity = %d, want 4", c)
	}
	// Two cycles joined by a single bridge: connectivity across = 1.
	g := New(8)
	for i := 0; i < 3; i++ {
		mustEdge(t, g, i, (i+1)%4)
	}
	mustEdge(t, g, 3, 0)
	for i := 4; i < 7; i++ {
		mustEdge(t, g, i, 4+(i-3)%4)
	}
	mustEdge(t, g, 7, 4)
	mustEdge(t, g, 0, 4)
	if c := g.EdgeConnectivity(1, 5); c != 1 {
		t.Fatalf("bridge connectivity = %d, want 1", c)
	}
}

func TestEdgeConnectivityDisconnected(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 2, 3)
	if c := g.EdgeConnectivity(0, 3); c != 0 {
		t.Fatalf("disconnected pair connectivity = %d, want 0", c)
	}
}

// bruteEdgeConnectivity finds the min edge cut between s and t by trying all
// edge subsets (only viable for very small graphs). It is the ground truth
// for the property test below.
func bruteEdgeConnectivity(g *Graph, s, t int) int {
	edges := g.Edges()
	m := len(edges)
	best := m
	for mask := 0; mask < 1<<m; mask++ {
		// Build the graph without the masked edges and test reachability.
		popcount := 0
		for b := mask; b != 0; b &= b - 1 {
			popcount++
		}
		if popcount >= best {
			continue
		}
		h := New(g.N())
		for i, e := range edges {
			if mask&(1<<i) == 0 {
				_ = h.AddEdge(e[0], e[1])
			}
		}
		if h.BFS(s)[t] == -1 {
			best = popcount
		}
	}
	return best
}

func TestQuickEdgeConnectivityMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4) // 4..7 vertices
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					_ = g.AddEdge(u, v)
				}
			}
		}
		if g.M() > 12 {
			return true // keep brute force tractable
		}
		s, tt := 0, 1+rng.Intn(n-1)
		return g.EdgeConnectivity(s, tt) == bruteEdgeConnectivity(g, s, tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteSetConnectivity returns λ(s,T) without flow code: the fewest edges
// leaving a vertex subset that holds s and no vertex of T. Bit v of a subset
// index, and of sinks for T, stands for vertex v; cuts[set] counts the edges
// leaving set.
func bruteSetConnectivity(cuts []int, s, sinks int) int {
	best := math.MaxInt
	for set, cut := range cuts {
		if set>>s&1 == 1 && set&sinks == 0 {
			best = min(best, cut)
		}
	}
	return best
}

// TestCutsThresholdMatchesEdgeConnectivity grows one Cuts' sink set T a
// vertex at a time, in a random order, on seeded random graphs of 2 to 12
// vertices. After each step it asks every s outside T for min(λ(s,T), k) at
// every k up to max degree + 1, against bruteSetConnectivity, so queries
// that reach k and queries that fail short of it alternate on one network.
func TestCutsThresholdMatchesEdgeConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 60 {
		n, p := 2+rng.Intn(11), rng.Float64()
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					mustEdge(t, g, u, v)
				}
			}
		}
		cutSizes, edges := make([]int, 1<<n), g.Edges()
		for set := range cutSizes {
			for _, e := range edges {
				if set>>e[0]&1 != set>>e[1]&1 {
					cutSizes[set]++
				}
			}
		}
		maxDeg := slices.Max(g.Degrees())
		cuts, sinks := g.Cuts(), 0
		for _, x := range rng.Perm(n)[:n-1] {
			cuts.AddSink(x)
			sinks |= 1 << x
			for s := range n {
				if sinks>>s&1 == 1 {
					continue
				}
				lam := bruteSetConnectivity(cutSizes, s, sinks)
				for k := 0; k <= maxDeg+1; k++ {
					if got := cuts.Flow(s, k); got != min(lam, k) {
						t.Fatalf("n=%d %v, T %b: λ(%d,T) up to %d = %d, subsets give %d", n, edges, sinks, s, k, got, lam)
					}
				}
			}
		}
	}
}

func TestTreeDiameterMatchesAllPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		// random recursive tree
		for v := 1; v < n; v++ {
			_ = g.AddEdge(v, rng.Intn(v))
		}
		return g.TreeDiameter() == g.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 3, 1)
	mustEdge(t, g, 2, 0)
	es := g.Edges()
	want := [][2]int{{0, 2}, {1, 3}}
	if len(es) != 2 || es[0] != want[0] || es[1] != want[1] {
		t.Fatalf("edges = %v, want %v", es, want)
	}
}

func TestEccentricityK4(t *testing.T) {
	g := complete(t, 4)
	for v := 0; v < 4; v++ {
		if e := g.Eccentricity(v); e != 1 {
			t.Fatalf("ecc(%d) = %d, want 1", v, e)
		}
	}
	if g.Diameter() != 1 {
		t.Fatalf("K4 diameter = %d, want 1", g.Diameter())
	}
}
