package graphrealize

// Direct coverage for the public Graph helpers (each wraps its own lists
// in an internal/graph view) and for Options normalization — behavior the
// facade tests only exercise incidentally.

import (
	"context"
	"reflect"
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/sortnet"
)

// TestGraphAnalysisOnAdj checks every Graph helper on hand-built adjacency
// lists against hand-computed values: C5 plus the chord {1,3}, and a tree
// (the path 0-1-2-3 with the leaf 4 on vertex 1).
func TestGraphAnalysisOnAdj(t *testing.T) {
	cases := []struct {
		name     string
		adj      [][]int
		degrees  []int
		edges    [][2]int
		tree     bool
		diameter int
		conn     map[[2]int]int // EdgeConnectivity(u, v)
	}{
		{
			name:     "C5+chord",
			adj:      [][]int{{1, 4}, {0, 2, 3}, {1, 3}, {1, 2, 4}, {0, 3}},
			degrees:  []int{2, 3, 2, 3, 2},
			edges:    [][2]int{{0, 1}, {0, 4}, {1, 2}, {1, 3}, {2, 3}, {3, 4}},
			diameter: 2,
			// Vertex 2 has two edge-disjoint paths to 0; vertices 1 and 3
			// share the chord plus both cycle arcs.
			conn: map[[2]int]int{{0, 2}: 2, {1, 3}: 3, {0, 4}: 2},
		},
		{
			name:     "spider",
			adj:      [][]int{{1}, {0, 2, 4}, {1, 3}, {2}, {1}},
			degrees:  []int{1, 3, 2, 1, 1},
			edges:    [][2]int{{0, 1}, {1, 2}, {1, 4}, {2, 3}},
			tree:     true,
			diameter: 3,
			conn:     map[[2]int]int{{0, 3}: 1, {2, 4}: 1},
		},
	}
	for _, c := range cases {
		g := &Graph{N: len(c.adj), Adj: c.adj}
		if g.M() != len(c.edges) {
			t.Errorf("%s: M = %d, want %d", c.name, g.M(), len(c.edges))
		}
		if got := g.Degrees(); !reflect.DeepEqual(got, c.degrees) {
			t.Errorf("%s: degrees %v, want %v", c.name, got, c.degrees)
		}
		if got := g.Edges(); !reflect.DeepEqual(got, c.edges) {
			t.Errorf("%s: edges %v, want the sorted (u<v) pairs %v", c.name, got, c.edges)
		}
		if !g.Connected() {
			t.Errorf("%s: not connected", c.name)
		}
		if g.IsTree() != c.tree {
			t.Errorf("%s: IsTree = %t, want %t", c.name, g.IsTree(), c.tree)
		}
		if d := g.Diameter(); d != c.diameter {
			t.Errorf("%s: diameter %d, want %d", c.name, d, c.diameter)
		}
		if c.tree {
			if d := g.TreeDiameter(); d != c.diameter {
				t.Errorf("%s: tree diameter %d, want %d", c.name, d, c.diameter)
			}
		}
		for p, want := range c.conn {
			if got := g.EdgeConnectivity(p[0], p[1]); got != want {
				t.Errorf("%s: EdgeConnectivity%v = %d, want %d", c.name, p, got, want)
			}
		}
	}
}

// TestGraphHelpersDisconnected covers the disconnected conventions:
// Diameter -1, Connected false, per-component edge connectivity 0.
func TestGraphHelpersDisconnected(t *testing.T) {
	g, err := HavelHakimi([]int{1, 1, 1, 1}) // any realization: two disjoint edges
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Fatal("four degree-1 vertices cannot be connected")
	}
	if d := g.Diameter(); d != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", d)
	}
	// Find two vertices in different components: 0's unique neighbor is the
	// only vertex in its component.
	other := -1
	for v := 1; v < 4; v++ {
		if v != g.Adj[0][0] {
			other = v
			break
		}
	}
	if c := g.EdgeConnectivity(0, other); c != 0 {
		t.Fatalf("cross-component connectivity = %d, want 0", c)
	}
}

// TestTreeDiameterMatchesDiameter checks the cheap two-BFS tree diameter
// against the exact all-sources sweep on a realized tree.
func TestTreeDiameterMatchesDiameter(t *testing.T) {
	g, err := ChainTree([]int{3, 3, 2, 1, 1, 1, 1, 2}) // Σ = 14 = 2(n−1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTree() {
		t.Fatal("chain tree is not a tree")
	}
	if td, d := g.TreeDiameter(), g.Diameter(); td != d {
		t.Fatalf("TreeDiameter %d != Diameter %d", td, d)
	}
}

func TestOptionsNormDefaults(t *testing.T) {
	var nilOpt *Options
	if got := nilOpt.norm(); got != (Options{}) {
		t.Fatalf("nil options must normalize to the zero value, got %+v", got)
	}
	o := &Options{Model: NCC1, Seed: 9, Strict: true, CapMul: 3, Sort: MergeSort, MaxRounds: 99}
	got := o.norm()
	if got != *o {
		t.Fatalf("norm changed the options: %+v vs %+v", got, *o)
	}
	got.Seed = 1000
	if o.Seed != 9 {
		t.Fatal("norm must return a copy, not alias the caller's options")
	}
}

func TestOptionsSimConfig(t *testing.T) {
	o := Options{Model: NCC1, Seed: 5, Strict: true, CapMul: 2, MaxRounds: 123}
	cfg := o.simConfig(context.Background(), 7, []int{1, 2})
	if cfg.N != 7 || cfg.Model != ncc.NCC1 || cfg.Seed != 5 || !cfg.Strict ||
		cfg.CapMul != 2 || cfg.MaxRounds != 123 || len(cfg.Inputs) != 2 {
		t.Fatalf("simConfig mapping wrong: %+v", cfg)
	}
	zero := Options{}
	cfg0 := zero.simConfig(context.Background(), 3, nil)
	if cfg0.Model != ncc.NCC0 || cfg0.CapMul != 0 || cfg0.MaxRounds != 0 {
		// CapMul/MaxRounds stay zero here; ncc.New applies the defaults.
		t.Fatalf("zero options must map to zero config fields: %+v", cfg0)
	}
}

func TestOptionsSortMethodMapping(t *testing.T) {
	cases := []struct {
		in   SortMethod
		want sortnet.Method
	}{
		{OracleSort, sortnet.Oracle},
		{OddEvenSort, sortnet.OddEven},
		{MergeSort, sortnet.Merge},
		{SortMethod(42), sortnet.Oracle}, // unknown falls back to the default
	}
	for _, c := range cases {
		if got := (Options{Sort: c.in}).sortMethod(); got != c.want {
			t.Fatalf("sortMethod(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
