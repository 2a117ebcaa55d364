package trees

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphrealize/internal/core"
	"graphrealize/internal/gen"
	"graphrealize/internal/graph"
	"graphrealize/internal/ncc"
	"graphrealize/internal/seq"
	"graphrealize/internal/sortnet"
)

func runTree(t *testing.T, d []int, greedy bool, seed int64) (*ncc.Trace, error) {
	n := len(d)
	inputs := make([]any, n)
	for i, v := range d {
		inputs[i] = v
	}
	s := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true, Inputs: inputs})
	sortnet.RegisterOracle(s)
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return core.Setup(nd, sortnet.Oracle, func(env *core.Env) ncc.Op {
			deg := nd.Input().(int)
			done := func(out Outcome) ncc.Op {
				nd.SetOutput("realized", int64(out.Realized))
				if out.OK {
					nd.SetOutput("ok", 1)
				}
				return ncc.Done()
			}
			if greedy {
				return RealizeGreedy(nd, env, deg, done)
			}
			return RealizeChain(nd, env, deg, done)
		})
	})
	if err != nil && t != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	return tr, err
}

func buildGraph(tr *ncc.Trace) *graph.Graph {
	idx := make(map[ncc.ID]int, len(tr.IDs))
	for i, id := range tr.IDs {
		idx[id] = i
	}
	g := graph.New(len(tr.IDs))
	for e := range tr.EdgeSet() {
		_ = g.AddEdge(idx[e[0]], idx[e[1]])
	}
	return g
}

func treeCases() map[string][]int {
	return map[string][]int{
		"edge":        {1, 1},
		"path5":       {1, 2, 2, 2, 1},
		"star7":       gen.StarSequence(7),
		"caterpillar": gen.CaterpillarSequence(12, 5),
		"random20":    gen.TreeSequence(20, 4),
		"random50":    gen.TreeSequence(50, 5),
		"random100":   gen.TreeSequence(100, 6),
		"broom":       {4, 4, 1, 1, 1, 1, 1, 1},
	}
}

func TestChainTreeRealizes(t *testing.T) {
	for name, d := range treeCases() {
		tr, _ := runTree(t, d, false, 17)
		if tr.Unrealizable {
			t.Fatalf("%s: flagged unrealizable", name)
		}
		g := buildGraph(tr)
		if !g.IsTree() {
			t.Fatalf("%s: not a tree (m=%d, comps=%d)", name, g.M(), g.Components())
		}
		if !g.DegreesMatch(d) {
			t.Fatalf("%s: degrees %v, want %v", name, g.Degrees(), d)
		}
		// Same structure family as the sequential Algorithm 4 baseline:
		// identical diameter.
		want, _ := seq.ChainTree(d)
		if g.TreeDiameter() != want.TreeDiameter() {
			t.Fatalf("%s: chain diameter %d, sequential %d", name, g.TreeDiameter(), want.TreeDiameter())
		}
		for i, id := range tr.IDs {
			if v, _ := tr.Output(id, "realized"); v != int64(d[i]) {
				t.Fatalf("%s: node %d realized %d, want %d", name, id, v, d[i])
			}
		}
	}
}

func TestGreedyTreeRealizesWithMinDiameter(t *testing.T) {
	for name, d := range treeCases() {
		tr, _ := runTree(t, d, true, 19)
		if tr.Unrealizable {
			t.Fatalf("%s: flagged unrealizable", name)
		}
		g := buildGraph(tr)
		if !g.IsTree() {
			t.Fatalf("%s: not a tree", name)
		}
		if !g.DegreesMatch(d) {
			t.Fatalf("%s: degrees %v, want %v", name, g.Degrees(), d)
		}
		// Lemma 15: the greedy tree has minimum diameter.
		if want := seq.MinTreeDiameter(d); g.TreeDiameter() != want {
			t.Fatalf("%s: greedy diameter %d, optimal %d", name, g.TreeDiameter(), want)
		}
		for i, id := range tr.IDs {
			if v, _ := tr.Output(id, "realized"); v != int64(d[i]) {
				t.Fatalf("%s: node %d realized %d, want %d", name, id, v, d[i])
			}
		}
	}
}

func TestGreedyNeverWorseThanChain(t *testing.T) {
	for name, d := range treeCases() {
		trC, _ := runTree(t, d, false, 23)
		trG, _ := runTree(t, d, true, 23)
		dc := buildGraph(trC).TreeDiameter()
		dg := buildGraph(trG).TreeDiameter()
		if dg > dc {
			t.Fatalf("%s: greedy diameter %d > chain diameter %d", name, dg, dc)
		}
	}
}

func TestTreeRejectsBadSequences(t *testing.T) {
	for _, d := range [][]int{
		{2, 2, 2},          // cycle
		{1, 1, 1, 1},       // forest
		{0, 1},             // zero degree
		{3, 3, 3, 1, 1, 1}, // sum too big
	} {
		for _, greedy := range []bool{false, true} {
			tr, err := runTree(nil, d, greedy, 29)
			if err != nil {
				t.Fatalf("%v: run error: %v", d, err)
			}
			if !tr.Unrealizable {
				t.Fatalf("%v greedy=%v: not flagged", d, greedy)
			}
		}
	}
}

func TestSingleNodeTree(t *testing.T) {
	for _, greedy := range []bool{false, true} {
		tr, _ := runTree(t, []int{0}, greedy, 31)
		if tr.Unrealizable {
			t.Fatal("single vertex with degree 0 is a (trivial) tree")
		}
		if len(tr.EdgeSet()) != 0 {
			t.Fatal("single vertex tree has edges")
		}
	}
}

func TestQuickTreeRealizations(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw%40) + 2
		d := gen.TreeSequence(n, seed)
		rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { d[i], d[j] = d[j], d[i] })
		trC, errC := runTree(nil, d, false, seed)
		trG, errG := runTree(nil, d, true, seed)
		if errC != nil || errG != nil || trC.Unrealizable || trG.Unrealizable {
			return false
		}
		gc, gg := buildGraph(trC), buildGraph(trG)
		if !gc.IsTree() || !gg.IsTree() || !gc.DegreesMatch(d) || !gg.DegreesMatch(d) {
			return false
		}
		return gg.TreeDiameter() == seq.MinTreeDiameter(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeRoundsArePolylog(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		d := gen.TreeSequence(n, int64(n))
		tr, _ := runTree(t, d, true, int64(n))
		K := ncc.CeilLog2(n)
		// One sort charge (K³) + O(K) real rounds with modest constants.
		budget := K*K*K + 40*K + 60
		if tr.Metrics.Rounds > budget {
			t.Fatalf("n=%d: %d rounds exceeds polylog budget %d", n, tr.Metrics.Rounds, budget)
		}
	}
}
