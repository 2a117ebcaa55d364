package trees

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"graphrealize/internal/core"
	"graphrealize/internal/gen"
	"graphrealize/internal/ncc"
	"graphrealize/internal/sortnet"
	"graphrealize/internal/verify"
)

func runTree(t *testing.T, d []int, greedy bool, seed int64) (*ncc.Trace, error) {
	s := ncc.New(ncc.Config{N: len(d), Seed: seed, Strict: true, Inputs: d})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return core.Setup(nd, sortnet.Oracle, func(env *core.Env) ncc.Op {
			deg := nd.Input()
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
		t.Fatalf("n=%d: %v", len(d), err)
	}
	return tr, err
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

func TestChainTreeRealizes(t *testing.T) { realizesTrees(t, false, 17) }

func TestGreedyTreeRealizesWithMinDiameter(t *testing.T) { realizesTrees(t, true, 19) }

// realizesTrees runs one algorithm on every treeCases input and checks each
// result with its oracle and every node's realized degree.
func realizesTrees(t *testing.T, greedy bool, seed int64) {
	for name, d := range treeCases() {
		tr, _ := runTree(t, d, greedy, seed)
		if tr.Unrealizable {
			t.Fatalf("%s: flagged unrealizable", name)
		}
		if err := oracle(greedy)(tr.Adjacency(), d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, id := range tr.IDs {
			if v, _ := tr.Output(id, "realized"); v != int64(d[i]) {
				t.Fatalf("%s: node %d realized %d, want %d", name, id, v, d[i])
			}
		}
	}
}

// oracle is the result check for Algorithm 5 (greedy) or Algorithm 4.
func oracle(greedy bool) func(adj [][]int, d []int) error {
	if greedy {
		return verify.MinDiamTree
	}
	return verify.ChainTree
}

// TestGreedyNeverWorseThanChain runs both algorithms under one seed: the
// oracle holds the chain to the largest diameter a tree with these degrees
// has and the greedy tree to the smallest.
func TestGreedyNeverWorseThanChain(t *testing.T) {
	for name, d := range treeCases() {
		trC, _ := runTree(t, d, false, 23)
		trG, _ := runTree(t, d, true, 23)
		if err := errors.Join(verify.ChainTree(trC.Adjacency(), d), verify.MinDiamTree(trG.Adjacency(), d)); err != nil {
			t.Fatalf("%s: %v", name, err)
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
		if err := oracle(greedy)(tr.Adjacency(), []int{0}); err != nil {
			t.Fatal(err)
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
		return verify.ChainTree(trC.Adjacency(), d) == nil && verify.MinDiamTree(trG.Adjacency(), d) == nil
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
