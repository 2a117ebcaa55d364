package core

import (
	"testing"

	"graphrealize/internal/aggregate"
	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
	"graphrealize/internal/rankov"
	"graphrealize/internal/sortnet"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// reusers lists the primitives a realization runs again and again. start
// runs once per node: it sets up the node's reusable state and returns
// call, which runs the primitive once on that state and continues with
// again.
var reusers = []struct {
	name  string
	start func(nd *ncc.Node, e *claimEnv, again func() ncc.Op) (call func() ncc.Op)
}{
	{"aggregate.Aggregator", func(nd *ncc.Node, e *claimEnv, again func() ncc.Op) func() ncc.Op {
		agg := new(aggregate.Aggregator)
		k := func(int64) ncc.Op { return again() }
		return func() ncc.Op { return agg.AggregateBroadcast(nd, &e.tree, 1, aggregate.SumOp(), k) }
	}},
	{"rankov.Overlay+Disseminator", func(nd *ncc.Node, e *claimEnv, again func() ncc.Op) func() ncc.Op {
		ov, dis := new(rankov.Overlay), new(rankov.Disseminator)
		disseminated := func([]rankov.Job) ncc.Op { return again() }
		built := func(ov *rankov.Overlay) ncc.Op {
			// Rank 0 multicasts to every other rank.
			var job *rankov.Job
			if ov.Rank == 0 && e.n > 1 {
				job = &rankov.Job{Payload: nd.ID(), Lo: 1, Hi: e.n - 1}
			}
			return dis.Disseminate(nd, ov, &e.tree, job, disseminated)
		}
		return func() ncc.Op { return ov.Build(nd, e.tree.Pos, e.p.Pred, e.p.Succ, built) }
	}},
	{"sortnet.Sorter/oracle", func(nd *ncc.Node, e *claimEnv, again func() ncc.Op) func() ncc.Op {
		srt := &sortnet.Sorter{Method: sortnet.Oracle, Path: e.p, Pos: e.tree.Pos, Tree: &e.tree}
		k := func(sortnet.Result) ncc.Op { return again() }
		return func() ncc.Op { return srt.Sort(nd, int64(nd.ID())%7, k) }
	}},
}

// runReuse builds the §3.1 structures and then calls the primitive R times
// at every node, each call on the state its start set up.
func runReuse(t *testing.T, n, R int, start func(*ncc.Node, *claimEnv, func() ncc.Op) func() ncc.Op) {
	_, err := ncc.New(ncc.Config{N: n, Seed: int64(n), Strict: true}).RunProgram(func(nd *ncc.Node) ncc.Op {
		return primitives.BuildAll(nd, func(p primitives.Path, lv primitives.Levels, tree primitives.Tree) ncc.Op {
			e := &claimEnv{n: n, p: p, lv: lv, tree: tree}
			left := R
			var call func() ncc.Op
			again := func() ncc.Op {
				if left == 0 {
					return ncc.Done()
				}
				left--
				return call()
			}
			call = start(nd, e, again)
			return again()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPrimitiveReuseAllocatesNothing checks that a primitive a realization
// repeats costs nothing per node on the second and later calls: at n = 256,
// 33 calls at every node allocate fewer than n more objects than one call
// does. What a call may still allocate is central (the oracle's arrays).
func TestPrimitiveReuseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime makes allocation counts vary")
	}
	const n = 256
	for _, r := range reusers {
		t.Run(r.name, func(t *testing.T) {
			allocs := func(R int) float64 {
				return testing.AllocsPerRun(2, func() { runReuse(t, n, R, r.start) })
			}
			one, many := allocs(1), allocs(33)
			t.Logf("R=1: %.0f allocs, R=33: %.0f", one, many)
			if many-one >= n {
				t.Fatalf("32 more calls at each of %d nodes allocated %.0f objects, want < %d", n, many-one, n)
			}
		})
	}
}
