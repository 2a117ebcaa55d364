package aggregate

import (
	"fmt"
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/ncctest"
	"graphrealize/internal/primitives"
)

// step_test.go checks the resumable-step compilation of the global
// aggregation protocols: the full Broadcast → AggregateBroadcast →
// FindByPosition → Collect chain, compiled into continuations, must reproduce
// the trace the blocking chain produced on the goroutine-barrier driver,
// recorded as digests before the blocking API was retired.

// globalDigests records the blocking chain's trace digest per n.
var globalDigests = map[string]string{
	"n=1":  "d88acdd7eb965d18",
	"n=4":  "9bfbbc5410211dde",
	"n=16": "5a8ae121fcaf9e70",
	"n=65": "eb138d2559db53f4",
}

func TestGlobalStepsMatchBlocking(t *testing.T) {
	for _, n := range []int{1, 4, 16, 65} {
		seed := int64(n)*31 + 5
		pos := 0
		if n > 2 {
			pos = 2
		}
		sf := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true})
		flat, err := sf.RunProgram(func(nd *ncc.Node) ncc.Op {
			return primitives.BuildAll(nd, func(_ primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
				return Broadcast(nd, &tree, tree.IsRoot, int64(nd.ID()), func(root int64) ncc.Op {
					return AggregateBroadcast(nd, &tree, int64(tree.Pos), SumOp(), func(sum int64) ncc.Op {
						return FindByPosition(nd, &tree, pos, func(at ncc.ID) ncc.Op {
							var toks []int64
							if tree.Pos%2 == 0 {
								toks = []int64{int64(tree.Pos)}
							}
							return Collect(nd, &tree, toks, ncc.ID(root), func(got []int64) ncc.Op {
								nd.SetOutput("root", root)
								nd.SetOutput("sum", sum)
								nd.SetOutput("at", int64(at))
								nd.SetOutput("ntok", int64(len(got)))
								return ncc.Done()
							})
						})
					})
				})
			})
		})
		if err != nil {
			t.Fatalf("n=%d flat: %v", n, err)
		}
		label := fmt.Sprintf("n=%d", n)
		ncctest.Expect(t, label, flat, err, globalDigests[label])
		// Sanity beyond equality: the aggregate is the known prefix-position sum.
		want := int64(n*(n-1)) / 2
		for _, id := range flat.IDs {
			if v, _ := flat.Output(id, "sum"); v != want {
				t.Fatalf("n=%d: node %d sum=%d, want %d", n, id, v, want)
			}
		}
	}
}
