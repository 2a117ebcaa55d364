package aggregate

import (
	"reflect"
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// step_test.go checks the resumable-step compilation of the global
// aggregation protocols: the full Broadcast → AggregateBroadcast →
// FindByPosition → Collect chain, compiled into continuations and driven by
// the flat scheduler, must produce a trace byte-identical to the blocking
// chain under the barrier driver.

func TestGlobalStepsMatchBlocking(t *testing.T) {
	for _, n := range []int{1, 4, 16, 65} {
		seed := int64(n)*31 + 5
		pos := 0
		if n > 2 {
			pos = 2
		}
		sb := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true})
		base, err := sb.Run(func(nd *ncc.Node) {
			_, _, tree := primitives.BuildAll(nd)
			root := Broadcast(nd, &tree, tree.IsRoot, int64(nd.ID()))
			sum := AggregateBroadcast(nd, &tree, int64(tree.Pos), SumOp())
			at := FindByPosition(nd, &tree, pos)
			var toks []int64
			if tree.Pos%2 == 0 {
				toks = []int64{int64(tree.Pos)}
			}
			got := Collect(nd, &tree, toks, ncc.ID(root))
			nd.SetOutput("root", root)
			nd.SetOutput("sum", sum)
			nd.SetOutput("at", int64(at))
			nd.SetOutput("ntok", int64(len(got)))
		})
		if err != nil {
			t.Fatalf("n=%d blocking: %v", n, err)
		}
		sf := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true})
		flat, err := sf.RunProgram(func(nd *ncc.Node) ncc.Op {
			return primitives.BuildAllStep(nd, func(_ primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
				return BroadcastStep(nd, &tree, tree.IsRoot, int64(nd.ID()), func(root int64) ncc.Op {
					return AggregateBroadcastStep(nd, &tree, int64(tree.Pos), SumOp(), func(sum int64) ncc.Op {
						return FindByPositionStep(nd, &tree, pos, func(at ncc.ID) ncc.Op {
							var toks []int64
							if tree.Pos%2 == 0 {
								toks = []int64{int64(tree.Pos)}
							}
							return CollectStep(nd, &tree, toks, ncc.ID(root), func(got []int64) ncc.Op {
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
		if !reflect.DeepEqual(base, flat) {
			t.Fatalf("n=%d: flat step trace differs from blocking barrier trace", n)
		}
		// Sanity beyond equality: the aggregate is the known prefix-position sum.
		want := int64(n*(n-1)) / 2
		for _, id := range flat.IDs {
			if v, _ := flat.Output(id, "sum"); v != want {
				t.Fatalf("n=%d: node %d sum=%d, want %d", n, id, v, want)
			}
		}
	}
}
