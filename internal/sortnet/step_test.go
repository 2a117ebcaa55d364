package sortnet

import (
	"reflect"
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// step_test.go checks the resumable-step compilation of the sorting
// protocols — the largest state machines in the repository. For every method
// the SortStep form, driven by the flat scheduler, must rank correctly and
// produce a trace byte-identical to the blocking Sort under the barrier
// driver (outbox determinism: same messages, same rounds, same outputs).

// runSortStepFlat mirrors runSort but compiles the protocol into steps and
// drives it with the zero-goroutine flat scheduler.
func runSortStepFlat(t *testing.T, n int, seed int64, method Method) *ncc.Trace {
	t.Helper()
	s := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true})
	RegisterOracle(s)
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return primitives.BuildAllStep(nd, func(p primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
			srt := &Sorter{Method: method, Path: p, Pos: tree.Pos, Tree: &tree}
			key := nd.Rand().Int63n(50)
			return srt.SortStep(nd, key, func(res Result) ncc.Op {
				nd.SetOutput("key", key)
				nd.SetOutput("rank", int64(res.Rank))
				nd.SetOutput("pred", int64(res.Pred))
				nd.SetOutput("succ", int64(res.Succ))
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("n=%d method=%v flat: %v", n, method, err)
	}
	validateSorted(t, tr)
	return tr
}

func TestSortStepMatchesBlocking(t *testing.T) {
	for _, method := range []Method{Oracle, OddEven, Merge} {
		for _, n := range []int{1, 2, 3, 10, 33} {
			seed := int64(n)*13 + 1
			base := runSort(t, n, seed, method)
			flat := runSortStepFlat(t, n, seed, method)
			if !reflect.DeepEqual(base, flat) {
				t.Fatalf("method=%v n=%d: flat step trace differs from blocking barrier trace", method, n)
			}
			// Outbox determinism within the driver: a second identical flat
			// run reproduces the trace exactly.
			again := runSortStepFlat(t, n, seed, method)
			if !reflect.DeepEqual(flat, again) {
				t.Fatalf("method=%v n=%d: flat run is not reproducible", method, n)
			}
		}
	}
}
