package primitives

import (
	"reflect"
	"testing"

	"graphrealize/internal/ncc"
)

// step_test.go checks the resumable-step compilation of this package's
// protocols in isolation: the Step forms, driven by the zero-goroutine flat
// scheduler, must produce byte-identical traces (same outputs, same message
// and round counts — outbox determinism) to the blocking forms under the
// goroutine barrier driver.

// treeOutputs records the per-node view of a BuildAll run as trace outputs so
// traces are comparable across drivers.
func treeOutputs(nd *ncc.Node, p Path, tree Tree) {
	nd.SetOutput("pred", int64(p.Pred))
	nd.SetOutput("succ", int64(p.Succ))
	nd.SetOutput("parent", int64(tree.Parent))
	nd.SetOutput("depth", int64(tree.Depth))
	nd.SetOutput("pos", int64(tree.Pos))
	nd.SetOutput("size", int64(tree.Size))
}

func TestBuildAllStepMatchesBlocking(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33} {
		seed := int64(n)*17 + 1
		sb := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true})
		base, err := sb.Run(func(nd *ncc.Node) {
			p, _, tree := BuildAll(nd)
			treeOutputs(nd, p, tree)
		})
		if err != nil {
			t.Fatalf("n=%d blocking: %v", n, err)
		}
		sf := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true})
		flat, err := sf.RunProgram(func(nd *ncc.Node) ncc.Op {
			return BuildAllStep(nd, func(p Path, _ Levels, tree Tree) ncc.Op {
				treeOutputs(nd, p, tree)
				return ncc.Done()
			})
		})
		if err != nil {
			t.Fatalf("n=%d flat: %v", n, err)
		}
		if !reflect.DeepEqual(base, flat) {
			t.Fatalf("n=%d: flat step trace differs from blocking barrier trace", n)
		}
	}
}

// TestSyncAtStepSingleNodeSemantics: SyncAtStep must resume its continuation
// exactly at the requested round, even for a single node with no mail.
func TestSyncAtStepSingleNodeSemantics(t *testing.T) {
	s := ncc.New(ncc.Config{N: 1, Seed: 9, Strict: true})
	_, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return SyncAtStep(nd, 6, func(msgs []ncc.Message) ncc.Op {
			if nd.Round() != 6 {
				t.Errorf("resumed at round %d, want 6", nd.Round())
			}
			if len(msgs) != 0 {
				t.Errorf("resumed with %d messages, want 0", len(msgs))
			}
			return ncc.Done()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}
