package primitives

import (
	"fmt"
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/ncctest"
)

// step_test.go checks the resumable-step compilation of this package's
// protocols in isolation: the Step forms must reproduce, byte for byte, the
// traces their blocking forms produced on the goroutine-barrier driver (same
// outputs, same message and round counts — outbox determinism), recorded as
// digests before the blocking API was retired.

// treeOutputs records the per-node view of a BuildAll run as trace outputs so
// the digest covers it.
func treeOutputs(nd *ncc.Node, p Path, tree Tree) {
	nd.SetOutput("pred", int64(p.Pred))
	nd.SetOutput("succ", int64(p.Succ))
	nd.SetOutput("parent", int64(tree.Parent))
	nd.SetOutput("depth", int64(tree.Depth))
	nd.SetOutput("pos", int64(tree.Pos))
	nd.SetOutput("size", int64(tree.Size))
}

// buildAllDigests records the blocking BuildAll trace digest per n.
var buildAllDigests = map[string]string{
	"n=1":  "3751d85b7431b59b",
	"n=2":  "7e5374e8284dd2d8",
	"n=7":  "98242c17db041056",
	"n=33": "52bae59b18e5a32c",
}

func TestBuildAllStepMatchesBlocking(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33} {
		seed := int64(n)*17 + 1
		sf := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true})
		flat, err := sf.RunProgram(func(nd *ncc.Node) ncc.Op {
			return BuildAll(nd, func(p Path, _ Levels, tree Tree) ncc.Op {
				treeOutputs(nd, p, tree)
				return ncc.Done()
			})
		})
		if err != nil {
			t.Fatalf("n=%d flat: %v", n, err)
		}
		label := fmt.Sprintf("n=%d", n)
		ncctest.Expect(t, label, flat, err, buildAllDigests[label])
	}
}

// TestSyncAtStepSingleNodeSemantics: SyncAt must resume its continuation
// exactly at the requested round, even for a single node with no mail.
func TestSyncAtStepSingleNodeSemantics(t *testing.T) {
	s := ncc.New(ncc.Config{N: 1, Seed: 9, Strict: true})
	_, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return SyncAt(nd, 6, ncc.ContFunc(func(nd *ncc.Node, in []ncc.Message) ncc.Op {
			if nd.Round() != 6 {
				t.Errorf("resumed at round %d, want 6", nd.Round())
			}
			if len(in) != 0 {
				t.Errorf("resumed with %d messages, want 0", len(in))
			}
			return ncc.Done()
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
}
