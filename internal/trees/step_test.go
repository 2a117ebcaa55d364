package trees

import (
	"reflect"
	"testing"

	"graphrealize/internal/core"
	"graphrealize/internal/ncc"
	"graphrealize/internal/sortnet"
)

// step_test.go checks the resumable-step compilation of the tree
// realizations: RealizeChainStep and RealizeGreedyStep driven by the flat
// scheduler must produce traces byte-identical to the blocking forms under
// the barrier driver.

func runTreeStepFlat(t *testing.T, d []int, greedy bool, seed int64) (*ncc.Trace, error) {
	t.Helper()
	n := len(d)
	inputs := make([]any, n)
	for i, v := range d {
		inputs[i] = v
	}
	s := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true, Inputs: inputs})
	sortnet.RegisterOracle(s)
	return s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return core.SetupStep(nd, sortnet.Oracle, func(env *core.Env) ncc.Op {
			deg := nd.Input().(int)
			done := func(out Outcome) ncc.Op {
				nd.SetOutput("realized", int64(out.Realized))
				if out.OK {
					nd.SetOutput("ok", 1)
				}
				return ncc.Done()
			}
			if greedy {
				return RealizeGreedyStep(nd, env, deg, done)
			}
			return RealizeChainStep(nd, env, deg, done)
		})
	})
}

func TestTreeStepMatchesBlocking(t *testing.T) {
	cases := []struct {
		name   string
		d      []int
		greedy bool
	}{
		{"chain", []int{3, 2, 2, 1, 1, 1, 1, 1}, false},
		{"greedy", []int{3, 2, 2, 1, 1, 1, 1, 1}, true},
		{"chain-star", []int{5, 1, 1, 1, 1, 1}, false},
		{"chain-two", []int{1, 1}, false},
		{"not-a-tree", []int{3, 3, 3, 3}, false},
	}
	for _, c := range cases {
		seed := int64(len(c.d))*11 + 3
		base, berr := runTree(nil, c.d, c.greedy, seed)
		flat, ferr := runTreeStepFlat(t, c.d, c.greedy, seed)
		if (berr == nil) != (ferr == nil) || (berr != nil && berr.Error() != ferr.Error()) {
			t.Fatalf("%s: errors differ: blocking=%v flat=%v", c.name, berr, ferr)
		}
		if berr != nil {
			continue
		}
		if !reflect.DeepEqual(base, flat) {
			t.Fatalf("%s: flat step trace differs from blocking barrier trace", c.name)
		}
	}
}
