package core

import (
	"reflect"
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/sortnet"
)

// step_test.go checks the resumable-step compilation of the degree
// realization pipeline: SetupStep → RealizeStep → MakeExplicitStep driven by
// the flat scheduler must produce traces byte-identical to the blocking
// pipeline under the barrier driver, for realizable and unrealizable inputs.

func runRealizeStepFlat(t *testing.T, d []int, mode Mode, explicit bool, seed int64) (*ncc.Trace, error) {
	t.Helper()
	n := len(d)
	inputs := make([]any, n)
	for i, v := range d {
		inputs[i] = v
	}
	s := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true, Inputs: inputs})
	sortnet.RegisterOracle(s)
	return s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return SetupStep(nd, sortnet.Oracle, func(env *Env) ncc.Op {
			deg := nd.Input().(int)
			return RealizeStep(nd, env, deg, mode, true, func(out Outcome) ncc.Op {
				nd.SetOutput("ok", b2i(out.OK))
				nd.SetOutput("phases", int64(out.Phases))
				nd.SetOutput("realized", int64(out.Realized))
				nd.SetOutput("delta", int64(out.Delta))
				if out.OK && explicit {
					return MakeExplicitStep(nd, env, out.Neighbors, out.Delta, func(stored int) ncc.Op {
						nd.SetOutput("reverse", int64(stored))
						return ncc.Done()
					})
				}
				return ncc.Done()
			})
		})
	})
}

func TestRealizeStepMatchesBlocking(t *testing.T) {
	cases := []struct {
		name     string
		d        []int
		mode     Mode
		explicit bool
	}{
		{"exact", []int{3, 3, 2, 2, 2, 2}, Exact, false},
		{"exact-explicit", []int{4, 3, 3, 2, 2, 2, 2, 2}, Exact, true},
		{"envelope", []int{9, 1, 1, 1}, Envelope, false},
		{"single", []int{0}, Exact, false},
		{"unrealizable", []int{5, 1}, Exact, false},
	}
	for _, c := range cases {
		seed := int64(len(c.d)) * 7
		base, berr := runRealizeErr(c.d, c.mode, sortnet.Oracle, c.explicit, seed)
		flat, ferr := runRealizeStepFlat(t, c.d, c.mode, c.explicit, seed)
		if (berr == nil) != (ferr == nil) || (berr != nil && berr.Error() != ferr.Error()) {
			t.Fatalf("%s: errors differ: blocking=%v flat=%v", c.name, berr, ferr)
		}
		if !reflect.DeepEqual(base, flat) {
			t.Fatalf("%s: flat step trace differs from blocking barrier trace", c.name)
		}
	}
}
