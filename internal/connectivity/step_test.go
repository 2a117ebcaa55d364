package connectivity

import (
	"reflect"
	"testing"

	"graphrealize/internal/core"
	"graphrealize/internal/ncc"
	"graphrealize/internal/sortnet"
)

// step_test.go checks the resumable-step compilation of the connectivity
// realizations: RealizeNCC1Step and RealizeNCC0Step driven by the flat
// scheduler must produce traces byte-identical to the blocking forms under
// the barrier driver.

func runConnStepFlat(t *testing.T, rho []int, model ncc.Model, seed int64) (*ncc.Trace, error) {
	t.Helper()
	n := len(rho)
	inputs := make([]any, n)
	for i, v := range rho {
		inputs[i] = v
	}
	s := ncc.New(ncc.Config{N: n, Seed: seed, Model: model, Strict: true, Inputs: inputs})
	sortnet.RegisterOracle(s)
	return s.RunProgram(func(nd *ncc.Node) ncc.Op {
		rho := nd.Input().(int)
		done := func(out Outcome) ncc.Op {
			nd.SetOutput("stored", int64(out.Stored))
			nd.SetOutput("d0", int64(out.D0))
			return ncc.Done()
		}
		if nd.Model() == ncc.NCC1 {
			return RealizeNCC1Step(nd, rho, done)
		}
		return core.SetupStep(nd, sortnet.Oracle, func(env *core.Env) ncc.Op {
			return RealizeNCC0Step(nd, env, rho, done)
		})
	})
}

func TestConnectivityStepMatchesBlocking(t *testing.T) {
	cases := []struct {
		name  string
		rho   []int
		model ncc.Model
	}{
		{"ncc1", []int{2, 2, 2, 2, 1, 1}, ncc.NCC1},
		{"ncc0", []int{2, 2, 2, 2, 1, 1}, ncc.NCC0},
		{"ncc0-zero", []int{0, 0, 0}, ncc.NCC0},
		{"ncc1-single", []int{0}, ncc.NCC1},
		{"ncc0-bad", []int{9, 1, 1}, ncc.NCC0},
	}
	for _, c := range cases {
		seed := int64(len(c.rho))*19 + 1
		base, berr := runConn(nil, c.rho, c.model, seed)
		flat, ferr := runConnStepFlat(t, c.rho, c.model, seed)
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
