package connectivity

import (
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/ncctest"
)

// step_test.go checks the resumable-step compilation of the connectivity
// realizations: RealizeNCC1 and RealizeNCC0 must reproduce the
// traces the blocking forms produced on the goroutine-barrier driver,
// recorded as digests before the blocking API was retired.

// connDigests records the blocking run's trace digest per case.
var connDigests = map[string]string{
	"ncc1":        "dde4070cc116526e",
	"ncc0":        "0c2ed7a7aa15a2ef",
	"ncc0-zero":   "b84174d06a8939d3",
	"ncc1-single": "0d4ad0df2c6e2bdf",
	"ncc0-bad":    "0a7018077a692d93",
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
		tr, err := runConn(nil, c.rho, c.model, seed)
		ncctest.Expect(t, c.name, tr, err, connDigests[c.name])
	}
}
