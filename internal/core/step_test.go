package core

import (
	"testing"

	"graphrealize/internal/ncctest"
	"graphrealize/internal/sortnet"
)

// step_test.go checks the resumable-step compilation of the degree
// realization pipeline: Setup → Realize → MakeExplicit must
// reproduce the traces the blocking pipeline produced on the goroutine-barrier
// driver, for realizable and unrealizable inputs, recorded as digests before
// the blocking API was retired.

// realizeDigests records the blocking pipeline's trace digest per case.
var realizeDigests = map[string]string{
	"exact":          "c79da9d89d4f8985",
	"exact-explicit": "7d4768d028d65acc",
	"envelope":       "6ea1b84afd8f6875",
	"single":         "346e09ea9f73141c",
	"unrealizable":   "fadda44a722dcdae",
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
		tr, err := runRealizeErr(c.d, c.mode, sortnet.Oracle, c.explicit, seed)
		ncctest.Expect(t, c.name, tr, err, realizeDigests[c.name])
	}
}
