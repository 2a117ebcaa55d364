package trees

import (
	"testing"

	"graphrealize/internal/ncctest"
)

// step_test.go checks the resumable-step compilation of the tree
// realizations: RealizeChain and RealizeGreedy must reproduce the
// traces the blocking forms produced on the goroutine-barrier driver,
// recorded as digests before the blocking API was retired.

// treeDigests records the blocking run's trace digest per case.
var treeDigests = map[string]string{
	"chain":      "4744992b8704654d",
	"greedy":     "4744992b8704654d",
	"chain-star": "ea7cf6092a5eab59",
	"chain-two":  "3d5220cd979400dd",
	"not-a-tree": "59127c80623d2de8",
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
		tr, err := runTree(nil, c.d, c.greedy, seed)
		ncctest.Expect(t, c.name, tr, err, treeDigests[c.name])
	}
}
