package graphrealize

import (
	"context"
	"reflect"
	"slices"
	"testing"
)

// smalln_test.go checks every input of a small size against the paper's
// definitions, where fuzzing only samples: each result goes through
// Result.Verify, which also requires ErrUnrealizable exactly when the
// sequential reference (IsGraphic, IsTreeSequence) rejects the input.

// sequences calls fn with every sequence of length n whose entries lie in
// [lo, hi], or with only the non-increasing ones. fn gets its own copy.
func sequences(n, lo, hi int, nonIncreasing bool, fn func(d []int)) {
	d := make([]int, n)
	var fill func(i, top int)
	fill = func(i, top int) {
		if i == n {
			fn(slices.Clone(d))
			return
		}
		for v := top; v >= lo; v-- {
			d[i] = v
			if nonIncreasing {
				fill(i+1, v)
			} else {
				fill(i+1, hi)
			}
		}
	}
	fill(0, hi)
}

// TestSmallNConformance runs, at seed 1 in NCC0 and NCC1, every
// non-increasing sequence in [0, n−1]ⁿ for n ≤ 6 under the five degree and
// tree kinds, and under connectivity every ρ in [1, n−1]ⁿ, in every order,
// for 2 ≤ n ≤ 5 and every non-increasing one for n = 6. The unordered ρ test
// how Result.Verify's connectivity check maps its sorted order back to the
// input's vertices. For n ≤ 5 a degree job must also realize the same graph
// under the oracle, odd-even and merge sorts: the oracle's round charge
// stands for the real protocols only because they agree. (At n ≤ 4 an
// oracle that broke key ties by descending ID still agreed; n = 5 catches
// it at [3 3 3 3 2].)
func TestSmallNConformance(t *testing.T) {
	runs := 0
	run := func(j Job) *Result {
		runs++
		res := Execute(context.Background(), j)
		if err := res.Verify(); err != nil {
			t.Errorf("%s %v, %+v: %v", j.Kind, j.Seq, *j.Opt, err)
		}
		return &res
	}
	degreeKinds := []JobKind{JobDegrees, JobDegreesExplicit, JobUpperEnvelope, JobChainTree, JobMinDiamTree}
	for _, model := range []Model{NCC0, NCC1} {
		opt := &Options{Model: model, Seed: 1}
		for n := 1; n <= 6; n++ {
			sequences(n, 0, n-1, true, func(d []int) {
				for _, kind := range degreeKinds {
					oracle := run(Job{Kind: kind, Seq: d, Opt: opt})
					if kind != JobDegrees || n > 5 {
						continue
					}
					for _, sort := range []SortMethod{OddEvenSort, MergeSort} {
						got := run(Job{Kind: kind, Seq: d, Opt: &Options{Model: model, Seed: 1, Sort: sort}})
						if oracle.Graph != nil && got.Graph != nil && !reflect.DeepEqual(oracle.Graph.Adj, got.Graph.Adj) {
							t.Errorf("degrees %v, %+v: realized %v, the oracle %v", d, *got.Job.Opt, got.Graph.Adj, oracle.Graph.Adj)
						}
					}
				}
			})
			if n >= 2 {
				sequences(n, 1, n-1, n == 6, func(rho []int) {
					run(Job{Kind: JobConnectivity, Seq: rho, Opt: opt})
				})
			}
		}
	}
	t.Logf("%d runs", runs)
}
