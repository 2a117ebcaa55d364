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

// checkSmallN runs, at seed 1 in NCC0 and NCC1, every sequence in
// [0, n−1]ⁿ under the five degree and tree kinds and every ρ in [1, n−1]ⁿ
// under connectivity (n ≥ 2), for n ≤ maxN, through Result.Verify: in
// every order for n ≤ orderN and only the non-increasing ones above it. For
// a non-increasing d with n ≤ 5, a degree job must also realize the same
// graph under the oracle, odd-even and merge sorts. A failure names the
// job, its sequence and its options.
func checkSmallN(t *testing.T, maxN, orderN int) {
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
	descending := func(a, b int) int { return b - a }
	for _, model := range []Model{NCC0, NCC1} {
		opt := &Options{Model: model, Seed: 1}
		for n := 1; n <= maxN; n++ {
			sequences(n, 0, n-1, n > orderN, func(d []int) {
				for _, kind := range degreeKinds {
					oracle := run(Job{Kind: kind, Seq: d, Opt: opt})
					if kind != JobDegrees || n > 5 || !slices.IsSortedFunc(d, descending) {
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
				sequences(n, 1, n-1, n > orderN, func(rho []int) {
					run(Job{Kind: JobConnectivity, Seq: rho, Opt: opt})
				})
			}
		}
	}
	t.Logf("%d runs", runs)
}

// TestSmallNConformance checks every input up to n = 5 in every order, and
// every non-increasing one at n = 6 (checkSmallN). Vertex i is given d[i],
// so an input's order decides who messages whom under NCC0, and the
// unordered inputs test how Result.Verify maps its sorted order back to
// the input's vertices. The three sorts must agree because the oracle's
// round charge stands for the real protocols only if they do. (At n ≤ 4
// an oracle that broke key ties by descending ID still agreed; n = 5
// catches it at [3 3 3 3 2].)
func TestSmallNConformance(t *testing.T) { checkSmallN(t, 6, 5) }
