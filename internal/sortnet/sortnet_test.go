package sortnet

import (
	"sort"
	"testing"
	"testing/quick"

	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// runSort sorts random keys with the given method and checks the result
// against a centralized sort. Returns the trace for metric assertions.
func runSort(t *testing.T, n int, seed int64, method Method) *ncc.Trace {
	t.Helper()
	tr, err := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true}).RunProgram(func(nd *ncc.Node) ncc.Op {
		return primitives.BuildAll(nd, func(p primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
			srt := &Sorter{Method: method, Path: p, Pos: tree.Pos, Tree: &tree}
			key := nd.Rand().Int63n(50) // plenty of ties
			return srt.Sort(nd, key, func(res Result) ncc.Op {
				nd.SetOutput("key", key)
				nd.SetOutput("rank", int64(res.Rank))
				nd.SetOutput("pred", int64(res.Pred))
				nd.SetOutput("succ", int64(res.Succ))
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("n=%d method=%v: %v", n, method, err)
	}
	validateSorted(t, tr)
	return tr
}

// validateSorted recomputes the expected ranking centrally and compares.
func validateSorted(t *testing.T, tr *ncc.Trace) {
	t.Helper()
	type kv struct {
		key int64
		id  ncc.ID
	}
	pairs := make([]kv, 0, len(tr.IDs))
	for _, id := range tr.IDs {
		k, _ := tr.Output(id, "key")
		pairs = append(pairs, kv{k, id})
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].key != pairs[b].key {
			return pairs[a].key > pairs[b].key
		}
		return pairs[a].id < pairs[b].id
	})
	for rank, p := range pairs {
		r, _ := tr.Output(p.id, "rank")
		if int(r) != rank {
			t.Fatalf("node %d: rank %d, want %d", p.id, r, rank)
		}
		wantPred, wantSucc := ncc.None, ncc.None
		if rank > 0 {
			wantPred = pairs[rank-1].id
		}
		if rank+1 < len(pairs) {
			wantSucc = pairs[rank+1].id
		}
		pred, _ := tr.Output(p.id, "pred")
		succ, _ := tr.Output(p.id, "succ")
		if ncc.ID(pred) != wantPred || ncc.ID(succ) != wantSucc {
			t.Fatalf("node %d: sorted links %d/%d, want %d/%d", p.id, pred, succ, wantPred, wantSucc)
		}
	}
}

func TestOracleSortSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 64, 111, 500} {
		runSort(t, n, int64(n)*13+1, Oracle)
	}
}

func TestOddEvenSortSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 33, 64, 101} {
		runSort(t, n, int64(n)*17+3, OddEven)
	}
}

func TestOracleChargesTheoremBound(t *testing.T) {
	n := 128
	K := ncc.CeilLog2(n)
	tr := runSort(t, n, 7, Oracle)
	if tr.Metrics.CollectiveRounds != K*K*K {
		t.Fatalf("oracle charged %d rounds, want %d", tr.Metrics.CollectiveRounds, K*K*K)
	}
	if tr.Metrics.CollectiveCalls["oracle-sort"] != 1 {
		t.Fatalf("collective calls: %v", tr.Metrics.CollectiveCalls)
	}
}

func TestOddEvenIsRealProtocol(t *testing.T) {
	tr := runSort(t, 64, 9, OddEven)
	if tr.Metrics.CollectiveRounds != 0 {
		t.Fatal("odd-even sort must not charge collective rounds")
	}
	if tr.Metrics.Messages == 0 {
		t.Fatal("odd-even sort sent no messages")
	}
}

func TestMethodsAgree(t *testing.T) {
	// Identical seeds produce identical keys, so both methods must produce
	// identical rank assignments.
	for _, n := range []int{17, 50} {
		a := runSort(t, n, 1234, Oracle)
		b := runSort(t, n, 1234, OddEven)
		for _, id := range a.IDs {
			ra, _ := a.Output(id, "rank")
			rb, _ := b.Output(id, "rank")
			if ra != rb {
				t.Fatalf("n=%d node %d: oracle rank %d, odd-even rank %d", n, id, ra, rb)
			}
		}
	}
}

func TestQuickSortersAgree(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw%40) + 1
		a := runSort(t, n, seed, Oracle)
		b := runSort(t, n, seed, OddEven)
		for _, id := range a.IDs {
			ra, _ := a.Output(id, "rank")
			rb, _ := b.Output(id, "rank")
			if ra != rb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestChargedRounds(t *testing.T) {
	if ChargedRounds(1) != 1 {
		t.Fatal("n=1 charge")
	}
	if ChargedRounds(1024) != 1000 {
		t.Fatalf("n=1024 charge = %d, want 1000", ChargedRounds(1024))
	}
}

func TestMergeSortSmallSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5} {
		runSort(t, n, int64(n)*31+5, Merge)
	}
}

func TestMergeSortMediumSizes(t *testing.T) {
	for _, n := range []int{6, 7, 8, 11, 16, 23, 32, 50, 64, 100, 128} {
		runSort(t, n, int64(n)*37+11, Merge)
	}
}

func TestMergeSortIsRealAndPolylog(t *testing.T) {
	for _, n := range []int{64, 256} {
		tr := runSort(t, n, int64(n), Merge)
		if tr.Metrics.CollectiveRounds != 0 {
			t.Fatal("merge sort must not charge collective rounds")
		}
		K := ncc.CeilLog2(n)
		// Generous constant: levels × recursion depth × per-step budget.
		budget := (K + 2) * ((5*K/2 + 4) * (5*K + 40 + 6)) * 2
		if tr.Metrics.Rounds > budget {
			t.Fatalf("n=%d: %d rounds exceeds O(log³ n) budget %d", n, tr.Metrics.Rounds, budget)
		}
	}
}

func TestQuickMergeAgreesWithOracle(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw%60) + 1
		a := runSort(t, n, seed, Oracle)
		b := runSort(t, n, seed, Merge)
		for _, id := range a.IDs {
			ra, _ := a.Output(id, "rank")
			rb, _ := b.Output(id, "rank")
			if ra != rb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
