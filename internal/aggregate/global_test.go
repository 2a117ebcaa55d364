package aggregate

import (
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

func TestBroadcastReachesAll(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 100, 333} {
		s := ncc.New(ncc.Config{N: n, Seed: int64(n), Strict: true})
		leaderPos := n / 2
		tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
			return primitives.BuildAll(nd, func(_ primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
				have := tree.Pos == leaderPos
				return Broadcast(nd, &tree, have, int64(nd.ID()), func(v int64) ncc.Op {
					nd.SetOutput("got", v)
					return ncc.Done()
				})
			})
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := int64(tr.IDs[leaderPos])
		for _, id := range tr.IDs {
			if v, _ := tr.Output(id, "got"); v != want {
				t.Fatalf("n=%d: node %d got %d, want %d", n, id, v, want)
			}
		}
		K := ncc.CeilLog2(n)
		if tr.Metrics.Rounds > 12*K+40 {
			t.Fatalf("n=%d: broadcast+setup took %d rounds", n, tr.Metrics.Rounds)
		}
	}
}

func TestAggregateBroadcastOps(t *testing.T) {
	n := 60
	s := ncc.New(ncc.Config{N: n, Seed: 9, Strict: true})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return primitives.BuildAll(nd, func(_ primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
			v := int64(tree.Pos + 1)
			or := int64(0)
			if tree.Pos == 13 {
				or = 1
			}
			// Run the four aggregations back to back, recording each result.
			steps := []struct {
				key   string
				value int64
				op    Op
			}{{"sum", v, SumOp()}, {"max", v, MaxOp()}, {"min", v, MinOp()}, {"or", or, OrOp()}}
			var next func(i int) ncc.Op
			next = func(i int) ncc.Op {
				if i == len(steps) {
					return ncc.Done()
				}
				st := steps[i]
				return AggregateBroadcast(nd, &tree, st.value, st.op, func(got int64) ncc.Op {
					nd.SetOutput(st.key, got)
					return next(i + 1)
				})
			}
			return next(0)
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantSum := int64(n * (n + 1) / 2)
	for _, id := range tr.IDs {
		if v, _ := tr.Output(id, "sum"); v != wantSum {
			t.Fatalf("sum at %d = %d, want %d", id, v, wantSum)
		}
		if v, _ := tr.Output(id, "max"); v != int64(n) {
			t.Fatalf("max at %d = %d, want %d", id, v, n)
		}
		if v, _ := tr.Output(id, "min"); v != 1 {
			t.Fatalf("min at %d = %d, want 1", id, v)
		}
		if v, _ := tr.Output(id, "or"); v != 1 {
			t.Fatalf("or at %d = %d, want 1", id, v)
		}
	}
}

func TestFindByPosition(t *testing.T) {
	n := 41
	s := ncc.New(ncc.Config{N: n, Seed: 21, Strict: true})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return primitives.BuildAll(nd, func(_ primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
			return FindByPosition(nd, &tree, (n-1)/2, func(median ncc.ID) ncc.Op {
				nd.SetOutput("median", int64(median))
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := int64(tr.IDs[(n-1)/2])
	for _, id := range tr.IDs {
		if v, _ := tr.Output(id, "median"); v != want {
			t.Fatalf("median at %d = %d, want %d", id, v, want)
		}
	}
}

func TestCollectGathersAllTokens(t *testing.T) {
	for _, n := range []int{1, 2, 5, 32, 120} {
		s := ncc.New(ncc.Config{N: n, Seed: int64(n) * 3, Strict: true})
		leaderPos := n - 1
		type res struct {
			id   ncc.ID
			toks []int64
		}
		ch := make(chan res, n)
		tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
			return primitives.BuildAll(nd, func(_ primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
				return FindByPosition(nd, &tree, leaderPos, func(leader ncc.ID) ncc.Op {
					// Every third position contributes two tokens; others none.
					var toks []int64
					if tree.Pos%3 == 0 {
						toks = []int64{int64(tree.Pos), int64(tree.Pos) + 1000}
					}
					return Collect(nd, &tree, toks, leader, func(got []int64) ncc.Op {
						ch <- res{nd.ID(), got}
						return ncc.Done()
					})
				})
			})
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		close(ch)
		want := map[int64]bool{}
		for p := 0; p < n; p += 3 {
			want[int64(p)] = true
			want[int64(p)+1000] = true
		}
		leaderID := tr.IDs[leaderPos]
		for r := range ch {
			if r.id != leaderID {
				if len(r.toks) != 0 {
					t.Fatalf("n=%d: non-leader %d holds %d tokens", n, r.id, len(r.toks))
				}
				continue
			}
			if len(r.toks) != len(want) {
				t.Fatalf("n=%d: leader got %d tokens, want %d", n, len(r.toks), len(want))
			}
			for _, tok := range r.toks {
				if !want[tok] {
					t.Fatalf("n=%d: unexpected token %d", n, tok)
				}
			}
		}
	}
}

func TestCollectRoundsScaleWithK(t *testing.T) {
	// Theorem 5: O(k + log n). Collect k tokens at one node and verify the
	// round count grows roughly linearly in k beyond the log-n setup.
	n := 64
	rounds := func(tokensPerNode int) int {
		s := ncc.New(ncc.Config{N: n, Seed: 7})
		tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
			return primitives.BuildAll(nd, func(_ primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
				return FindByPosition(nd, &tree, 0, func(leader ncc.ID) ncc.Op {
					toks := make([]int64, tokensPerNode)
					for i := range toks {
						toks[i] = int64(tree.Pos*1000 + i)
					}
					return Collect(nd, &tree, toks, leader, func([]int64) ncc.Op { return ncc.Done() })
				})
			})
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return tr.Metrics.Rounds
	}
	r1, r8 := rounds(1), rounds(8)
	if r8 <= r1 {
		t.Fatalf("collection rounds did not grow with k: k=1→%d, k=8→%d", r1, r8)
	}
	// k=8 means 8n tokens; throughput is ~capacity/2 per round, so the
	// growth should be bounded by a small multiple of kn/cap.
	if r8 > r1+8*n {
		t.Fatalf("collection rounds grew superlinearly: k=1→%d, k=8→%d", r1, r8)
	}
}
