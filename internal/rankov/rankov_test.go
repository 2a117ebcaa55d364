package rankov

import (
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// buildOverlay gives every node an overlay over the Gk path itself (rank =
// path position), which is a perfectly good ranked path for testing, and
// hands it to k with the Gk tree.
func buildOverlay(nd *ncc.Node, k func(*Overlay, *primitives.Tree) ncc.Op) ncc.Op {
	return primitives.BuildAll(nd, func(p primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
		return Build(nd, tree.Pos, p.Pred, p.Succ, func(ov *Overlay) ncc.Op {
			return k(ov, &tree)
		})
	})
}

func TestPrefixSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 9, 64, 100, 257} {
		s := ncc.New(ncc.Config{N: n, Seed: int64(n) + 1, Strict: true})
		tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
			return buildOverlay(nd, func(ov *Overlay, _ *primitives.Tree) ncc.Op {
				return PrefixSum(nd, ov, int64(ov.Rank+1), func(prefix int64) ncc.Op {
					nd.SetOutput("prefix", prefix)
					return ncc.Done()
				})
			})
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, id := range tr.IDs {
			want := int64((i + 1) * (i + 2) / 2)
			if v, _ := tr.Output(id, "prefix"); v != want {
				t.Fatalf("n=%d: prefix at rank %d = %d, want %d", n, i, v, want)
			}
		}
	}
}

func TestDisseminateSingleRange(t *testing.T) {
	n := 100
	s := ncc.New(ncc.Config{N: n, Seed: 5, Strict: true})
	lo, hi := 13, 77
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return buildOverlay(nd, func(ov *Overlay, gk *primitives.Tree) ncc.Op {
			var job *Job
			if ov.Rank == 2 { // initiator well before the range
				job = &Job{Val: 4242, Payload: nd.ID(), Lo: lo, Hi: hi}
			}
			return Disseminate(nd, ov, gk, job, func(got []Job) ncc.Op {
				nd.SetOutput("n", int64(len(got)))
				if len(got) == 1 {
					nd.SetOutput("val", got[0].Val)
				}
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, id := range tr.IDs {
		v, _ := tr.Output(id, "n")
		want := int64(0)
		if i >= lo && i <= hi {
			want = 1
		}
		if v != want {
			t.Fatalf("rank %d received %d jobs, want %d", i, v, want)
		}
		if want == 1 {
			if val, _ := tr.Output(id, "val"); val != 4242 {
				t.Fatalf("rank %d token = %d", i, val)
			}
		}
	}
}

func TestDisseminateDisjointRanges(t *testing.T) {
	// Every rank divisible by 10 covers the next 9 ranks — the exact group
	// pattern of Algorithm 3.
	n := 128
	s := ncc.New(ncc.Config{N: n, Seed: 6, Strict: true})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return buildOverlay(nd, func(ov *Overlay, gk *primitives.Tree) ncc.Op {
			var job *Job
			if ov.Rank%10 == 0 && ov.Rank+9 < n {
				job = &Job{Val: int64(ov.Rank), Payload: nd.ID(), Lo: ov.Rank + 1, Hi: ov.Rank + 9}
			}
			return Disseminate(nd, ov, gk, job, func(got []Job) ncc.Op {
				if len(got) > 1 {
					panic("node in two disjoint ranges")
				}
				if len(got) == 1 {
					nd.SetOutput("from", got[0].Val)
					nd.SetOutput("fromID", int64(got[0].Payload))
				}
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, id := range tr.IDs {
		group := (i / 10) * 10
		inRange := i%10 != 0 && group+9 < n
		v, ok := tr.Output(id, "from")
		if inRange {
			if !ok || v != int64(group) {
				t.Fatalf("rank %d got group %d (ok=%v), want %d", i, v, ok, group)
			}
			fid, _ := tr.Output(id, "fromID")
			if ncc.ID(fid) != tr.IDs[group] {
				t.Fatalf("rank %d payload %d, want center %d", i, fid, tr.IDs[group])
			}
		} else if ok {
			t.Fatalf("rank %d unexpectedly received a job", i)
		}
	}
}

func TestDisseminateAdaptiveTermination(t *testing.T) {
	// A very long route (rank 0 → lone target at rank n-1) must still
	// terminate, exercising the multi-epoch quiescence path.
	n := 200
	s := ncc.New(ncc.Config{N: n, Seed: 8, Strict: true})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return buildOverlay(nd, func(ov *Overlay, gk *primitives.Tree) ncc.Op {
			var job *Job
			if ov.Rank == 0 {
				job = &Job{Val: 1, Lo: n - 1, Hi: n - 1}
			}
			return Disseminate(nd, ov, gk, job, func(got []Job) ncc.Op {
				nd.SetOutput("n", int64(len(got)))
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v, _ := tr.Output(tr.IDs[n-1], "n"); v != 1 {
		t.Fatal("long route not delivered")
	}
}

func TestShiftDown(t *testing.T) {
	for _, dist := range []int{1, 2, 3, 5, 8, 17} {
		n := 50
		s := ncc.New(ncc.Config{N: n, Seed: int64(dist), Strict: true})
		tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
			return buildOverlay(nd, func(ov *Overlay, _ *primitives.Tree) ncc.Op {
				var tok *ShiftToken
				if ov.Rank >= dist {
					tok = &ShiftToken{A: int64(ov.Rank), ID: nd.ID()}
				}
				return ShiftDown(nd, ov, tok, dist, func(got []ShiftToken) ncc.Op {
					if len(got) > 1 {
						panic("uniform shift collided")
					}
					if len(got) == 1 {
						nd.SetOutput("from", got[0].A)
						nd.SetOutput("fromID", int64(got[0].ID))
					}
					return ncc.Done()
				})
			})
		})
		if err != nil {
			t.Fatalf("dist=%d: %v", dist, err)
		}
		for i, id := range tr.IDs {
			v, ok := tr.Output(id, "from")
			if i+dist < n {
				if !ok || v != int64(i+dist) {
					t.Fatalf("dist=%d: rank %d got token from %d (ok=%v), want %d", dist, i, v, ok, i+dist)
				}
				fid, _ := tr.Output(id, "fromID")
				if ncc.ID(fid) != tr.IDs[i+dist] {
					t.Fatalf("dist=%d: rank %d payload ID mismatch", dist, i)
				}
			} else if ok {
				t.Fatalf("dist=%d: rank %d unexpectedly received a token", dist, i)
			}
		}
	}
}

func TestShiftUp(t *testing.T) {
	n, dist := 40, 7
	s := ncc.New(ncc.Config{N: n, Seed: 11, Strict: true})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return buildOverlay(nd, func(ov *Overlay, _ *primitives.Tree) ncc.Op {
			var tok *ShiftToken
			if ov.Rank+dist < n {
				tok = &ShiftToken{A: int64(ov.Rank)}
			}
			return ShiftUp(nd, ov, tok, dist, func(got []ShiftToken) ncc.Op {
				if len(got) == 1 {
					nd.SetOutput("from", got[0].A)
				}
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, id := range tr.IDs {
		v, ok := tr.Output(id, "from")
		if i >= dist {
			if !ok || v != int64(i-dist) {
				t.Fatalf("rank %d got %d (ok=%v), want %d", i, v, ok, i-dist)
			}
		} else if ok {
			t.Fatalf("rank %d unexpectedly received", i)
		}
	}
}

func TestShiftRoundsAreLogN(t *testing.T) {
	n := 256
	s := ncc.New(ncc.Config{N: n, Seed: 13, Strict: true})
	var setupRounds int
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return buildOverlay(nd, func(ov *Overlay, _ *primitives.Tree) ncc.Op {
			if ov.Rank == 0 {
				setupRounds = nd.Round()
			}
			var tok *ShiftToken
			if ov.Rank >= 100 {
				tok = &ShiftToken{A: 1}
			}
			return ShiftDown(nd, ov, tok, 100, func([]ShiftToken) ncc.Op { return ncc.Done() })
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	K := ncc.CeilLog2(n)
	if tr.Metrics.Rounds-setupRounds > K {
		t.Fatalf("shift took %d rounds, want ≤ %d", tr.Metrics.Rounds-setupRounds, K)
	}
}

func TestDisseminateInitiatorInsideRange(t *testing.T) {
	// The initiator may own rank Lo itself: it must self-deliver.
	n := 30
	s := ncc.New(ncc.Config{N: n, Seed: 21, Strict: true})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return buildOverlay(nd, func(ov *Overlay, gk *primitives.Tree) ncc.Op {
			var job *Job
			if ov.Rank == 5 {
				job = &Job{Val: 77, Lo: 5, Hi: 9}
			}
			return Disseminate(nd, ov, gk, job, func(got []Job) ncc.Op {
				nd.SetOutput("n", int64(len(got)))
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 5; i <= 9; i++ {
		if v, _ := tr.Output(tr.IDs[i], "n"); v != 1 {
			t.Fatalf("rank %d got %d deliveries", i, v)
		}
	}
}

func TestPrefixSumNegativeValues(t *testing.T) {
	n := 20
	s := ncc.New(ncc.Config{N: n, Seed: 23, Strict: true})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return buildOverlay(nd, func(ov *Overlay, _ *primitives.Tree) ncc.Op {
			v := int64(1)
			if ov.Rank%2 == 1 {
				v = -1
			}
			return PrefixSum(nd, ov, v, func(p int64) ncc.Op {
				nd.SetOutput("p", p)
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, id := range tr.IDs {
		want := int64((i+2)/2 - (i+1)/2)
		_ = want
		// inclusive prefix of +1,-1,+1,... = 1 if even index else 0
		exp := int64(0)
		if i%2 == 0 {
			exp = 1
		}
		if v, _ := tr.Output(id, "p"); v != exp {
			t.Fatalf("rank %d prefix %d, want %d", i, v, exp)
		}
	}
}
