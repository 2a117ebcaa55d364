package aggregate

import (
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/ncctest"
	"graphrealize/internal/primitives"
)

// localSetup builds the LocalCtx every local-primitive test needs and hands
// it to k.
func localSetup(nd *ncc.Node, k func(*LocalCtx) ncc.Op) ncc.Op {
	return primitives.BuildAll(nd, func(_ primitives.Path, lv primitives.Levels, tree primitives.Tree) ncc.Op {
		return k(NewLocalCtx(tree.Pos, lv, &tree, nd.N()))
	})
}

// localDigests records each test's trace digest, taken when these tests ran
// the blocking form of the primitives on the goroutine-barrier driver.
var localDigests = map[string]string{
	"TestLocalAggregateDisjointGroups":    "bb97453db84f7b10",
	"TestLocalAggregateOverlappingGroups": "7d8a35cb383b76fd",
	"TestLocalMulticast":                  "af24b4ef59213bd3",
	"TestLocalCollect":                    "b32bc37655ad8cea",
	"TestLocalPrimitivesSingleNode":       "4a4a3e798f047f3f",
	"TestLocalAggregateMaxOp":             "f18be372d58bf6ad",
}

func TestLocalAggregateDisjointGroups(t *testing.T) {
	// Group gid = pos/8 sums the positions of its 8 members; destination is
	// the group's first member.
	n := 64
	s := ncc.New(ncc.Config{N: n, Seed: 3})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return localSetup(nd, func(c *LocalCtx) ncc.Op {
			gid := int64(c.Pos / 8)
			contribs := []GroupValue{{GID: gid, Value: int64(c.Pos)}}
			var dest []int64
			if c.Pos%8 == 0 {
				dest = []int64{gid}
			}
			return LocalAggregate(nd, c, contribs, dest, SumOp(), func(res map[int64]int64) ncc.Op {
				if v, ok := res[gid]; ok {
					nd.SetOutput("sum", v)
				}
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ncctest.Expect(t, "TestLocalAggregateDisjointGroups", tr, err, localDigests["TestLocalAggregateDisjointGroups"])
	for g := 0; g < n/8; g++ {
		base := g * 8
		want := int64(8*base + 28) // Σ pos..pos+7
		got, ok := tr.Output(tr.IDs[base], "sum")
		if !ok || got != want {
			t.Fatalf("group %d: sum %d (ok=%v), want %d", g, got, ok, want)
		}
	}
}

func TestLocalAggregateOverlappingGroups(t *testing.T) {
	// Every node belongs to two groups: its row and its column in an 8×8
	// arrangement; destinations are the diagonal nodes.
	n := 64
	s := ncc.New(ncc.Config{N: n, Seed: 5})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return localSetup(nd, func(c *LocalCtx) ncc.Op {
			row, col := int64(c.Pos/8), int64(c.Pos%8)
			contribs := []GroupValue{
				{GID: row, Value: 1},
				{GID: 100 + col, Value: 1},
			}
			var dest []int64
			if row == col {
				dest = []int64{row, 100 + col}
			}
			return LocalAggregate(nd, c, contribs, dest, SumOp(), func(res map[int64]int64) ncc.Op {
				if v, ok := res[row]; ok {
					nd.SetOutput("rowcount", v)
				}
				if v, ok := res[100+col]; ok {
					nd.SetOutput("colcount", v)
				}
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ncctest.Expect(t, "TestLocalAggregateOverlappingGroups", tr, err, localDigests["TestLocalAggregateOverlappingGroups"])
	for d := 0; d < 8; d++ {
		id := tr.IDs[d*8+d]
		if v, _ := tr.Output(id, "rowcount"); v != 8 {
			t.Fatalf("diag %d: row count %d, want 8", d, v)
		}
		if v, _ := tr.Output(id, "colcount"); v != 8 {
			t.Fatalf("diag %d: col count %d, want 8", d, v)
		}
	}
}

func TestLocalMulticast(t *testing.T) {
	// Group gid = pos/10: source is the last member, token = gid*111.
	n := 50
	s := ncc.New(ncc.Config{N: n, Seed: 7})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return localSetup(nd, func(c *LocalCtx) ncc.Op {
			gid := int64(c.Pos / 10)
			var src []GroupToken
			if c.Pos%10 == 9 {
				src = []GroupToken{{GID: gid, Token: gid * 111}}
			}
			return LocalMulticast(nd, c, src, []int64{gid}, func(got map[int64]int64) ncc.Op {
				if v, ok := got[gid]; ok {
					nd.SetOutput("tok", v)
				}
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ncctest.Expect(t, "TestLocalMulticast", tr, err, localDigests["TestLocalMulticast"])
	for i, id := range tr.IDs {
		want := int64(i/10) * 111
		got, ok := tr.Output(id, "tok")
		if !ok || got != want {
			t.Fatalf("pos %d: token %d (ok=%v), want %d", i, got, ok, want)
		}
	}
}

func TestLocalCollect(t *testing.T) {
	// One group per 16-block; each member sends its position; the block
	// head collects all 16.
	n := 64
	s := ncc.New(ncc.Config{N: n, Seed: 9})
	type res struct {
		id   ncc.ID
		toks []int64
	}
	ch := make(chan res, n)
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return localSetup(nd, func(c *LocalCtx) ncc.Op {
			gid := int64(c.Pos / 16)
			toks := []GroupToken{{GID: gid, Token: int64(c.Pos)}}
			var dest []int64
			if c.Pos%16 == 0 {
				dest = []int64{gid}
			}
			return LocalCollect(nd, c, toks, dest, func(got map[int64][]int64) ncc.Op {
				nd.SetOutput("ntok", int64(len(got[gid])))
				ch <- res{nd.ID(), got[gid]}
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ncctest.Expect(t, "TestLocalCollect", tr, err, localDigests["TestLocalCollect"])
	close(ch)
	byID := map[ncc.ID][]int64{}
	for r := range ch {
		byID[r.id] = r.toks
	}
	for g := 0; g < 4; g++ {
		head := tr.IDs[g*16]
		toks := byID[head]
		if len(toks) != 16 {
			t.Fatalf("group %d: collected %d tokens, want 16", g, len(toks))
		}
		seen := map[int64]bool{}
		for _, v := range toks {
			if v < int64(g*16) || v >= int64((g+1)*16) || seen[v] {
				t.Fatalf("group %d: bad/duplicate token %d", g, v)
			}
			seen[v] = true
		}
	}
}

func TestLocalPrimitivesSingleNode(t *testing.T) {
	s := ncc.New(ncc.Config{N: 1, Seed: 11})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return localSetup(nd, func(c *LocalCtx) ncc.Op {
			return LocalAggregate(nd, c, []GroupValue{{GID: 1, Value: 5}}, []int64{1}, SumOp(), func(res map[int64]int64) ncc.Op {
				if res[1] != 5 {
					panic("self aggregation failed")
				}
				return LocalMulticast(nd, c, []GroupToken{{GID: 2, Token: 9}}, []int64{2}, func(mc map[int64]int64) ncc.Op {
					if mc[2] != 9 {
						panic("self multicast failed")
					}
					return LocalCollect(nd, c, []GroupToken{{GID: 3, Token: 4}}, []int64{3}, func(col map[int64][]int64) ncc.Op {
						if len(col[3]) != 1 || col[3][0] != 4 {
							panic("self collect failed")
						}
						return ncc.Done()
					})
				})
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ncctest.Expect(t, "TestLocalPrimitivesSingleNode", tr, err, localDigests["TestLocalPrimitivesSingleNode"])
}

func TestLocalAggregateMaxOp(t *testing.T) {
	n := 32
	s := ncc.New(ncc.Config{N: n, Seed: 13})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return localSetup(nd, func(c *LocalCtx) ncc.Op {
			var dest []int64
			if c.Pos == n-1 {
				dest = []int64{7}
			}
			return LocalAggregate(nd, c, []GroupValue{{GID: 7, Value: int64(c.Pos * c.Pos)}}, dest, MaxOp(), func(res map[int64]int64) ncc.Op {
				if v, ok := res[7]; ok {
					nd.SetOutput("max", v)
				}
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ncctest.Expect(t, "TestLocalAggregateMaxOp", tr, err, localDigests["TestLocalAggregateMaxOp"])
	want := int64((n - 1) * (n - 1))
	if v, _ := tr.Output(tr.IDs[n-1], "max"); v != want {
		t.Fatalf("max = %d, want %d", v, want)
	}
}
