package core

import (
	"testing"

	"graphrealize/internal/aggregate"
	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
	"graphrealize/internal/rankov"
	"graphrealize/internal/sortnet"
)

// claimEnv is what every node holds when a claimed primitive starts: the
// §3.1 structures on Gk and a rank overlay over the Gk path.
type claimEnv struct {
	n    int
	p    primitives.Path
	lv   primitives.Levels
	tree primitives.Tree
	ov   *rankov.Overlay
}

// roundClaims lists the "Rounds: exactly" claim of every primitive's doc
// comment as a function of n and K = ⌈log₂ n⌉. run starts the primitive
// and continues with k once it has delivered.
var roundClaims = []struct {
	name   string
	rounds func(n, K int) int
	maxN   int // check n ≤ maxN only; 0 checks every n
	run    func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op
}{
	{"primitives.BuildPath", func(n, K int) int { return 1 }, 0,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			return primitives.BuildPath(nd, func(primitives.Path) ncc.Op { return k() })
		}},
	{"primitives.BuildLevels", func(n, K int) int { return K }, 0,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			return primitives.BuildLevels(nd, e.p, func(primitives.Levels) ncc.Op { return k() })
		}},
	{"primitives.BuildTBFS", func(n, K int) int { return 2 * K }, 0,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			return primitives.BuildTBFS(nd, e.lv, func(primitives.Tree) ncc.Op { return k() })
		}},
	{"primitives.AnnotateTree", func(n, K int) int { return 2 * (K + 3) }, 0,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			t := e.tree
			return primitives.AnnotateTree(nd, &t, k)
		}},
	{"primitives.BuildWarmupTree", func(n, K int) int { return 3 * (K + 1) }, 0,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			return primitives.BuildWarmupTree(nd, e.p, func(primitives.WarmTree) ncc.Op { return k() })
		}},
	{"aggregate.AggregateBroadcast", func(n, K int) int { return 2 * (K + 3) }, 0,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			return aggregate.AggregateBroadcast(nd, &e.tree, int64(e.tree.Pos), aggregate.SumOp(),
				func(int64) ncc.Op { return k() })
		}},
	{"aggregate.Broadcast", func(n, K int) int { return 2*K + 5 }, 0,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			return aggregate.Broadcast(nd, &e.tree, e.tree.Pos == e.n-1, 42, func(int64) ncc.Op { return k() })
		}},
	{"rankov.Build", func(n, K int) int { return K }, 0,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			return rankov.Build(nd, e.tree.Pos, e.p.Pred, e.p.Succ, func(*rankov.Overlay) ncc.Op { return k() })
		}},
	{"rankov.PrefixSum", func(n, K int) int { return K }, 0,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			return rankov.PrefixSum(nd, e.ov, 1, func(int64) ncc.Op { return k() })
		}},
	{"rankov.ShiftDown", func(n, K int) int { return K }, 0,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			dist := e.n / 2
			var tok *rankov.ShiftToken
			if e.ov.Rank >= dist {
				tok = &rankov.ShiftToken{ID: nd.ID()}
			}
			return rankov.ShiftDown(nd, e.ov, tok, dist, func([]rankov.ShiftToken) ncc.Op { return k() })
		}},
	{"rankov.ShiftUp", func(n, K int) int { return K }, 0,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			dist := (e.n + 1) / 3
			var tok *rankov.ShiftToken
			if e.ov.Rank+dist < e.n {
				tok = &rankov.ShiftToken{ID: nd.ID()}
			}
			return rankov.ShiftUp(nd, e.ov, tok, dist, func([]rankov.ShiftToken) ncc.Op { return k() })
		}},
	{"sortnet odd-even sort", func(n, K int) int { return n + 3 }, 128,
		func(nd *ncc.Node, e *claimEnv, k func() ncc.Op) ncc.Op {
			s := sortnet.Sorter{Method: sortnet.OddEven, Path: e.p, Pos: e.tree.Pos, Tree: &e.tree}
			return s.Sort(nd, int64(nd.ID())%7, func(sortnet.Result) ncc.Op { return k() })
		}},
}

// TestRoundClaims runs every claimed primitive, one after another, on each
// n from 1 to 300 and checks that it takes exactly the claimed number of
// rounds at every node. The recorded digests pin these primitives at a few
// n only.
func TestRoundClaims(t *testing.T) {
	failed := make([]bool, len(roundClaims)) // report one failure per claim
	for n := 1; n <= 300; n++ {
		K := ncc.CeilLog2(n)
		s := ncc.New(ncc.Config{N: n, Seed: int64(n), Strict: true})
		_, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
			return primitives.BuildAll(nd, func(p primitives.Path, lv primitives.Levels, tree primitives.Tree) ncc.Op {
				e := &claimEnv{n: n, p: p, lv: lv, tree: tree}
				return rankov.Build(nd, tree.Pos, p.Pred, p.Succ, func(ov *rankov.Overlay) ncc.Op {
					e.ov = ov
					var claim func(i int) ncc.Op
					claim = func(i int) ncc.Op {
						for i < len(roundClaims) && roundClaims[i].maxN != 0 && n > roundClaims[i].maxN {
							i++
						}
						if i == len(roundClaims) {
							return ncc.Done()
						}
						c, start := roundClaims[i], nd.Round()
						return c.run(nd, e, func() ncc.Op {
							if got, want := nd.Round()-start, c.rounds(n, K); got != want && !failed[i] {
								failed[i] = true
								t.Errorf("%s at n=%d: node %d took %d rounds, claimed %d", c.name, n, nd.ID(), got, want)
							}
							return claim(i + 1)
						})
					}
					return claim(0)
				})
			})
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}
