package rankov

import (
	"reflect"
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// step_test.go checks the resumable-step compilation of the ranked-overlay
// protocols: Build → PrefixSum → Disseminate → ShiftDown/ShiftUp compiled
// into continuations and driven by the flat scheduler must produce traces
// byte-identical to the blocking chain under the barrier driver.

// buildOverlayStep is the step form of the test overlay: rank = Gk position,
// exactly as buildOverlay in rankov_test.go.
func buildOverlayStep(nd *ncc.Node, k func(*Overlay, *primitives.Tree) ncc.Op) ncc.Op {
	return primitives.BuildAllStep(nd, func(p primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
		return BuildStep(nd, tree.Pos, p.Pred, p.Succ, func(ov *Overlay) ncc.Op {
			return k(ov, &tree)
		})
	})
}

func TestOverlayStepsMatchBlocking(t *testing.T) {
	for _, n := range []int{1, 2, 9, 40} {
		seed := int64(n)*23 + 7
		lo, hi := 1, n-2 // dissemination range; used only when n ≥ 4
		sb := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true})
		base, err := sb.Run(func(nd *ncc.Node) {
			ov, gk := buildOverlay(nd)
			prefix := PrefixSum(nd, ov, int64(ov.Rank+1))
			nd.SetOutput("prefix", prefix)
			if n >= 4 {
				var job *Job
				if ov.Rank == 0 {
					job = &Job{Val: 99, Payload: nd.ID(), Lo: lo, Hi: hi}
				}
				got := Disseminate(nd, ov, gk, job)
				nd.SetOutput("jobs", int64(len(got)))
			}
			var dtok, utok *ShiftToken
			if ov.Rank%2 == 0 && ov.Rank > 0 {
				dtok = &ShiftToken{ID: nd.ID()}
			}
			if ov.Rank%2 == 0 && ov.Rank+1 < n {
				utok = &ShiftToken{ID: nd.ID()}
			}
			down := ShiftDown(nd, ov, dtok, 1)
			up := ShiftUp(nd, ov, utok, 1)
			nd.SetOutput("down", int64(len(down)))
			nd.SetOutput("up", int64(len(up)))
		})
		if err != nil {
			t.Fatalf("n=%d blocking: %v", n, err)
		}
		sf := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true})
		flat, err := sf.RunProgram(func(nd *ncc.Node) ncc.Op {
			return buildOverlayStep(nd, func(ov *Overlay, gk *primitives.Tree) ncc.Op {
				return PrefixSumStep(nd, ov, int64(ov.Rank+1), func(prefix int64) ncc.Op {
					nd.SetOutput("prefix", prefix)
					shifts := func() ncc.Op {
						var dtok, utok *ShiftToken
						if ov.Rank%2 == 0 && ov.Rank > 0 {
							dtok = &ShiftToken{ID: nd.ID()}
						}
						if ov.Rank%2 == 0 && ov.Rank+1 < n {
							utok = &ShiftToken{ID: nd.ID()}
						}
						return ShiftDownStep(nd, ov, dtok, 1, func(down []ShiftToken) ncc.Op {
							return ShiftUpStep(nd, ov, utok, 1, func(up []ShiftToken) ncc.Op {
								nd.SetOutput("down", int64(len(down)))
								nd.SetOutput("up", int64(len(up)))
								return ncc.Done()
							})
						})
					}
					if n < 4 {
						return shifts()
					}
					var job *Job
					if ov.Rank == 0 {
						job = &Job{Val: 99, Payload: nd.ID(), Lo: lo, Hi: hi}
					}
					return DisseminateStep(nd, ov, gk, job, func(got []Job) ncc.Op {
						nd.SetOutput("jobs", int64(len(got)))
						return shifts()
					})
				})
			})
		})
		if err != nil {
			t.Fatalf("n=%d flat: %v", n, err)
		}
		if !reflect.DeepEqual(base, flat) {
			t.Fatalf("n=%d: flat step trace differs from blocking barrier trace", n)
		}
	}
}
