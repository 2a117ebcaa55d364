package rankov

import (
	"fmt"
	"testing"

	"graphrealize/internal/ncc"
	"graphrealize/internal/ncctest"
	"graphrealize/internal/primitives"
)

// step_test.go checks the resumable-step compilation of the ranked-overlay
// protocols: Build → PrefixSum → Disseminate → ShiftDown/ShiftUp compiled
// into continuations must reproduce the traces the blocking chain produced on
// the goroutine-barrier driver, recorded as digests before the blocking API
// was retired.

// overlayDigests records the blocking chain's trace digest per n.
var overlayDigests = map[string]string{
	"n=1":  "a4b48a7f9c02ed70",
	"n=2":  "41eb76c3b0065057",
	"n=9":  "f4836f42731ce5a0",
	"n=40": "4e413fad72507708",
}

func TestOverlayStepsMatchBlocking(t *testing.T) {
	for _, n := range []int{1, 2, 9, 40} {
		seed := int64(n)*23 + 7
		lo, hi := 1, n-2 // dissemination range; used only when n ≥ 4
		sf := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true})
		flat, err := sf.RunProgram(func(nd *ncc.Node) ncc.Op {
			return buildOverlay(nd, func(ov *Overlay, gk *primitives.Tree) ncc.Op {
				return PrefixSum(nd, ov, int64(ov.Rank+1), func(prefix int64) ncc.Op {
					nd.SetOutput("prefix", prefix)
					shifts := func() ncc.Op {
						var dtok, utok *ShiftToken
						if ov.Rank%2 == 0 && ov.Rank > 0 {
							dtok = &ShiftToken{ID: nd.ID()}
						}
						if ov.Rank%2 == 0 && ov.Rank+1 < n {
							utok = &ShiftToken{ID: nd.ID()}
						}
						return ShiftDown(nd, ov, dtok, 1, func(down []ShiftToken) ncc.Op {
							return ShiftUp(nd, ov, utok, 1, func(up []ShiftToken) ncc.Op {
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
					return Disseminate(nd, ov, gk, job, func(got []Job) ncc.Op {
						nd.SetOutput("jobs", int64(len(got)))
						return shifts()
					})
				})
			})
		})
		if err != nil {
			t.Fatalf("n=%d flat: %v", n, err)
		}
		label := fmt.Sprintf("n=%d", n)
		ncctest.Expect(t, label, flat, err, overlayDigests[label])
	}
}
