package graphrealize_test

import (
	"context"
	"errors"
	"testing"

	"graphrealize"
	"graphrealize/internal/verify"
)

// fuzz_test.go differential-tests the distributed degree realization (§4.1,
// Theorem 11) against the sequential Havel–Hakimi baseline (§3.3) on
// arbitrary degree sequences. The two implementations share no code above
// the graph type, so agreement on realizability — the Erdős–Gallai
// characterization both must decide — plus Result.Verify on the distributed
// result and the degree oracle on the sequential one is a strong end-to-end
// check. The seed corpus runs in every ordinary `go test`; CI additionally
// runs a short `-fuzz` smoke.

// fuzzSequence decodes fuzz bytes into a degree sequence small enough to
// simulate quickly: at most 24 nodes, degrees clamped into [0, n-1] by
// construction mod n (out-of-range degrees are ErrBadInput-free but trivially
// non-graphic, diluting coverage).
func fuzzSequence(data []byte) []int {
	if len(data) == 0 || len(data) > 24 {
		return nil
	}
	d := make([]int, len(data))
	for i, b := range data {
		d[i] = int(b) % len(data)
	}
	return d
}

func FuzzRealizeDegreesMatchesHavelHakimi(f *testing.F) {
	f.Add([]byte{3, 3, 2, 2, 2, 2}, int64(1)) // the package's quickstart sequence
	f.Add([]byte{4, 4, 4, 4, 4, 4, 4, 4}, int64(7))
	f.Add([]byte{3, 3, 1, 1}, int64(2)) // unrealizable
	f.Add([]byte{0, 0, 0}, int64(0))    // empty graph
	f.Add([]byte{5, 5, 4, 3, 2, 2, 2, 1}, int64(11))
	f.Add([]byte{1, 1}, int64(3))                   // single edge
	f.Add([]byte{7, 1, 1, 1, 1, 1, 1, 1}, int64(5)) // star
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		d := fuzzSequence(data)
		if d == nil {
			t.Skip()
		}
		res := graphrealize.Execute(context.Background(), graphrealize.Job{
			Kind: graphrealize.JobDegrees, Seq: d, Opt: &graphrealize.Options{Seed: seed},
		})
		if err := res.Verify(); err != nil {
			t.Fatalf("distributed realization of %v: %v", d, err)
		}
		// Realizability is a property of the sequence alone (Erdős–Gallai):
		// the distributed protocol and the sequential baseline must agree.
		hg, herr := graphrealize.HavelHakimi(d)
		if errors.Is(res.Err, graphrealize.ErrUnrealizable) != errors.Is(herr, graphrealize.ErrUnrealizable) {
			t.Fatalf("realizability disagreement on %v: distributed=%v sequential=%v", d, res.Err, herr)
		}
		if herr == nil {
			if err := verify.Degrees(hg.Adj, d); err != nil {
				t.Fatalf("sequential realization of %v: %v", d, err)
			}
		}
	})
}
