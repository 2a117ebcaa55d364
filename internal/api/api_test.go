package api_test

import (
	"errors"
	"testing"

	"graphrealize"
	"graphrealize/internal/api"
)

// TestRouteTableInverse: RouteOf and KindFor are inverses over every
// JobKind (CLUSTER.md §5.1), the variant aliases a client may send resolve
// to their kinds, and an unknown algorithm is told apart from a bad
// variant of a known one.
func TestRouteTableInverse(t *testing.T) {
	for k := graphrealize.JobDegrees; k <= graphrealize.JobConnectivity; k++ {
		alg, variant, ok := api.RouteOf(k)
		if !ok {
			t.Fatalf("%s has no route", k)
		}
		if got, err := api.KindFor(alg, variant); err != nil || got != k {
			t.Errorf("%s routes to (%q, %q), which resolves to %s (err %v)", k, alg, variant, got, err)
		}
	}
	if _, _, ok := api.RouteOf(graphrealize.JobConnectivity + 1); ok {
		t.Error("a kind outside the table has a route")
	}
	for _, tc := range []struct {
		alg, variant string
		want         graphrealize.JobKind
	}{
		{"degree", "implicit", graphrealize.JobDegrees},
		{"tree", "chain", graphrealize.JobChainTree},
		{"tree", "min-diam", graphrealize.JobMinDiamTree},
		{"tree", "greedy", graphrealize.JobMinDiamTree},
	} {
		if got, err := api.KindFor(tc.alg, tc.variant); err != nil || got != tc.want {
			t.Errorf("KindFor(%q, %q) = %s, %v; want %s", tc.alg, tc.variant, got, err, tc.want)
		}
	}
	if _, err := api.KindFor("matching", ""); !errors.Is(err, api.ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: err %v, want ErrUnknownAlgorithm", err)
	}
	for _, bad := range [][2]string{{"degree", "nope"}, {"connectivity", "explicit"}} {
		if _, err := api.KindFor(bad[0], bad[1]); err == nil || errors.Is(err, api.ErrUnknownAlgorithm) {
			t.Errorf("KindFor(%q, %q): err %v, want a bad-variant error", bad[0], bad[1], err)
		}
	}
}
