// Package ncctest holds the trace digest that the engine's and the protocol
// packages' tests use to pin recorded runs. Only tests import it.
package ncctest

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"graphrealize/internal/ncc"
)

// metrics is ncc.Metrics without its String method, so %+v prints every
// field (CollectiveCalls in sorted tag order, as fmt prints every map).
type metrics ncc.Metrics

// Digest hashes everything a run reports: the Metrics, the IDs in Gk order,
// each node's Neighbors and its Outputs sorted by key in Gk order, the
// Unrealizable flag, and the run's error text. Runs with equal digests are
// observably identical.
func Digest(tr *ncc.Trace, err error) string {
	h := sha256.New()
	if tr != nil {
		fmt.Fprintf(h, "metrics %+v\nids %v\n", metrics(tr.Metrics), tr.IDs)
		for _, id := range tr.IDs {
			nr := tr.Nodes[id]
			fmt.Fprintf(h, "node %d neighbors %v outputs %v\n", id, nr.Neighbors, nr.Outputs)
		}
		fmt.Fprintf(h, "unrealizable %t\n", tr.Unrealizable)
	}
	if err != nil {
		fmt.Fprintf(h, "err %s\n", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// Expect reports an error on t unless the run's digest equals want, the
// value recorded for label.
func Expect(t testing.TB, label string, tr *ncc.Trace, err error, want string) {
	t.Helper()
	if got := Digest(tr, err); got != want {
		t.Errorf("%s: trace digest %s, recorded %s", label, got, want)
	}
}
