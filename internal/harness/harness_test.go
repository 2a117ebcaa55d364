package harness

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// tableDigests records the Quick-scale digest of the primitive tables, whose
// rows come from protocols run directly on the simulator; the realization
// tables run through the facade, which the root package's golden digests pin.
var tableDigests = map[string]string{
	"T1": "1b21812735105a6f",
	"T2": "96d795279e64a9a6",
	"T3": "42a8ceff493a81df",
	"F1": "9fafdbf9827d608c",
	"F2": "1f803ca6e1da1321",
}

// tableDigest hashes a table's rows and notes.
func tableDigest(tab *Table) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%q\n%q", tab.Rows, tab.Notes)))
	return fmt.Sprintf("%x", sum[:8])
}

// TestAllExperimentsQuick runs every experiment at Quick scale — the same
// entry point cmd/benchtab uses — and sanity-checks structure and the
// headline claims that are cheap to assert programmatically. The primitive
// tables must match their recorded digests.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab := e.Run(Quick)
			if tab.ID != e.ID {
				t.Fatalf("table ID %q, want %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, r := range tab.Rows {
				if len(r) != len(tab.Columns) && len(tab.Columns) > 1 {
					t.Fatalf("row width %d, columns %d", len(r), len(tab.Columns))
				}
			}
			out := tab.Format()
			if !strings.Contains(out, tab.Claim) {
				t.Fatal("formatted table lost the claim line")
			}
			if want, ok := tableDigests[e.ID]; ok {
				if got := tableDigest(tab); got != want {
					t.Errorf("table digest %s, recorded %s\n%s", got, want, out)
				}
			}
		})
	}
}

// TestT5DegreesAlwaysOK asserts the correctness column of the headline
// experiment: every family/size realizes its degrees exactly.
func TestT5DegreesAlwaysOK(t *testing.T) {
	tab := T5ImplicitRealization(Quick)
	col := -1
	for i, c := range tab.Columns {
		if c == "degrees ok" {
			col = i
		}
	}
	if col == -1 {
		t.Fatal("missing degrees-ok column")
	}
	for _, r := range tab.Rows {
		if r[col] != "true" {
			t.Fatalf("row %v: degrees not realized", r)
		}
	}
}

// TestT9T10ApproxWithinBound asserts the 2-approximation column.
func TestT9T10ApproxWithinBound(t *testing.T) {
	for _, tab := range []*Table{T9ConnectivityNCC1(Quick), T10ConnectivityNCC0(Quick)} {
		col, okCol := -1, -1
		for i, c := range tab.Columns {
			if c == "edges/LB" {
				col = i
			}
			if c == "thresholds ok" {
				okCol = i
			}
		}
		for _, r := range tab.Rows {
			if r[okCol] != "true" {
				t.Fatalf("%s row %v: thresholds violated", tab.ID, r)
			}
			if strings.Compare(r[col], "2.00") > 0 && !strings.HasPrefix(r[col], "0") && !strings.HasPrefix(r[col], "1") {
				t.Fatalf("%s row %v: approximation above 2", tab.ID, r)
			}
		}
	}
}

// TestT8GreedyOptimal asserts Lemma 15's column: alg5 diameter = optimal.
func TestT8GreedyOptimal(t *testing.T) {
	tab := T8TreeRealization(Quick)
	var alg5, opt int
	for i, c := range tab.Columns {
		if c == "alg5 diam" {
			alg5 = i
		}
		if c == "optimal diam" {
			opt = i
		}
	}
	for _, r := range tab.Rows {
		if r[alg5] != r[opt] {
			t.Fatalf("row %v: greedy diameter not optimal", r)
		}
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Claim: "c", Columns: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("long-cell", true)
	out := tab.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}
