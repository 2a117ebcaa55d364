// Package harness defines the reproduction experiments: one function per
// table/figure in DESIGN.md §4 (T1–T3, T5–T11, F1–F2), each running the
// relevant protocols in the NCC simulator and emitting a formatted table.
// Both bench_test.go (one testing.B per experiment) and cmd/benchtab
// (regenerates everything as text) drive this package, so every table is
// reproducible from either entry point.
package harness

import (
	"fmt"
	"strings"
	"sync"

	"graphrealize"
)

// Table is one experiment's output: a claim being validated, columns, and
// measured rows.
type Table struct {
	ID      string
	Title   string
	Claim   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale selects experiment sizes: Quick for CI-grade runs, Full for larger
// sweeps (DESIGN.md §4).
type Scale int

const (
	// Quick keeps every experiment under a second or two.
	Quick Scale = iota
	// Full uses the larger sweep sizes each experiment lists beside Quick's.
	Full
)

func (s Scale) sizes(quick, full []int) []int {
	if s == Quick {
		return quick
	}
	return full
}

// The realization experiments (T5–T11) fan their sweeps out through a shared
// graphrealize.Runner so multi-family/multi-n rows run on all cores. The
// pool is created lazily; SetWorkers reconfigures it (0 = GOMAXPROCS).
var (
	poolMu      sync.Mutex
	poolWorkers int
	pool        *graphrealize.Runner
)

// SetWorkers bounds the parallelism of the experiment sweeps. Zero or
// negative selects GOMAXPROCS. It takes effect for subsequently started
// experiments.
func SetWorkers(n int) {
	poolMu.Lock()
	defer poolMu.Unlock()
	poolWorkers = n
	pool = nil
}

// runner returns the shared batch runner, creating it on first use.
func runner() *graphrealize.Runner {
	poolMu.Lock()
	defer poolMu.Unlock()
	if pool == nil {
		pool = graphrealize.NewRunner(poolWorkers)
	}
	return pool
}

// Experiment pairs an ID with its runner, for enumeration.
type Experiment struct {
	ID  string
	Run func(Scale) *Table
}

// All enumerates every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{"T1", T1TreeConstruction},
		{"T2", T2Sorting},
		{"T3", T3GlobalPrimitives},
		{"T5", T5ImplicitRealization},
		{"T6", T6ExplicitRealization},
		{"T7", T7UpperEnvelope},
		{"T8", T8TreeRealization},
		{"T9", T9ConnectivityNCC1},
		{"T10", T10ConnectivityNCC0},
		{"T11", T11LowerBounds},
		{"F1", F1Figure1},
		{"F2", F2Figure2},
	}
}
