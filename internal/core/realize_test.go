package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphrealize/internal/gen"
	"graphrealize/internal/graph"
	"graphrealize/internal/ncc"
	"graphrealize/internal/seq"
	"graphrealize/internal/sortnet"
	"graphrealize/internal/verify"
)

// runRealize executes the realization protocol on the degree sequence d
// (d[i] assigned to the node at Gk position i) and returns the trace.
func runRealize(t *testing.T, d []int, mode Mode, method sortnet.Method, explicit bool, seed int64) *ncc.Trace {
	t.Helper()
	tr, err := runRealizeErr(d, mode, method, explicit, seed)
	if err != nil {
		t.Fatalf("n=%d: run: %v", len(d), err)
	}
	return tr
}

func runRealizeErr(d []int, mode Mode, method sortnet.Method, explicit bool, seed int64) (*ncc.Trace, error) {
	n := len(d)
	inputs := make([]any, n)
	for i, v := range d {
		inputs[i] = v
	}
	s := ncc.New(ncc.Config{N: n, Seed: seed, Strict: true, Inputs: inputs})
	sortnet.RegisterOracle(s)
	return s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return Setup(nd, method, func(env *Env) ncc.Op {
			deg := nd.Input().(int)
			return Realize(nd, env, deg, mode, true, func(out Outcome) ncc.Op {
				nd.SetOutput("ok", b2i(out.OK))
				nd.SetOutput("phases", int64(out.Phases))
				nd.SetOutput("realized", int64(out.Realized))
				nd.SetOutput("delta", int64(out.Delta))
				if out.OK && explicit {
					return MakeExplicit(nd, env, out.Neighbors, out.Delta, func(stored int) ncc.Op {
						nd.SetOutput("reverse", int64(stored))
						return ncc.Done()
					})
				}
				return ncc.Done()
			})
		})
	})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// multiEdgeFree checks that no edge was stored twice across the network
// (which Trace.Adjacency would silently collapse).
func multiEdgeFree(tr *ncc.Trace) bool {
	for _, c := range edgeStorageCounts(tr) {
		if c > 1 {
			return false
		}
	}
	return true
}

func TestRealizeGraphicFamilies(t *testing.T) {
	cases := map[string][]int{
		"triangle":    {2, 2, 2},
		"k4":          {3, 3, 3, 3},
		"star":        {5, 1, 1, 1, 1, 1},
		"path":        {1, 2, 2, 2, 2, 1},
		"regular8x3":  gen.Regular(8, 3),
		"regular16x6": gen.Regular(16, 6),
		"rand30":      gen.FromRandomGraph(30, 0.3, 42),
		"rand64":      gen.FromRandomGraph(64, 0.1, 43),
		"powerlaw":    gen.PowerLaw(60, 2.1, 20, 44),
		"starheavy":   gen.StarHeavy(50, 2, 30),
		"bimodal":     gen.Bimodal(40, 2, 9),
		"zeros":       {0, 0, 0, 0},
		"mixedzeros":  {2, 2, 0, 0, 2, 0},
		"single":      {0},
		"pair":        {1, 1},
	}
	for name, d := range cases {
		if !seq.IsGraphic(d) {
			t.Fatalf("%s: test bug, sequence not graphic", name)
		}
		tr := runRealize(t, d, Exact, sortnet.Oracle, false, 99)
		if tr.Unrealizable {
			t.Fatalf("%s: declared unrealizable", name)
		}
		if err := verify.Degrees(tr.Adjacency(), d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !multiEdgeFree(tr) {
			t.Fatalf("%s: duplicate edge storage", name)
		}
		// Per-node realized accounting must equal the input degree.
		for i, id := range tr.IDs {
			if v, _ := tr.Output(id, "realized"); v != int64(d[i]) {
				t.Fatalf("%s: node %d realized %d, want %d", name, id, v, d[i])
			}
		}
	}
}

func TestRealizeDetectsNonGraphic(t *testing.T) {
	cases := [][]int{
		{3, 3, 1, 1},
		{1, 1, 1},
		{5, 5, 5, 1, 1, 1},
		{2, 0, 0},
		gen.NonGraphic(20, 3),
		gen.NonGraphic(41, 5),
		{9, 1, 1}, // degree exceeds n-1
		{-1, 1},   // negative degree
	}
	for _, d := range cases {
		tr := runRealize(t, d, Exact, sortnet.Oracle, false, 7)
		if !tr.Unrealizable {
			t.Fatalf("sequence %v not flagged unrealizable", d)
		}
	}
}

// TestQuickRealizeMatchesErdosGallai is the central correctness property:
// the distributed algorithm accepts exactly the graphic sequences, and its
// accepted outputs realize the degrees exactly.
func TestQuickRealizeMatchesErdosGallai(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 2
		d := make([]int, n)
		for i := range d {
			d[i] = rng.Intn(n)
		}
		tr, err := runRealizeErr(d, Exact, sortnet.Oracle, false, seed)
		if err != nil {
			return false
		}
		if tr.Unrealizable == seq.IsGraphic(d) {
			return false
		}
		if !tr.Unrealizable {
			if err := verify.Degrees(tr.Adjacency(), d); err != nil {
				t.Logf("%v: %v", d, err)
				return false
			}
			if !multiEdgeFree(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestRealizeWithOddEvenSortAgrees(t *testing.T) {
	d := gen.FromRandomGraph(24, 0.25, 10)
	trO := runRealize(t, d, Exact, sortnet.Oracle, false, 11)
	trE := runRealize(t, d, Exact, sortnet.OddEven, false, 11)
	gO, gE := graph.FromAdj(trO.Adjacency()), graph.FromAdj(trE.Adjacency())
	if err := errors.Join(verify.Degrees(gO.Adj(), d), verify.Degrees(gE.Adj(), d)); err != nil {
		t.Fatal(err)
	}
	// Same seed ⇒ same IDs ⇒ identical deterministic realizations.
	eO, eE := gO.Edges(), gE.Edges()
	if len(eO) != len(eE) {
		t.Fatalf("edge counts differ: %d vs %d", len(eO), len(eE))
	}
	for i := range eO {
		if eO[i] != eE[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, eO[i], eE[i])
		}
	}
}

func TestEnvelopeRealization(t *testing.T) {
	cases := [][]int{
		{3, 3, 1, 1},
		{1, 1, 1},
		gen.NonGraphic(25, 9),
		gen.NonGraphic(40, 10),
		{2, 2, 2}, // already graphic: envelope must equal it
	}
	for _, d := range cases {
		tr := runRealize(t, d, Envelope, sortnet.Oracle, false, 13)
		if tr.Unrealizable {
			t.Fatalf("%v: envelope mode must never be unrealizable", d)
		}
		if !multiEdgeFree(tr) {
			t.Fatalf("%v: duplicate edges", d)
		}
		if err := verify.Envelope(tr.Adjacency(), d, realized(tr)); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	}
}

// realized lists each node's "realized" output, its envelope degree d′, in
// Gk order.
func realized(tr *ncc.Trace) []int {
	env := make([]int, len(tr.IDs))
	for i, id := range tr.IDs {
		v, _ := tr.Output(id, "realized")
		env[i] = int(v)
	}
	return env
}

func TestQuickEnvelope(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%16) + 3
		d := make([]int, n)
		for i := range d {
			d[i] = rng.Intn(n - 1)
		}
		tr, err := runRealizeErr(d, Envelope, sortnet.Oracle, false, seed)
		if err != nil || tr.Unrealizable {
			return false
		}
		if err := verify.Envelope(tr.Adjacency(), d, realized(tr)); err != nil {
			t.Logf("%v: %v", d, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseBoundLemma10(t *testing.T) {
	cases := [][]int{
		gen.Regular(64, 8),
		gen.FromRandomGraph(80, 0.15, 21),
		gen.StarHeavy(60, 2, 40),
		gen.PowerLaw(100, 2.0, 30, 22),
	}
	for _, d := range cases {
		tr := runRealize(t, d, Exact, sortnet.Oracle, false, 23)
		m := seq.SumDegrees(d) / 2
		delta := seq.MaxDegree(d)
		bound := delta
		if sm := int(math.Sqrt(float64(m)))*2 + 2; sm < bound {
			bound = sm
		}
		// Lemma 10: phases ≤ min{Δ, O(√m)} (each δ takes ≤ 2 phases).
		phases, _ := tr.Output(tr.IDs[0], "phases")
		if int(phases) > 2*bound+2 {
			t.Fatalf("Δ=%d m=%d: %d phases exceeds Lemma 10 bound %d", delta, m, phases, 2*bound+2)
		}
	}
}

func TestBystandersStayIsolated(t *testing.T) {
	// Nodes at odd Gk positions are bystanders (active=false): they must end
	// with zero edges while the active half realizes its sequence.
	n := 24
	d, inputs := make([]int, n), make([]any, n)
	for i := range inputs {
		d[i] = 3 * (1 - i%2)
		inputs[i] = d[i]
	}
	s := ncc.New(ncc.Config{N: n, Seed: 31, Strict: true, Inputs: inputs})
	sortnet.RegisterOracle(s)
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return Setup(nd, sortnet.Oracle, func(env *Env) ncc.Op {
			deg := nd.Input().(int)
			active := deg > 0
			return Realize(nd, env, deg, Exact, active, func(out Outcome) ncc.Op {
				nd.SetOutput("realized", int64(out.Realized))
				nd.SetOutput("active", b2i(active))
				return ncc.Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if tr.Unrealizable {
		t.Fatal("12 nodes of degree 3 is graphic; flagged unrealizable")
	}
	if err := verify.Degrees(tr.Adjacency(), d); err != nil {
		t.Fatal(err)
	}
}

// edgeStorageCounts returns how many endpoints stored each canonical edge.
func edgeStorageCounts(tr *ncc.Trace) map[[2]ncc.ID]int {
	seen := map[[2]ncc.ID]int{}
	for _, nr := range tr.Nodes {
		for _, p := range nr.Neighbors {
			a, b := nr.ID, p
			if a > b {
				a, b = b, a
			}
			seen[[2]ncc.ID{a, b}]++
		}
	}
	return seen
}

func TestExplicitRealization(t *testing.T) {
	for _, d := range [][]int{
		gen.Regular(16, 5),
		gen.FromRandomGraph(40, 0.2, 77),
		gen.StarHeavy(30, 1, 20),
		{2, 2, 2},
	} {
		tr := runRealize(t, d, Exact, sortnet.Oracle, true, 55)
		if tr.Unrealizable {
			t.Fatalf("%v: unrealizable", d)
		}
		if err := verify.Degrees(tr.Adjacency(), d); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		// Explicit = every edge stored at both endpoints, exactly once each.
		for e, c := range edgeStorageCounts(tr) {
			if c != 2 {
				t.Fatalf("%v: edge %v stored %d times, want 2", d, e, c)
			}
		}
		// Reverse notifications equal the member-stored edge count per node.
		for i, id := range tr.IDs {
			fwd := len(tr.Nodes[i].Neighbors)
			rev, _ := tr.Output(id, "reverse")
			realized, _ := tr.Output(id, "realized")
			if int64(fwd) != realized {
				t.Fatalf("node %d: stored %d edges but realized %d", id, fwd, realized)
			}
			_ = rev
		}
	}
}

func TestExplicitCapViolationsStayZero(t *testing.T) {
	// Strict mode is already enforced by runRealize; this documents that the
	// staggered notification keeps max receive below capacity on a dense
	// instance.
	d := gen.Regular(64, 31)
	tr := runRealize(t, d, Exact, sortnet.Oracle, true, 61)
	if tr.Metrics.RecvViolations != 0 || tr.Metrics.SendViolations != 0 {
		t.Fatalf("capacity violations: %+v", tr.Metrics)
	}
}
