package harness

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"graphrealize"
	"graphrealize/internal/aggregate"
	"graphrealize/internal/gen"
	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
	"graphrealize/internal/seq"
	"graphrealize/internal/sortnet"
)

// mustRun executes a protocol and panics on simulator errors — experiments
// are deterministic, so an error is a bug, not a measurement.
func mustRun(s *ncc.Sim, proto ncc.Proto) *ncc.Trace {
	tr, err := s.RunProgram(proto)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return tr
}

// mustRealize unwraps a batch result and checks it with Result.Verify; the
// experiment families are realizable by construction, so a job error or a
// refused result is a harness bug, and every row that prints (and so every
// "ok" column) passed the oracle. T5 handles ErrUnrealizable before calling.
func mustRealize(res graphrealize.Result) graphrealize.Result {
	if err := cmp.Or(res.Verify(), res.Err); err != nil {
		panic(fmt.Sprintf("harness: %s job: %v", res.Job.Kind, err))
	}
	return res
}

// realRounds is the protocol-executed round count: total minus the rounds
// charged by oracle collectives.
func realRounds(st *graphrealize.Stats) int {
	return st.Rounds - st.ChargedRounds
}

// T1TreeConstruction measures Theorem 1 + Corollary 2: the TBFS (structure
// L + controlled BFS + annotation) is built in O(log n) rounds with height
// ≤ ⌈log₂ n⌉ + 1, and inorder equals the path order.
func T1TreeConstruction(sc Scale) *Table {
	t := &Table{
		ID:      "T1",
		Title:   "Balanced BST construction and positions (Thm 1, Cor 2)",
		Claim:   "rounds = O(log n); height ≤ ⌈log n⌉+1; inorder = Gk order",
		Columns: []string{"n", "ceil(log n)", "rounds", "rounds/log n", "height", "inorder=Gk"},
	}
	for _, n := range sc.sizes([]int{64, 256, 1024}, []int{64, 256, 1024, 4096, 16384}) {
		s := ncc.New(ncc.Config{N: n, Seed: int64(n), Strict: true})
		tr := mustRun(s, func(nd *ncc.Node) ncc.Op {
			return primitives.BuildAll(nd, func(_ primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
				nd.SetOutput("pos", int64(tree.Pos))
				nd.SetOutput("depth", int64(tree.Depth))
				return ncc.Done()
			})
		})
		height, ok := 0, true
		for i, id := range tr.IDs {
			d, _ := tr.Output(id, "depth")
			if int(d) > height {
				height = int(d)
			}
			if p, _ := tr.Output(id, "pos"); p != int64(i) {
				ok = false
			}
		}
		K := ncc.CeilLog2(n)
		t.AddRow(n, K, tr.Metrics.Rounds, float64(tr.Metrics.Rounds)/float64(K), height, ok)
	}
	return t
}

// T2Sorting measures Theorem 3: the sorted path, built by each of the three
// sorts. The oracle column is its ⌈log₂ n⌉³ charge (Theorem 3's bound with
// an assumed constant of 1) plus one round. The odd-even protocol takes
// exactly n + 3 rounds. The merge protocol is the slowest at every size the
// table runs: at Quick scale it takes 10,871 rounds against odd-even's 67 at
// n = 64, and 19,529 against 259 at n = 256. Its merge/log³n column falls
// with n (50.33 → 38.14), but the polylogarithmic sort does not overtake
// the naive one anywhere this table measures.
func T2Sorting(sc Scale) *Table {
	t := &Table{
		ID:      "T2",
		Title:   "Distributed sorting into a sorted path (Thm 3)",
		Claim:   "merge protocol O(log³ n) rounds (real) vs O(n) naive protocol",
		Columns: []string{"n", "merge rounds", "merge/log³n", "oracle charge", "oddeven rounds", "oddeven/n"},
	}
	for _, n := range sc.sizes([]int{64, 256}, []int{64, 256, 1024}) {
		run := func(m sortnet.Method) int {
			s := ncc.New(ncc.Config{N: n, Seed: int64(n) * 3, Strict: true})
			sortnet.RegisterOracle(s)
			start := 0
			tr := mustRun(s, func(nd *ncc.Node) ncc.Op {
				return primitives.BuildAll(nd, func(p primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
					if tree.IsRoot {
						start = nd.Round()
					}
					srt := &sortnet.Sorter{Method: m, Path: p, Pos: tree.Pos, Tree: &tree}
					return srt.Sort(nd, nd.Rand().Int63n(1000), func(sortnet.Result) ncc.Op { return ncc.Done() })
				})
			})
			return tr.Metrics.Rounds - start
		}
		K := ncc.CeilLog2(n)
		oracle := run(sortnet.Oracle)
		oddEven := run(sortnet.OddEven)
		merge := run(sortnet.Merge)
		t.AddRow(n, merge, float64(merge)/float64(K*K*K), oracle, oddEven, float64(oddEven)/float64(n))
	}
	return t
}

// T3GlobalPrimitives measures Theorems 4–5: broadcast and aggregation in
// O(log n) rounds; collection in O(k + log n).
func T3GlobalPrimitives(sc Scale) *Table {
	t := &Table{
		ID:      "T3",
		Title:   "Global broadcast/aggregation/collection (Thms 4, 5)",
		Claim:   "broadcast & aggregation O(log n); collection O(k + log n)",
		Columns: []string{"n", "k tokens", "bcast rounds", "agg rounds", "collect rounds"},
	}
	for _, n := range sc.sizes([]int{64, 256}, []int{64, 256, 1024, 4096}) {
		for _, perNode := range []int{1, 4} {
			var bcast, agg, collect int
			s := ncc.New(ncc.Config{N: n, Seed: int64(n + perNode)})
			mustRun(s, func(nd *ncc.Node) ncc.Op {
				return primitives.BuildAll(nd, func(_ primitives.Path, _ primitives.Levels, tree primitives.Tree) ncc.Op {
					r0 := nd.Round()
					return aggregate.Broadcast(nd, &tree, tree.IsRoot, 7, func(int64) ncc.Op {
						r1 := nd.Round()
						return aggregate.AggregateBroadcast(nd, &tree, int64(tree.Pos), aggregate.SumOp(), func(int64) ncc.Op {
							r2 := nd.Round()
							return aggregate.FindByPosition(nd, &tree, 0, func(leader ncc.ID) ncc.Op {
								r3 := nd.Round()
								toks := make([]int64, perNode)
								for i := range toks {
									toks[i] = int64(tree.Pos)
								}
								return aggregate.Collect(nd, &tree, toks, leader, func([]int64) ncc.Op {
									if tree.IsRoot {
										bcast, agg, collect = r1-r0, r2-r1, nd.Round()-r3
									}
									return ncc.Done()
								})
							})
						})
					})
				})
			})
			t.AddRow(n, perNode*n, bcast, agg, collect)
		}
	}
	return t
}

// degreeFamilies enumerates the instance families the §4 experiments sweep.
func degreeFamilies(n int, seed int64) map[string][]int {
	return map[string][]int{
		"regular-sqrt": gen.Regular(n, evenCap(int(math.Sqrt(float64(n))), n)),
		"regular-16":   gen.Regular(n, evenCap(16, n)),
		"random-graph": gen.FromRandomGraph(n, 8.0/float64(n), seed),
		"power-law":    gen.PowerLaw(n, 2.2, n/4, seed),
		"star-heavy":   gen.StarHeavy(n, 2, n/2),
	}
}

func evenCap(d, n int) int {
	if d >= n {
		d = n - 1
	}
	if (n*d)%2 != 0 {
		d--
	}
	if d < 0 {
		d = 0
	}
	return d
}

func familyOrder() []string {
	return []string{"regular-sqrt", "regular-16", "random-graph", "power-law", "star-heavy"}
}

// T5ImplicitRealization measures Theorem 11 + Lemma 10 across families. The
// per-family runs are independent, so they fan out through the shared batch
// runner and the rows are assembled from the results in family order.
func T5ImplicitRealization(sc Scale) *Table {
	t := &Table{
		ID:      "T5",
		Title:   "Implicit degree realization (Thm 11, Lemma 10)",
		Claim:   "rounds = O~(min{√m, Δ}); phases ≤ 2·min{√m, Δ}+2; degrees exact",
		Columns: []string{"family", "n", "Δ", "m", "min(√m,Δ)", "phases", "rounds", "real", "real/phase", "degrees ok"},
	}
	for _, n := range sc.sizes([]int{256}, []int{256, 1024, 4096}) {
		fams := degreeFamilies(n, int64(n))
		jobs := make([]graphrealize.Job, 0, len(fams))
		for _, name := range familyOrder() {
			jobs = append(jobs, graphrealize.Job{
				Kind: graphrealize.JobDegrees, Seq: fams[name],
				Opt: &graphrealize.Options{Seed: int64(n) + 7}, Label: name,
			})
		}
		for _, res := range runner().RealizeAll(jobs) {
			d := res.Job.Seq
			m := seq.SumDegrees(d) / 2
			delta := seq.MaxDegree(d)
			minB := delta
			if sm := int(math.Sqrt(float64(m))); sm < minB {
				minB = sm
			}
			if errors.Is(res.Err, graphrealize.ErrUnrealizable) {
				// A non-graphic family sequence is a failed row, not a crash.
				t.AddRow(res.Job.Label, n, delta, m, minB, res.Stats.Phases,
					res.Stats.Rounds, realRounds(res.Stats), 0.0, false)
				continue
			}
			res = mustRealize(res)
			real := realRounds(res.Stats)
			perPhase := 0.0
			if res.Stats.Phases > 0 {
				perPhase = float64(real) / float64(res.Stats.Phases)
			}
			t.AddRow(res.Job.Label, n, delta, m, minB, res.Stats.Phases, res.Stats.Rounds, real, perPhase, true)
		}
	}
	return t
}

// T6ExplicitRealization measures Theorem 12: the extra rounds of the
// explicit conversion against the m/n + Δ/log n + log n shape. Implicit and
// explicit variants of every family run concurrently in one batch.
func T6ExplicitRealization(sc Scale) *Table {
	t := &Table{
		ID:      "T6",
		Title:   "Explicit degree realization (Thm 12)",
		Claim:   "conversion ≈ O(m/n + Δ/log n + log n) extra rounds",
		Columns: []string{"family", "n", "Δ", "m", "implicit rounds", "explicit rounds", "extra", "bound shape"},
	}
	for _, n := range sc.sizes([]int{256}, []int{256, 1024, 4096}) {
		fams := degreeFamilies(n, int64(n))
		var jobs []graphrealize.Job
		for _, name := range familyOrder() {
			for _, kind := range []graphrealize.JobKind{graphrealize.JobDegrees, graphrealize.JobDegreesExplicit} {
				jobs = append(jobs, graphrealize.Job{
					Kind: kind, Seq: fams[name],
					Opt: &graphrealize.Options{Seed: int64(n) + 7}, Label: name,
				})
			}
		}
		results := runner().RealizeAll(jobs)
		for i := 0; i < len(results); i += 2 {
			resI, resE := mustRealize(results[i]), mustRealize(results[i+1])
			d := resI.Job.Seq
			m := seq.SumDegrees(d) / 2
			delta := seq.MaxDegree(d)
			capi := resE.Stats.Capacity
			shape := m/n + delta/capi + ncc.CeilLog2(n)
			t.AddRow(resI.Job.Label, n, delta, m, resI.Stats.Rounds, resE.Stats.Rounds,
				resE.Stats.Rounds-resI.Stats.Rounds, shape)
		}
	}
	return t
}

// T7UpperEnvelope measures Theorem 13 on non-graphic inputs; all sizes run
// as one concurrent batch.
func T7UpperEnvelope(sc Scale) *Table {
	t := &Table{
		ID:      "T7",
		Title:   "Upper-envelope realization of non-graphic sequences (Thm 13)",
		Claim:   "d' ≥ d everywhere and Σd' ≤ 2Σd",
		Columns: []string{"n", "Σd", "Σd'", "ratio", "envelope ok"},
	}
	sizes := sc.sizes([]int{64, 256}, []int{64, 256, 1024})
	jobs := make([]graphrealize.Job, 0, len(sizes))
	for _, n := range sizes {
		jobs = append(jobs, graphrealize.Job{
			Kind: graphrealize.JobUpperEnvelope, Seq: gen.NonGraphic(n, int64(n)),
			Opt: &graphrealize.Options{Seed: int64(n) + 9},
		})
	}
	for _, res := range runner().RealizeAll(jobs) {
		res = mustRealize(res)
		n := len(res.Job.Seq)
		sumD, sumDP := 0, seq.SumDegrees(res.Envelope)
		for _, v := range res.Job.Seq {
			sumD += min(v, n-1)
		}
		t.AddRow(n, sumD, sumDP, float64(sumDP)/float64(sumD), true)
	}
	return t
}

// T8TreeRealization measures Theorems 14/16 and Lemma 15: Algorithm 4 and
// Algorithm 5 run concurrently for every family.
func T8TreeRealization(sc Scale) *Table {
	t := &Table{
		ID:      "T8",
		Title:   "Tree realization: Algorithm 4 vs Algorithm 5 (Thms 14, 16)",
		Claim:   "both O(polylog n) rounds; Alg 5 diameter = optimal (Lemma 15)",
		Columns: []string{"family", "n", "alg4 rounds", "alg4 diam", "alg5 rounds", "alg5 diam", "optimal diam"},
	}
	for _, n := range sc.sizes([]int{128}, []int{128, 512, 2048}) {
		fams := map[string][]int{
			"random":      gen.TreeSequence(n, int64(n)),
			"caterpillar": gen.CaterpillarSequence(n, n/4),
			"star":        gen.StarSequence(n),
		}
		var jobs []graphrealize.Job
		for _, name := range []string{"random", "caterpillar", "star"} {
			for _, kind := range []graphrealize.JobKind{graphrealize.JobChainTree, graphrealize.JobMinDiamTree} {
				jobs = append(jobs, graphrealize.Job{
					Kind: kind, Seq: fams[name],
					Opt: &graphrealize.Options{Seed: int64(n) * 5}, Label: name,
				})
			}
		}
		results := runner().RealizeAll(jobs)
		for i := 0; i < len(results); i += 2 {
			res4, res5 := mustRealize(results[i]), mustRealize(results[i+1])
			t.AddRow(res4.Job.Label, n, res4.Stats.Rounds, res4.Graph.TreeDiameter(),
				res5.Stats.Rounds, res5.Graph.TreeDiameter(), seq.MinTreeDiameter(res4.Job.Seq))
		}
	}
	return t
}
