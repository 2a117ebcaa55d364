package harness

import (
	"fmt"
	"sort"
	"strings"

	"graphrealize"
	"graphrealize/internal/gen"
	"graphrealize/internal/lowerbound"
	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
	"graphrealize/internal/seq"
)

// connectivityJob builds one batch job for the §6 realization under the
// given knowledge model.
func connectivityJob(rho []int, model graphrealize.Model, seed int64) graphrealize.Job {
	return graphrealize.Job{
		Kind: graphrealize.JobConnectivity, Seq: rho,
		Opt: &graphrealize.Options{Model: model, Seed: seed},
	}
}

// T9ConnectivityNCC1 measures Theorem 17.
func T9ConnectivityNCC1(sc Scale) *Table {
	t := &Table{
		ID:      "T9",
		Title:   "Implicit connectivity realization in NCC1 (Thm 17)",
		Claim:   "O~(1) rounds (no Δ dependence); edges ≤ 2·OPT",
		Columns: []string{"n", "Δρ", "rounds", "rounds/log n", "edges", "LB", "edges/LB", "thresholds ok"},
	}
	sizes := sc.sizes([]int{64, 256}, []int{64, 256, 1024, 4096})
	jobs := make([]graphrealize.Job, 0, len(sizes))
	for _, n := range sizes {
		jobs = append(jobs, connectivityJob(gen.UniformRho(n, n/4, int64(n)), graphrealize.NCC1, int64(n)+1))
	}
	for _, res := range runner().RealizeAll(jobs) {
		res = mustRealize(res)
		rho := res.Job.Seq
		n := len(rho)
		lb := seq.ConnectivityLowerBound(rho)
		K := ncc.CeilLog2(n)
		t.AddRow(n, n/4, res.Stats.Rounds, float64(res.Stats.Rounds)/float64(K),
			res.Graph.M(), lb, float64(res.Graph.M())/float64(lb), true)
	}
	return t
}

// T10ConnectivityNCC0 measures Theorem 18: rounds scale with Δ.
func T10ConnectivityNCC0(sc Scale) *Table {
	t := &Table{
		ID:      "T10",
		Title:   "Explicit connectivity realization in NCC0 (Thm 18)",
		Claim:   "O~(Δ) rounds; edges ≤ 2·OPT; explicit storage",
		Columns: []string{"n", "Δρ", "rounds", "real rounds", "Δ·log n", "edges", "LB", "edges/LB", "thresholds ok"},
	}
	var jobs []graphrealize.Job
	var rhoMax []int
	for _, n := range sc.sizes([]int{128}, []int{128, 512, 2048}) {
		for _, maxRho := range []int{4, 16, 64} {
			if maxRho >= n {
				continue
			}
			jobs = append(jobs, connectivityJob(gen.UniformRho(n, maxRho, int64(n+maxRho)), graphrealize.NCC0, int64(n)+2))
			rhoMax = append(rhoMax, maxRho)
		}
	}
	for i, res := range runner().RealizeAll(jobs) {
		res = mustRealize(res)
		rho := res.Job.Seq
		n := len(rho)
		lb := seq.ConnectivityLowerBound(rho)
		K := ncc.CeilLog2(n)
		t.AddRow(n, rhoMax[i], res.Stats.Rounds, realRounds(res.Stats), rhoMax[i]*K, res.Graph.M(), lb,
			float64(res.Graph.M())/float64(lb), true)
	}
	return t
}

// T11LowerBounds measures the §7 experiments: how close the upper bounds
// run to the information-theoretic floors on the adversarial families.
func T11LowerBounds(sc Scale) *Table {
	t := &Table{
		ID:      "T11",
		Title:   "Lower-bound tightness (Thms 19, 20)",
		Claim:   "measured/floor ratio is polylog on D* (√m) and Δ-regular families",
		Columns: []string{"family", "n", "Δ", "m", "floor rounds", "measured real", "ratio", "ratio/log²n"},
		Notes:   []string{"floor: IDs that must be learned / per-round capacity; measured excludes charged sort rounds"},
	}
	var jobs []graphrealize.Job
	for _, n := range sc.sizes([]int{128}, []int{128, 256, 512, 1024}) {
		// D* family: k = n/2 nodes each demanding a clique among them, so
		// m = Θ(n²) and the per-node knowledge floor is Θ(√m) = Θ(n) IDs.
		jobs = append(jobs, graphrealize.Job{
			Kind: graphrealize.JobDegrees, Seq: gen.LowerBoundDStar(n, n*n/4),
			Opt: &graphrealize.Options{Seed: int64(n) + 3}, Label: "D*-sqrt(m)",
		})
		// Δ-regular explicit family (Theorem 19), Δ = n/2.
		jobs = append(jobs, graphrealize.Job{
			Kind: graphrealize.JobDegreesExplicit, Seq: gen.Regular(n, evenCap(n/2, n)),
			Opt: &graphrealize.Options{Seed: int64(n) + 4}, Label: "Δ-regular explicit",
		})
	}
	for _, res := range runner().RealizeAll(jobs) {
		res = mustRealize(res)
		d := res.Job.Seq
		n := len(d)
		K := ncc.CeilLog2(n)
		capi := K * ncc.DefaultCapMul
		real := realRounds(res.Stats)
		var floor int
		if res.Job.Kind == graphrealize.JobDegrees {
			floor = lowerbound.ImplicitFloorDStar(d, capi)
		} else {
			floor = lowerbound.ExplicitFloor(d, capi)
		}
		tight := lowerbound.NewTightness(real, floor)
		t.AddRow(res.Job.Label, n, seq.MaxDegree(d), seq.SumDegrees(d)/2,
			floor, real, tight.Ratio, tight.Ratio/float64(K*K))
	}
	return t
}

// renderTree draws an ASCII tree from parent/child maps, by Gk label.
func renderTree(root int64, left, right map[int64]int64) []string {
	var lines []string
	var rec func(node int64, prefix string, tail, isRoot bool)
	rec = func(node int64, prefix string, tail, isRoot bool) {
		line := fmt.Sprint(node)
		childPrefix := ""
		if !isRoot {
			connector := "|-"
			childPrefix = prefix + "| "
			if tail {
				connector = "`-"
				childPrefix = prefix + "  "
			}
			line = prefix + connector + line
		}
		lines = append(lines, line)
		var kids []int64
		if l, ok := left[node]; ok {
			kids = append(kids, l)
		}
		if r, ok := right[node]; ok {
			kids = append(kids, r)
		}
		for i, k := range kids {
			rec(k, childPrefix, i == len(kids)-1, false)
		}
	}
	rec(root, "", true, true)
	return lines
}

// F1Figure1 reproduces Figure 1: the warm-up balanced binary tree built on
// the ordered path 1..8 by the odd/even recursive decomposition.
func F1Figure1(Scale) *Table {
	t := &Table{
		ID:      "F1",
		Title:   "Figure 1: warm-up balanced binary tree on Gk = 1..8",
		Claim:   "binary, spans all nodes, height ≤ ⌈log n⌉+1",
		Columns: []string{"tree"},
	}
	s := ncc.New(ncc.Config{N: 8, Seed: 1, Model: ncc.NCC1, OrderedIDs: true, Strict: true})
	tr := mustRun(s, func(nd *ncc.Node) ncc.Op {
		return primitives.BuildPath(nd, func(p primitives.Path) ncc.Op {
			return primitives.BuildWarmupTree(nd, p, func(wt primitives.WarmTree) ncc.Op {
				nd.SetOutput("left", int64(wt.Left))
				nd.SetOutput("right", int64(wt.Right))
				if wt.IsRoot {
					nd.SetOutput("root", 1)
				}
				return ncc.Done()
			})
		})
	})
	left, right := map[int64]int64{}, map[int64]int64{}
	var root int64
	for _, id := range tr.IDs {
		if _, ok := tr.Output(id, "root"); ok {
			root = int64(id)
		}
		if l, _ := tr.Output(id, "left"); l != 0 {
			left[int64(id)] = l
		}
		if r, _ := tr.Output(id, "right"); r != 0 {
			right[int64(id)] = r
		}
	}
	for _, line := range renderTree(root, left, right) {
		t.AddRow(line)
	}
	return t
}

// F2Figure2 reproduces Figure 2: the structure L on 1..8 and the balanced
// binary search tree the controlled BFS builds on it. The golden structure
// (root 1 → right 5; 5 → {3,7}; 3 → {2,4}; 7 → {6,8}) is asserted by
// TestFigure2Golden in internal/primitives.
func F2Figure2(Scale) *Table {
	t := &Table{
		ID:      "F2",
		Title:   "Figure 2: structure L and the BBST on Gk = 1..8",
		Claim:   "levels halve the path; inorder of TBFS = 1..8",
		Columns: []string{"structure"},
	}
	s := ncc.New(ncc.Config{N: 8, Seed: 1, Model: ncc.NCC1, OrderedIDs: true, Strict: true})
	tr := mustRun(s, func(nd *ncc.Node) ncc.Op {
		return primitives.BuildPath(nd, func(p primitives.Path) ncc.Op {
			return primitives.BuildLevels(nd, p, func(lv primitives.Levels) ncc.Op {
				for r := 0; r <= lv.Top(); r++ {
					nd.SetOutput(fmt.Sprintf("succ%d", r), int64(lv.Succ[r]))
				}
				return primitives.BuildTBFS(nd, lv, func(tree primitives.Tree) ncc.Op {
					return primitives.AnnotateTree(nd, &tree, func() ncc.Op {
						nd.SetOutput("left", int64(tree.Left))
						nd.SetOutput("right", int64(tree.Right))
						nd.SetOutput("pos", int64(tree.Pos))
						if tree.IsRoot {
							nd.SetOutput("root", 1)
						}
						return ncc.Done()
					})
				})
			})
		})
	})
	// Render each level's chains.
	K := ncc.CeilLog2(8)
	for r := 0; r <= K; r++ {
		var chains []string
		seen := map[int64]bool{}
		for _, start := range tr.IDs {
			if seen[int64(start)] {
				continue
			}
			// A chain start at level r is a node with no level-r pred: walk succ links.
			isStart := true
			for _, other := range tr.IDs {
				if s, _ := tr.Output(other, fmt.Sprintf("succ%d", r)); s == int64(start) {
					isStart = false
					break
				}
			}
			if !isStart {
				continue
			}
			var chain []string
			cur := int64(start)
			for cur != 0 && !seen[cur] {
				seen[cur] = true
				chain = append(chain, fmt.Sprint(cur))
				nxt, _ := tr.Output(ncc.ID(cur), fmt.Sprintf("succ%d", r))
				cur = nxt
			}
			chains = append(chains, strings.Join(chain, "-"))
		}
		sort.Strings(chains)
		t.AddRow(fmt.Sprintf("L%d: %s", r, strings.Join(chains, "  ")))
	}
	left, right := map[int64]int64{}, map[int64]int64{}
	var root int64
	inorderOK := true
	for i, id := range tr.IDs {
		if _, ok := tr.Output(id, "root"); ok {
			root = int64(id)
		}
		if l, _ := tr.Output(id, "left"); l != 0 {
			left[int64(id)] = l
		}
		if r, _ := tr.Output(id, "right"); r != 0 {
			right[int64(id)] = r
		}
		if p, _ := tr.Output(id, "pos"); p != int64(i) {
			inorderOK = false
		}
	}
	t.AddRow("BBST (inorder = 1..8: " + fmt.Sprint(inorderOK) + "):")
	for _, line := range renderTree(root, left, right) {
		t.AddRow(line)
	}
	return t
}
