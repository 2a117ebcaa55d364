// Command connreal builds an overlay meeting pairwise edge-connectivity
// thresholds (§6 of the paper) and reports the 2-approximation quality.
// Every result is checked with Result.Verify, which runs the Menger
// (max-flow) checks; one that fails it exits 1. With -seeds k it runs a
// deterministic multi-seed sweep through the batch Runner (shared result
// cache, per-job seeding) and reports per-seed costs.
//
// Usage:
//
//	connreal -n 32 -maxrho 5                 # NCC0 explicit (Thm 18)
//	connreal -n 32 -maxrho 5 -ncc1           # NCC1 implicit (Thm 17)
//	connreal -rho 3,3,2,2,1,1
//	connreal -n 64 -seeds 8 -workers 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"graphrealize"
	"graphrealize/internal/gen"
)

func main() {
	rhoFlag := flag.String("rho", "", "comma-separated threshold vector")
	n := flag.Int("n", 32, "node count for the generated vector")
	maxRho := flag.Int("maxrho", 4, "maximum threshold for the generated vector")
	ncc1 := flag.Bool("ncc1", false, "run the NCC1 O~(1) algorithm (Thm 17) instead of NCC0 (Thm 18)")
	seed := flag.Int64("seed", 1, "deterministic seed (first of the sweep)")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to sweep")
	workers := flag.Int("workers", 0, "parallel jobs for the sweep (0 = GOMAXPROCS)")
	flag.Parse()

	var rho []int
	if *rhoFlag != "" {
		for _, s := range strings.Split(*rhoFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "connreal: bad entry %q\n", s)
				os.Exit(2)
			}
			rho = append(rho, v)
		}
	} else {
		rho = gen.UniformRho(*n, *maxRho, *seed)
	}

	opt := &graphrealize.Options{Seed: *seed}
	if *ncc1 {
		opt.Model = graphrealize.NCC1
	}
	if *seeds < 1 {
		*seeds = 1
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = *seed + int64(i)
	}
	// Route through the Runner like degreal/benchtab: deterministic per-job
	// seeding and the shared result cache, plus parallelism for sweeps.
	jobs := graphrealize.SweepSeeds(graphrealize.Job{Kind: graphrealize.JobConnectivity, Seq: rho, Opt: opt}, seedList)
	results := graphrealize.NewRunner(*workers).RealizeAll(jobs)
	for i, res := range results {
		if err := res.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "connreal: seed %d: %v\n", seedList[i], err)
			os.Exit(1)
		}
	}
	first := results[0]
	if first.Err != nil {
		fmt.Fprintln(os.Stderr, "connreal:", first.Err)
		os.Exit(1)
	}
	g, stats := first.Graph, first.Stats
	lb := graphrealize.ConnectivityLowerBound(rho)
	fmt.Printf("model: %s\n", map[bool]string{false: "NCC0 (explicit, Thm 18)", true: "NCC1 (implicit, Thm 17)"}[*ncc1])
	fmt.Printf("realized: m=%d  LB=%d  approx=%.2f (bound 2.00)\n", g.M(), lb, float64(g.M())/float64(lb))
	fmt.Printf("cost: %s\n", stats)
	if *seeds > 1 {
		for i, res := range results {
			fmt.Printf("seed=%-4d m=%-5d rounds=%-6d msgs=%-8d maxRecv=%d\n",
				seedList[i], res.Graph.M(), res.Stats.Rounds, res.Stats.Messages, res.Stats.MaxRecv)
		}
	}

	fmt.Println("verified: deg ≥ ρ, m ≤ Σρ and λ(u,v) ≥ min(ρ(u), ρ(v)) (Result.Verify)")
}
