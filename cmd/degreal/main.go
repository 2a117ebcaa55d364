// Command degreal realizes a degree sequence as a distributed overlay and
// prints the realization plus its NCC cost. With -seeds k it runs a
// deterministic multi-seed sweep through the concurrent batch runner and
// reports per-seed costs plus aggregates. Every result is checked with
// Result.Verify; one that fails it exits 1.
//
// Usage:
//
//	degreal -seq 3,3,2,2,2,2              # explicit sequence
//	degreal -n 64 -family regular -d 6    # generated family
//	degreal -n 50 -family powerlaw -explicit -print-edges
//	degreal -n 256 -seeds 16 -workers 8   # multi-seed sweep on 8 cores
//
// Families: regular (needs -d), random (G(n,p) degrees, -p), powerlaw,
// starheavy, bimodal.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"graphrealize"
	"graphrealize/internal/gen"
	"graphrealize/internal/seq"
)

func main() {
	seqFlag := flag.String("seq", "", "comma-separated degree sequence")
	n := flag.Int("n", 32, "node count for generated families")
	family := flag.String("family", "random", "regular|random|powerlaw|starheavy|bimodal")
	d := flag.Int("d", 4, "degree for -family regular")
	p := flag.Float64("p", 0.2, "edge probability for -family random")
	seed := flag.Int64("seed", 1, "deterministic seed (first of the sweep)")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to sweep")
	workers := flag.Int("workers", 0, "parallel jobs for the sweep (0 = GOMAXPROCS)")
	explicit := flag.Bool("explicit", false, "convert to an explicit realization (Thm 12)")
	envelope := flag.Bool("envelope", false, "realize an upper envelope for non-graphic input (Thm 13)")
	oddEven := flag.Bool("oddeven", false, "use the real O(n) odd-even sort instead of the charged oracle")
	printEdges := flag.Bool("print-edges", false, "print the realized edge list")
	flag.Parse()

	degs, err := sequence(*seqFlag, *family, *n, *d, *p, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "degreal:", err)
		os.Exit(2)
	}
	opt := &graphrealize.Options{Seed: *seed}
	if *oddEven {
		opt.Sort = graphrealize.OddEvenSort
	}
	kind := graphrealize.JobDegrees
	switch {
	case *envelope:
		kind = graphrealize.JobUpperEnvelope
	case *explicit:
		kind = graphrealize.JobDegreesExplicit
	}
	if *seeds < 1 {
		*seeds = 1
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = *seed + int64(i)
	}
	jobs := graphrealize.SweepSeeds(graphrealize.Job{Kind: kind, Seq: degs, Opt: opt}, seedList)

	fmt.Printf("input: n=%d Δ=%d Σd=%d graphic=%v\n",
		len(degs), seq.MaxDegree(degs), seq.SumDegrees(degs), graphrealize.IsGraphic(degs))

	results := graphrealize.NewRunner(*workers).RealizeAll(jobs)
	for i, res := range results {
		if err := res.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "degreal: seed %d: %v\n", seedList[i], err)
			os.Exit(1)
		}
	}
	first := results[0]
	if first.Err != nil {
		fmt.Fprintln(os.Stderr, "degreal:", first.Err)
		os.Exit(1)
	}
	if *envelope {
		extra := 0
		for i := range degs {
			extra += first.Envelope[i] - min(max(degs[i], 0), len(degs)-1)
		}
		fmt.Printf("envelope: total discrepancy Σ(d'-d) = %d\n", extra)
	}
	g, stats := first.Graph, first.Stats
	fmt.Printf("realized: m=%d connected=%v\n", g.M(), g.Connected())
	fmt.Printf("cost: %s phases=%d\n", stats, stats.Phases)
	if *seeds > 1 {
		rounds := make([]int, 0, len(results))
		for i, res := range results {
			fmt.Printf("seed=%-4d rounds=%-6d msgs=%-8d maxRecv=%d\n",
				seedList[i], res.Stats.Rounds, res.Stats.Messages, res.Stats.MaxRecv)
			rounds = append(rounds, res.Stats.Rounds)
		}
		sort.Ints(rounds)
		fmt.Printf("sweep: seeds=%d rounds min=%d median=%d max=%d\n",
			len(rounds), rounds[0], rounds[len(rounds)/2], rounds[len(rounds)-1])
	}
	if *printEdges {
		for _, e := range g.Edges() {
			fmt.Printf("%d %d\n", e[0], e[1])
		}
	}
}

func sequence(seqFlag, family string, n, d int, p float64, seed int64) ([]int, error) {
	if seqFlag != "" {
		parts := strings.Split(seqFlag, ",")
		out := make([]int, 0, len(parts))
		for _, s := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("bad sequence entry %q", s)
			}
			out = append(out, v)
		}
		return out, nil
	}
	switch family {
	case "regular":
		if (n*d)%2 != 0 || d >= n {
			return nil, fmt.Errorf("regular family needs d < n and n·d even (n=%d d=%d)", n, d)
		}
		return gen.Regular(n, d), nil
	case "random":
		return gen.FromRandomGraph(n, p, seed), nil
	case "powerlaw":
		return gen.PowerLaw(n, 2.2, n/4, seed), nil
	case "starheavy":
		return gen.StarHeavy(n, 2, n/2), nil
	case "bimodal":
		return gen.Bimodal(n, 2, n/8), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}
