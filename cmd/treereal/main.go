// Command treereal realizes a tree degree sequence with Algorithm 4 (chain)
// and Algorithm 5 (minimum-diameter greedy tree) and compares diameters.
// Both algorithms run concurrently through the batch Runner, sharing its
// result cache and deterministic per-job seeding; a result that fails
// Result.Verify exits 1.
//
// Usage:
//
//	treereal -n 64                       # random tree sequence
//	treereal -seq 3,3,2,2,1,1,1,1        # explicit sequence: n = 8, Σd = 14 = 2(n−1)
//	treereal -n 100 -family caterpillar
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"graphrealize"
	"graphrealize/internal/gen"
)

func main() {
	seqFlag := flag.String("seq", "", "comma-separated tree degree sequence")
	n := flag.Int("n", 32, "node count for generated families")
	family := flag.String("family", "random", "random|caterpillar|star")
	seed := flag.Int64("seed", 1, "deterministic seed")
	flag.Parse()

	var d []int
	if *seqFlag != "" {
		for _, s := range strings.Split(*seqFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "treereal: bad entry %q\n", s)
				os.Exit(2)
			}
			d = append(d, v)
		}
	} else {
		switch *family {
		case "random":
			d = gen.TreeSequence(*n, *seed)
		case "caterpillar":
			d = gen.CaterpillarSequence(*n, *n/4)
		case "star":
			d = gen.StarSequence(*n)
		default:
			fmt.Fprintf(os.Stderr, "treereal: unknown family %q\n", *family)
			os.Exit(2)
		}
	}
	fmt.Printf("input: n=%d tree-realizable=%v\n", len(d), graphrealize.IsTreeSequence(d))

	opt := &graphrealize.Options{Seed: *seed}
	results := graphrealize.NewRunner(0).RealizeAll([]graphrealize.Job{
		{Kind: graphrealize.JobChainTree, Seq: d, Opt: opt, Label: "algorithm 4"},
		{Kind: graphrealize.JobMinDiamTree, Seq: d, Opt: opt, Label: "algorithm 5"},
	})
	for _, res := range results {
		// A correct rejection passes Verify but still fails the command.
		if err := cmp.Or(res.Verify(), res.Err); err != nil {
			fmt.Fprintf(os.Stderr, "treereal: %s: %v\n", res.Job.Label, err)
			os.Exit(1)
		}
	}
	chain, greedy := results[0], results[1]
	fmt.Printf("algorithm 4 (chain):  diameter=%d  %s\n", chain.Graph.Diameter(), chain.Stats)
	fmt.Printf("algorithm 5 (greedy): diameter=%d  %s\n", greedy.Graph.Diameter(), greedy.Stats)
	fmt.Printf("optimal diameter (Lemma 15): %d\n", graphrealize.MinTreeDiameter(d))
}
