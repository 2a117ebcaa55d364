// Command benchtab regenerates every table and figure of the reproduction
// (DESIGN.md §4, T1–T11 and F1–F2) by running the distributed algorithms in
// the NCC simulator and printing the measured tables. EXPERIMENTS.md records
// a Full-scale run of this tool.
//
// Usage:
//
//	benchtab                 # all experiments, quick scale
//	benchtab -scale full     # the EXPERIMENTS.md sweep sizes
//	benchtab -only T5,T10    # a subset
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"graphrealize/internal/harness"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. T5,F2); empty = all")
	workers := flag.Int("workers", 0, "parallel realization jobs per sweep (0 = GOMAXPROCS)")
	flag.Parse()
	harness.SetWorkers(*workers)

	scale := harness.Quick
	switch strings.ToLower(*scaleFlag) {
	case "quick":
	case "full":
		scale = harness.Full
	default:
		fmt.Fprintf(os.Stderr, "benchtab: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}

	start := time.Now()
	ran := 0
	for _, e := range harness.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		t0 := time.Now()
		tab := e.Run(scale)
		fmt.Printf("%s\n[%s ran in %.2fs]\n\n", tab.Format(), e.ID, time.Since(t0).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "benchtab: no experiments matched -only")
		os.Exit(2)
	}
	fmt.Printf("benchtab: %d experiments in %.1fs (scale=%s)\n", ran, time.Since(start).Seconds(), *scaleFlag)
}
