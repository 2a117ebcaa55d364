// Command perfbench is the repository's benchmark. It starts the serving
// stack in-process — one grserved node (serve.Server over a
// graphrealize.Runner), or a coordinator with two joined workers — drives a
// closed-loop workload at it over loopback from two client connections,
// checks every answer against the paper's definitions, and prints one JSON
// result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	cold-mix     fresh requests of all six types on one node (graphwire)
//	hot-edges    warm n=4096 connectivity keys on one node (JSON with edges)
//	cluster-hot  400 warm n=64 keys through a coordinator and two workers
//
// With --trace 0 the run sets up several times and measures the timed phase
// untraced; the result line carries the end-to-end metrics. With --trace 1
// the timed phase is split into an untraced quarter, a traced half and
// another untraced quarter, and the result line carries the per-layer
// metrics of the traced half: spans recorded by the benchmark's own
// wrappers around every server's http.Handler and serve.Backend, deltas of
// every server's /v1/stats, the answers' protocol counts, Go runtime
// counters, and encoder timings on the run's own result graphs. The spans
// are written to .bench_build/spans/<workload>-<seed>.jsonl as JSON lines.
//
// The line before the result records the run's context: workload, seed,
// nproc, GOMAXPROCS, Go version, timed-phase length, sample counts and
// per-request-type failure counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// setups is how many times an untraced run sets its workload up; setup_s
// is the median, which one slow start-up cannot move. A traced run sets up
// once.
const setups = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := fs.Float64("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 measures end to end; 1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadNamed(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	rep, err := runWorkload(w, *seed, config{seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if *trace == 1 {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
		if err := saveSpans(path, rep.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		rep.info["spans_file"] = path
	}
	info, err := json.Marshal(map[string]any{"info": rep.info})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	result, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", info, result)
	return 0
}

func saveSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
