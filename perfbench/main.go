// Command perfbench is the repository's benchmark. It drives one of three
// seeded workloads through the public constructors (server.New,
// cluster.New) over the binary TCP wire, checks every run against an
// in-process oracle and the paper's Corollary 8, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, from an untraced run.
// With -trace 1 a separate traced run walks the layer ladder (core →
// engine → server wire → server TCP → cluster router → cluster replicate →
// checkpoint) and reports per-layer metrics instead. See README.md.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload fresh-many --seed 1 --seconds 6 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: fresh-many, long-history or routed-replicated")
		seed    = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = fs.Int("seconds", 3, "length of each open-loop phase in seconds")
		trace   = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced ladder run, per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specNamed(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (fresh-many, long-history or routed-replicated), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	// Checkpoints and span files stay inside the checkout, beside the build.
	out := filepath.Join(".bench_build", "perfbench")
	dir := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	defer removeAll(dir)
	var cnt counts
	var rep *report
	var err error
	if *trace == 0 {
		rep, err = runWorkload(sp, *seed, *seconds, dir, &cnt)
	} else {
		spanPath := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.csv", sp.name, *seed))
		rep, err = runTraced(sp, *seed, dir, spanPath, &cnt)
	}
	res := result{Attempted: cnt.attempted, Failed: cnt.failed, Metrics: map[string]metricValue{}}
	if err == nil && cnt.failed > 0 {
		err = fmt.Errorf("%d of %d arrivals failed", cnt.failed, cnt.attempted)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
	} else {
		rep.printNotes(stdout)
		res.Correct, res.Metrics = true, rep.metrics
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		return 1
	}
	return 0
}
