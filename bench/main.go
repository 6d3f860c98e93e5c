// Command bench is dima's benchmark: four workloads, each printing its
// end-to-end metrics or, traced, its per-layer metrics, under one
// results schema. README.md describes the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it and
// the dimaserve binary serve-mix drives:
//
//	bash bench/run.sh --workload edge-er --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -runs 3 -out a.json          # all four workloads
//	bash bench/run.sh -trace 1 -out trace.json     # per-layer metrics
//	bash bench/run.sh -compare a.json b.json
//
// A run of one workload ends its output with one JSON line holding the
// metrics BENCHMARK.json declares. The exit status is nonzero when any
// operation failed its correctness gate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dima/internal/net"
)

var workloadNames = []string{"edge-er", "strong-er", "edge-tcp", "serve-mix"}

// specPath is the benchmark description, with the declared metrics and
// their bounds, relative to the repository root the benchmark runs from.
const specPath = "BENCHMARK.json"

func main() {
	net.MaybeNodeMain() // edge-tcp spawns this binary as its node processes

	var (
		workload = flag.String("workload", "", "workload to run: edge-er, strong-er, edge-tcp or serve-mix; empty runs all four")
		seed     = flag.Uint64("seed", 1, "input seed; run i of -runs uses seed+i")
		seconds  = flag.Int("seconds", 15, "measuring time of one run, in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics instead of end-to-end ones")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory where a traced run writes its Chrome trace and per-layer JSON")
		runs     = flag.Int("runs", 1, "runs of each workload")
		out      = flag.String("out", "", "write a results file with every run's rows here")
		cmp      = flag.Bool("compare", false, "compare two results files given as arguments and exit nonzero on a regression")
		serveBin = flag.String("dimaserve", ".bench_build/dimaserve", "dimaserve binary that serve-mix spawns")
		commit   = flag.String("commit", "unknown", "commit recorded in the results header")
	)
	flag.Parse()

	if *cmp {
		os.Exit(runCompare(flag.Args()))
	}
	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
		if !slices.Contains(workloadNames, *workload) {
			usage(fmt.Errorf("unknown workload %q", *workload))
		}
	}
	if *trace != 0 && *trace != 1 {
		usage(fmt.Errorf("-trace wants 0 or 1, got %d", *trace))
	}
	if *seconds < 1 || *runs < 1 {
		usage(errors.New("-seconds and -runs want positive values"))
	}
	traced := *trace == 1
	if traced {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
	} else {
		// End-to-end runs are single-threaded, and so are the edge-tcp
		// node processes, which inherit the variable; README.md ("One
		// CPU") gives the measurements behind this.
		runtime.GOMAXPROCS(1)
		os.Setenv("GOMAXPROCS", "1")
	}

	fmt.Printf("# bench GOMAXPROCS=%d NumCPU=%d %s seed=%d seconds=%d trace=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), *seed, *seconds, *trace)
	budget := time.Duration(*seconds) * time.Second
	var all []*runResult
	for i := 0; i < *runs; i++ {
		for _, name := range names {
			s := *seed + uint64(i)
			var tw *traceWriter
			if traced {
				tw = newTraceWriter()
			}
			rr, err := runWorkload(name, s, budget, tw, *serveBin)
			if err != nil {
				fatal(fmt.Errorf("%s seed %d: %w", name, s, err))
			}
			printRun(rr)
			all = append(all, rr)
			if traced {
				if err := writeTrace(*traceDir, rr, tw, newEnv(*commit, s, *seconds, 1, true)); err != nil {
					fatal(err)
				}
			}
		}
	}

	failed := 0
	for _, rr := range all {
		failed += rr.Failed
	}
	if *out != "" {
		if err := writeResults(*out, collect(newEnv(*commit, *seed, *seconds, *runs, traced), all)); err != nil {
			fatal(err)
		}
	}
	if len(all) == 1 {
		sp, err := readSpec(specPath)
		if err != nil {
			fatal(err)
		}
		declared := sp.EndToEnd
		if traced {
			declared = sp.PerLayer
		}
		line, err := resultLine(all[0], declared)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runWorkload runs one workload once; a non-nil tw makes it the traced
// run.
func runWorkload(name string, seed uint64, budget time.Duration, tw *traceWriter, serveBin string) (*runResult, error) {
	if name == "serve-mix" {
		return serveRun(serveBin, seed, budget, tw)
	}
	for _, w := range engineWorkloads {
		if w.name == name {
			if tw != nil {
				return w.trace(seed, budget, tw)
			}
			return w.run(seed, budget)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func printRun(rr *runResult) {
	fmt.Printf("%s seed=%d attempted=%d failed=%d\n", rr.Workload, rr.Seed, rr.Attempted, rr.Failed)
	for _, m := range rr.Metrics {
		fmt.Printf("  %-9s %-28s %14.6g %-8s n=%d\n", m.layer(), m.Name, m.Value, m.Unit, m.N)
	}
	for _, e := range rr.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
}

// resultLine is the one-line JSON result of a run: the correctness
// verdict, the operation counts and every declared metric with its unit.
func resultLine(rr *runResult, declared []specMetric) (string, error) {
	have := map[string]Metric{}
	for _, m := range rr.Metrics {
		have[m.Name] = m
	}
	metrics := map[string]any{}
	for _, d := range declared {
		m, ok := have[d.Name]
		if !ok {
			return "", fmt.Errorf("%s did not measure %s", rr.Workload, d.Name)
		}
		if m.Unit != d.Unit {
			return "", fmt.Errorf("%s is measured in %s but declared in %s", d.Name, m.Unit, d.Unit)
		}
		metrics[d.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   rr.Failed == 0,
		"attempted": rr.Attempted,
		"failed":    rr.Failed,
		"metrics":   metrics,
	})
	return string(b), err
}

// writeTrace writes a traced run's Chrome trace and its per-layer
// results next to each other.
func writeTrace(dir string, rr *runResult, tw *traceWriter, env Env) error {
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", rr.Workload, rr.Seed))
	if err := tw.write(stem + ".trace.json"); err != nil {
		return err
	}
	return writeResults(stem+".layers.json", collect(env, []*runResult{rr}))
}

func runCompare(args []string) int {
	if len(args) != 2 {
		usage(errors.New("-compare wants two results files"))
	}
	sp, err := readSpec(specPath)
	if err != nil {
		fatal(err)
	}
	a, err := readResults(args[0])
	if err != nil {
		fatal(err)
	}
	b, err := readResults(args[1])
	if err != nil {
		fatal(err)
	}
	if compare(os.Stdout, a, b, sp) {
		return 0
	}
	return 1
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}
