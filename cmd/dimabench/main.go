// Command dimabench regenerates the paper's evaluation (§IV): each
// experiment reruns a figure's full grid of random graphs and prints the
// rounds-versus-Δ series and color-quality census the figure reports,
// together with the linear fit and the shape checks from DESIGN.md.
//
// Usage:
//
//	dimabench -exp fig3                # full §IV-A protocol (50 graphs/cell)
//	dimabench -exp all -scale 0.2      # quick pass over every figure
//	dimabench -exp fig6 -csv fig6.csv  # machine-readable series
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dima/internal/core"
	"dima/internal/experiment"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/stats"
	"dima/internal/trace"
	"dima/internal/viz"
)

type figure struct {
	name  string
	specs func(scale float64) []experiment.Spec
	shape experiment.Shape
	notes string
}

func figures() []figure {
	return []figure{
		{
			name:  "fig3",
			specs: experiment.Fig3Specs,
			// §IV-A: never beyond Δ+2; rounds linear in Δ.
			shape: experiment.Shape{MaxColorsExcess: 2, MinR2: 0.7},
			notes: "Algorithm 1 on Erdős–Rényi graphs (paper: Δ or Δ+1 colors, Δ+2 in 2/300 runs; rounds ≈ 2Δ, independent of n)",
		},
		{
			name:  "fig4",
			specs: experiment.Fig4Specs,
			// §IV-B: the paper saw at most Δ colors on scale-free graphs.
			// Our weakly-skewed cells (power 0.5) occasionally reach Δ+2;
			// the census shows the split, the hard bound stays 2Δ-1.
			shape: experiment.Shape{MaxColorsExcess: 2, MinR2: 0.7},
			notes: "Algorithm 1 on scale-free graphs (paper: never more than Δ colors; rounds grow linearly with Δ)",
		},
		{
			name:  "fig5",
			specs: experiment.Fig5Specs,
			// §IV-C: dense cells exceed Δ+1 (paper saw up to Δ+5); the
			// hard bound stays 2Δ-1, checked implicitly.
			shape: experiment.Shape{MaxColorsExcess: 6, MinR2: 0.7},
			notes: "Algorithm 1 on small-world graphs (paper: up to Δ+5 on dense 256-vertex cells, never 2Δ-1; rounds linear in Δ)",
		},
		{
			name:  "fig6",
			specs: experiment.Fig6Specs,
			shape: experiment.Shape{MaxColorsExcess: -1, MinR2: 0.7},
			notes: "Algorithm 2 on symmetric directed Erdős–Rényi graphs (paper: rounds ≈ 4Δ, independent of n)",
		},
	}
}

func main() {
	// A cluster-experiment coordinator spawning node processes re-execs
	// this binary with the DIMA_NODE_* environment set; such a process is
	// a cluster node, not a CLI, and never reaches flag parsing.
	net.MaybeNodeMain()
	var (
		exp      = flag.String("exp", "all", "experiment: fig3, fig4, fig5, fig6, compare, converge, pairprob, fits, telemetry, faults, scale, parallel, cluster, dynamic, soak, or all")
		scale    = flag.Float64("scale", 1.0, "fraction of the paper's 50 repetitions per cell (for -exp scale: graph-size multiplier)")
		seed     = flag.Uint64("seed", 2012, "master seed")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS); for -exp scale: shard engine worker count")
		engSel   = flag.String("engine", "", "scale experiment: comma-separated engines to benchmark (default sync,shard)")
		wkrsSet  = flag.String("workers-set", "", "parallel experiment: comma-separated shard worker counts to sweep (0 = GOMAXPROCS; default 1,2,4,8,0)")
		nodesSet = flag.String("nodes-set", "", "cluster experiment: comma-separated node-process counts to sweep (default 1,2,4)")
		benchOut = flag.String("bench-out", "", "scale experiment: write the report as JSON to this file (e.g. BENCH_PR3.json)")
		csvPath  = flag.String("csv", "", "also write the rounds series as CSV")
		savePth  = flag.String("save", "", "persist raw runs as JSON (per figure: <fig>-<name>)")
		plot     = flag.Bool("plot", true, "render ASCII rounds-vs-Δ scatter plots")

		metricsOut = flag.String("metrics-out", "", "telemetry experiment: write per-round JSONL (files prefixed alg1-/alg2-)")
		traceOut   = flag.String("trace-out", "", "telemetry experiment: write Chrome traces (files prefixed alg1-/alg2-)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and a /metrics endpoint on this address for the run")
	)
	flag.Parse()

	if *scale <= 0 {
		usage(fmt.Errorf("-scale wants a positive fraction, got %g", *scale))
	}
	if *workers < 0 {
		usage(fmt.Errorf("-workers wants a non-negative count, got %d", *workers))
	}

	var reg *metrics.Registry
	if *pprofAddr != "" {
		reg = metrics.NewRegistry()
		ds, err := metrics.StartDebugServer(*pprofAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "dimabench: pprof and /metrics at http://%s\n", ds.Addr())
	}

	selected := map[string]bool{}
	for _, f := range strings.Split(*exp, ",") {
		selected[strings.TrimSpace(f)] = true
	}
	runAll := selected["all"]

	anyRan := false
	for _, fig := range figures() {
		if !runAll && !selected[fig.name] {
			continue
		}
		anyRan = true
		start := time.Now()
		runs, err := experiment.RunGrid(fig.specs(*scale), experiment.Config{
			Seed: *seed, Workers: *workers,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== %s — %s\n", fig.name, fig.notes)
		fmt.Printf("   %d runs in %v\n\n", len(runs), time.Since(start).Round(time.Millisecond))
		fmt.Println(experiment.RoundsTable(runs).String())
		fmt.Println(experiment.ColorsTable(runs).String())
		if *plot {
			fmt.Println(plotRuns(fig.name, runs))
		}
		if fit, err := experiment.FitRoundsVsDelta(runs); err == nil {
			fmt.Printf("rounds ~ Δ fit: rounds = %.2f + %.2f·Δ (R²=%.3f, %d points)\n",
				fit.Intercept, fit.Slope, fit.R2, fit.N)
		}
		problems := fig.shape.Check(runs)
		problems = append(problems, experiment.NIndependence(runs, 1.5)...)
		if len(problems) == 0 {
			fmt.Println("shape: OK (quality bounds, linearity, n-independence)")
		} else {
			for _, p := range problems {
				fmt.Printf("shape PROBLEM: %s\n", p)
			}
		}
		fmt.Println()
		if *csvPath != "" {
			name := *csvPath
			if runAll || len(selected) > 1 {
				name = fig.name + "-" + name
			}
			f, err := os.Create(name)
			if err != nil {
				fatal(err)
			}
			if err := writeCSV(f, runs); err != nil {
				fatal(err)
			}
			f.Close()
			fmt.Printf("wrote %s\n\n", name)
		}
		if *savePth != "" {
			name := fig.name + "-" + *savePth
			f, err := os.Create(name)
			if err != nil {
				fatal(err)
			}
			if err := experiment.SaveRuns(f, fig.name, *seed, runs); err != nil {
				fatal(err)
			}
			f.Close()
			fmt.Printf("saved %s\n\n", name)
		}
	}
	if runAll || selected["fits"] {
		anyRan = true
		fmt.Println("== fits — the conclusion's headline constants: rounds ≈ 2Δ (Algorithm 1) and ≈ 4Δ (Algorithm 2)")
		for _, arm := range []struct {
			name  string
			specs []experiment.Spec
			paper float64
		}{
			{"algorithm 1 (fig3 grid)", experiment.Fig3Specs(*scale), 2},
			{"algorithm 2 (fig6 grid)", experiment.Fig6Specs(*scale), 4},
		} {
			runs, err := experiment.RunGrid(arm.specs, experiment.Config{Seed: *seed, Workers: *workers})
			if err != nil {
				fatal(err)
			}
			fit, err := experiment.FitRoundsVsDelta(runs)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s: rounds = %.2f + %.2f·Δ (R²=%.3f, %d runs); paper reports ≈ %.0fΔ — slope ratio %.2f\n",
				arm.name, fit.Intercept, fit.Slope, fit.R2, fit.N, arm.paper, fit.Slope/arm.paper)
		}
		fmt.Println()
	}
	if runAll || selected["converge"] {
		anyRan = true
		reps := int(10**scale + 0.5)
		if reps < 2 {
			reps = 2
		}
		fmt.Println("== converge — cumulative fraction of edges/arcs colored per computation round")
		series := map[string][]experiment.ConvergencePoint{}
		order := []string{"alg1 er n=200 deg=8", "alg2 dir-er n=200 deg=8"}
		var err error
		if series[order[0]], err = experiment.Convergence(*seed, 200, 8, reps, false); err != nil {
			fatal(err)
		}
		if series[order[1]], err = experiment.Convergence(*seed, 200, 8, reps, true); err != nil {
			fatal(err)
		}
		if *plot {
			fmt.Println(experiment.ConvergencePlot(series, order))
		}
		for _, label := range order {
			pts := series[label]
			half, ninety := -1, -1
			for _, p := range pts {
				if half < 0 && p.Fraction >= 0.5 {
					half = p.Round
				}
				if ninety < 0 && p.Fraction >= 0.9 {
					ninety = p.Round
				}
			}
			fmt.Printf("%s: 50%% colored by round %d, 90%% by round %d, done by round %d\n",
				label, half, ninety, len(pts)-1)
		}
		fmt.Println()
	}
	if runAll || selected["pairprob"] {
		anyRan = true
		reps := int(20**scale + 0.5)
		if reps < 2 {
			reps = 2
		}
		fmt.Println("== pairprob — empirical Equation (1): per-round pairing probability of an active node")
		for _, arm := range []struct {
			name   string
			strong bool
		}{{"algorithm 1 (er n=200 deg=8)", false}, {"algorithm 2 (dir-er n=200 deg=8)", true}} {
			points, err := experiment.PairingProbability(*seed, 200, 8, reps, arm.strong)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("\n%s, %d runs:\n", arm.name, reps)
			fmt.Println(experiment.PairingTable(points, 10).String())
		}
		fmt.Println("Proposition 1 bounds the Algorithm 1 rate below by 1/4 (invitee side alone);")
		fmt.Println("Algorithm 2 pairs per *arc*, needing a directed invitation, so its per-round")
		fmt.Println("rate is lower while the O(Δ) round shape is unchanged.")
		fmt.Println()
	}
	if runAll || selected["compare"] {
		anyRan = true
		start := time.Now()
		reps := int(10**scale + 0.5)
		if reps < 2 {
			reps = 2
		}
		runs, err := experiment.RunComparison(*seed, 200, []float64{4, 8, 16}, reps, *workers)
		if err != nil {
			fatal(err)
		}
		fmt.Println("== compare — Algorithm 1 vs the cited prior-work baseline (ref [10]) and centralized references")
		fmt.Printf("   %d runs in %v\n\n", len(runs), time.Since(start).Round(time.Millisecond))
		fmt.Println(experiment.ComparisonTable(runs).String())
		fmt.Println("dima trades rounds (≈2Δ) for a Δ/Δ+1 palette; the simple algorithm")
		fmt.Println("finishes in O(log m) rounds but spreads colors over the 2Δ-1 palette.")
		fmt.Println()

		start = time.Now()
		strongRuns, err := experiment.RunStrongComparison(*seed, 100, []float64{4, 8}, reps, *workers)
		if err != nil {
			fatal(err)
		}
		fmt.Println("== compare-strong — Algorithm 2 (DiMa2Ed) vs the simple-strong baseline and centralized greedy")
		fmt.Printf("   %d runs in %v\n\n", len(strongRuns), time.Since(start).Round(time.Millisecond))
		fmt.Println(experiment.StrongComparisonTable(strongRuns).String())
		fmt.Println("same trade at distance 2: dima2ed spends Θ(Δ) rounds for a near-greedy channel")
		fmt.Println("count; the simple-strong baseline finishes in O(log) rounds but needs a palette")
		fmt.Println("sized to the worst-case conflict degree (global knowledge).")
		fmt.Println()
	}
	if runAll || selected["telemetry"] {
		anyRan = true
		runTelemetry(*seed, reg, *metricsOut, *traceOut)
	}
	// The scale sweep is explicit-only: at scale 1 it colors a million-
	// vertex graph per engine, far too heavy to ride along with "all".
	if selected["scale"] {
		anyRan = true
		runScale(*seed, *scale, *workers, *engSel, *benchOut)
	}
	// The parallel sweep is explicit-only for the same reason: at scale 1
	// it colors a 10⁷-edge graph once per worker count.
	if selected["parallel"] {
		anyRan = true
		runParallel(*seed, *scale, *wkrsSet, *benchOut)
	}
	// The cluster sweep is explicit-only: every rung spawns real node
	// processes per cell and pushes the whole message volume through
	// loopback sockets.
	if selected["cluster"] {
		anyRan = true
		runCluster(*seed, *scale, *nodesSet, *benchOut)
	}
	// The dynamic sweep is explicit-only for the same reason: each batch
	// costs a full recolor of the 10⁵-vertex instance for comparison.
	if selected["dynamic"] {
		anyRan = true
		runDynamic(*seed, *scale, *workers, *benchOut)
	}
	// The soak sweep is explicit-only too: at scale 1 it streams a
	// million-plus mutations (and replays them all for determinism).
	if selected["soak"] {
		anyRan = true
		runSoak(*seed, *scale, *workers, *benchOut)
	}
	if runAll || selected["faults"] {
		anyRan = true
		start := time.Now()
		cfg := experiment.DefaultFaultConfig(*seed, *scale)
		cfg.Workers = *workers
		runs, err := experiment.FaultSweep(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println("== faults — message loss sweep: completeness and round overhead vs drop rate, recovery off/on")
		fmt.Printf("   er n=%d deg=%g, %d runs in %v\n\n", cfg.N, cfg.Deg, len(runs), time.Since(start).Round(time.Millisecond))
		fmt.Println(experiment.FaultTable(experiment.FaultCells(runs)).String())
		fmt.Println("Without recovery any lost negotiation strands the run (half-colored items,")
		fmt.Println("truncation at the round cap); with recovery both algorithms converge to")
		fmt.Println("complete valid colorings, paying rounds and retransmissions that grow with P.")
		fmt.Println()
	}
	if !anyRan {
		fatal(fmt.Errorf("unknown experiment %q (want fig3, fig4, fig5, fig6, compare, converge, pairprob, fits, telemetry, faults, scale, parallel, cluster, dynamic, soak, or all)", *exp))
	}
}

// runScale executes the engine scale sweep (docs/PERFORMANCE.md): the
// same Algorithm 1 run per engine over a graph-size ladder, recording
// wall-clock, allocations, rounds, and traffic, cross-checking that the
// engines agree on the coloring, and optionally persisting the report
// (-bench-out BENCH_PR3.json is the committed baseline).
func runScale(seed uint64, scale float64, workers int, engineList, benchOut string) {
	cfg := experiment.DefaultScaleConfig(seed, scale)
	cfg.Workers = workers
	if engineList != "" {
		cfg.Engines = nil
		for _, e := range strings.Split(engineList, ",") {
			cfg.Engines = append(cfg.Engines, strings.TrimSpace(e))
		}
	}
	fmt.Println("== scale — engine benchmark: wall-clock, allocations, rounds, and traffic per (engine, n)")
	fmt.Printf("   er avg-deg=%g, sizes %v, engines %v\n\n", cfg.AvgDeg, cfg.Sizes, cfg.Engines)
	t := stats.NewTable("engine", "n", "m", "delta", "rounds", "commRounds", "colors", "messages", "wallMS", "allocs", "allocMB")
	start := time.Now()
	rep, err := experiment.ScaleSweep(cfg, func(row experiment.ScaleRow) {
		name := row.Engine
		if row.Workers > 0 {
			name = fmt.Sprintf("%s-%d", row.Engine, row.Workers)
		}
		fmt.Fprintf(os.Stderr, "dimabench: scale %s n=%d done in %.0fms\n", name, row.N, row.WallMS)
	})
	if err != nil {
		fatal(err)
	}
	for _, row := range rep.Rows {
		t.AddRow(row.Engine, row.N, row.M, row.Delta, row.CompRounds, row.CommRounds,
			row.Colors, row.Messages, fmt.Sprintf("%.1f", row.WallMS),
			row.Allocs, fmt.Sprintf("%.1f", row.AllocMB))
	}
	fmt.Println(t.String())
	fmt.Printf("%d rows in %v; colorings identical across engines per size\n",
		len(rep.Rows), time.Since(start).Round(time.Millisecond))
	if benchOut != "" {
		f, err := os.Create(benchOut)
		if err != nil {
			fatal(err)
		}
		if err := experiment.WriteScaleReport(f, rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", benchOut)
	}
	fmt.Println()
}

// runParallel executes the shard worker-scaling sweep
// (docs/PERFORMANCE.md): the same Algorithm 1 run once on the sync
// reference engine and once per shard worker count over an edge-count
// ladder, recording wall-clock, allocations, delivery records, and
// merge-bucket skips, and cross-checking every shard coloring against
// the sync reference (-bench-out BENCH_PR8.json is the committed
// baseline).
func runParallel(seed uint64, scale float64, workersSet, benchOut string) {
	cfg := experiment.DefaultParallelConfig(seed, scale)
	if workersSet != "" {
		cfg.WorkersSet = nil
		for _, f := range strings.Split(workersSet, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || w < 0 {
				usage(fmt.Errorf("-workers-set wants non-negative counts, got %q", f))
			}
			cfg.WorkersSet = append(cfg.WorkersSet, w)
		}
	}
	fmt.Println("== parallel — shard worker scaling: wall-clock, allocations, delivery records per (workers, m)")
	fmt.Printf("   er avg-deg=%g, edge ladder %v, workers %v, gomaxprocs=%d numcpu=%d\n\n",
		cfg.AvgDeg, cfg.Edges, cfg.WorkersSet, runtime.GOMAXPROCS(0), runtime.NumCPU())
	t := stats.NewTable("engine", "workers", "n", "m", "rounds", "messages",
		"deliveries", "records", "wallMS", "speedup", "allocs/edge")
	start := time.Now()
	rep, err := experiment.ParallelSweep(cfg, func(row experiment.ParallelRow) {
		fmt.Fprintf(os.Stderr, "dimabench: parallel %s workers=%d m=%d done in %.0fms\n",
			row.Engine, row.Workers, row.M, row.WallMS)
	})
	if err != nil {
		fatal(err)
	}
	for _, row := range rep.Rows {
		speedup := "-"
		if row.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", row.Speedup)
		}
		records := "-"
		if row.Records > 0 {
			records = fmt.Sprintf("%d", row.Records)
		}
		t.AddRow(row.Engine, row.Workers, row.N, row.M, row.CompRounds, row.Messages,
			row.Deliveries, records, fmt.Sprintf("%.1f", row.WallMS),
			speedup, fmt.Sprintf("%.2f", row.AllocsPerEdge))
	}
	fmt.Println(t.String())
	fmt.Printf("%d rows in %v; every shard coloring byte-identical to the sync reference\n",
		len(rep.Rows), time.Since(start).Round(time.Millisecond))
	if benchOut != "" {
		f, err := os.Create(benchOut)
		if err != nil {
			fatal(err)
		}
		if err := experiment.WriteParallelReport(f, rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", benchOut)
	}
	fmt.Println()
}

// runCluster executes the tcp engine's process-scaling sweep
// (docs/CLUSTER.md): the same Algorithm 1 run once on the sync
// reference engine and once per node-process count over an edge-count
// ladder, recording wall-clock and wire volume and cross-checking every
// cluster coloring against the sync reference element-wise.
func runCluster(seed uint64, scale float64, nodesSet, benchOut string) {
	cfg := experiment.DefaultClusterConfig(seed, scale)
	if nodesSet != "" {
		cfg.NodesSet = nil
		for _, f := range strings.Split(nodesSet, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || k < 1 {
				usage(fmt.Errorf("-nodes-set wants positive counts, got %q", f))
			}
			cfg.NodesSet = append(cfg.NodesSet, k)
		}
	}
	fmt.Println("== cluster — tcp process scaling: wall-clock and wire volume per (nodes, m)")
	fmt.Printf("   er avg-deg=%g, edge ladder %v, nodes %v, gomaxprocs=%d numcpu=%d\n\n",
		cfg.AvgDeg, cfg.Edges, cfg.NodesSet, runtime.GOMAXPROCS(0), runtime.NumCPU())
	t := stats.NewTable("engine", "nodes", "n", "m", "rounds", "messages",
		"deliveries", "bytes", "wallMS", "overhead")
	start := time.Now()
	rep, err := experiment.ClusterSweep(cfg, func(row experiment.ClusterRow) {
		fmt.Fprintf(os.Stderr, "dimabench: cluster %s nodes=%d m=%d done in %.0fms\n",
			row.Engine, row.Nodes, row.M, row.WallMS)
	})
	if err != nil {
		fatal(err)
	}
	for _, row := range rep.Rows {
		overhead := "-"
		if row.Overhead > 0 {
			overhead = fmt.Sprintf("%.2fx", row.Overhead)
		}
		t.AddRow(row.Engine, row.Nodes, row.N, row.M, row.CompRounds, row.Messages,
			row.Deliveries, row.Bytes, fmt.Sprintf("%.1f", row.WallMS), overhead)
	}
	fmt.Println(t.String())
	fmt.Printf("%d rows in %v; every cluster coloring byte-identical to the sync reference\n",
		len(rep.Rows), time.Since(start).Round(time.Millisecond))
	if benchOut != "" {
		f, err := os.Create(benchOut)
		if err != nil {
			fatal(err)
		}
		if err := experiment.WriteClusterReport(f, rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", benchOut)
	}
	fmt.Println()
}

// runDynamic executes the dynamic recoloring benchmark (docs/DYNAMIC.md):
// cold-color one instance, stream mutation batches of each size through
// the incremental recolorer, and race every batch against a full recolor
// of the same mutated graph. Every post-batch coloring is verified and
// the streams are replayed to confirm determinism (-bench-out
// BENCH_PR5.json is the committed baseline).
func runDynamic(seed uint64, scale float64, workers int, benchOut string) {
	cfg := experiment.DefaultDynamicConfig(seed, scale)
	cfg.Workers = workers
	fmt.Println("== dynamic — incremental repair vs full recolor: wall-clock per mutation batch")
	fmt.Printf("   er n=%d avg-deg=%g, batch sizes %v × %d batches, tight palette\n\n",
		cfg.N, cfg.AvgDeg, cfg.BatchSizes, cfg.BatchesPerSize)
	t := stats.NewTable("batch", "ins", "del", "greedy", "repaired", "rounds",
		"maxRegion", "incAvgMS", "fullAvgMS", "speedup", "colors")
	start := time.Now()
	rep, err := experiment.DynamicSweep(cfg, func(row experiment.DynamicRow) {
		fmt.Fprintf(os.Stderr, "dimabench: dynamic batch=%d done (inc %.2fms vs full %.0fms per batch)\n",
			row.BatchSize, row.IncAvgMS, row.FullAvgMS)
	})
	if err != nil {
		fatal(err)
	}
	for _, row := range rep.Rows {
		t.AddRow(row.BatchSize, row.Inserted, row.Deleted, row.Greedy, row.RepairedEdges,
			row.RepairRounds, fmt.Sprintf("%dv/%de", row.MaxRegionSize, row.MaxRegionEdges),
			fmt.Sprintf("%.2f", row.IncAvgMS), fmt.Sprintf("%.1f", row.FullAvgMS),
			fmt.Sprintf("%.0fx", row.Speedup), row.IncColors)
	}
	fmt.Println(t.String())
	fmt.Printf("cold run: %d colors in %.0fms (n=%d m=%d Δ=%d); %d rows in %v; deterministic=%v\n",
		rep.ColdColors, rep.ColdWallMS, rep.N, rep.M, rep.Delta,
		len(rep.Rows), time.Since(start).Round(time.Millisecond), rep.Deterministic)
	if !rep.Deterministic {
		fatal(fmt.Errorf("dynamic sweep: replay diverged from the timed run"))
	}
	if benchOut != "" {
		f, err := os.Create(benchOut)
		if err != nil {
			fatal(err)
		}
		if err := experiment.WriteDynamicReport(f, rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", benchOut)
	}
	fmt.Println()
}

// runSoak executes the long-run churn soak (docs/PERFORMANCE.md): each
// temporal workload streams its mutation budget through a recolorer
// with auto-maintenance on, sampling palette/id-space/latency/heap per
// epoch and hard-asserting the boundedness invariants, then replays for
// determinism (-bench-out BENCH_PR7.json is the committed baseline).
func runSoak(seed uint64, scale float64, workers int, benchOut string) {
	cfg := experiment.DefaultSoakConfig(seed, scale)
	cfg.Workers = workers
	fmt.Println("== soak — long-run churn: palette, id-space, latency, and heap flatness under maintenance")
	fmt.Printf("   er n=%d avg-deg=%g, %d mutations/arm in batches of %d, arms %v, %d epochs\n\n",
		cfg.N, cfg.AvgDeg, cfg.Mutations, cfg.BatchSize, cfg.Workloads, cfg.Epochs)
	t := stats.NewTable("workload", "epoch", "muts", "m", "idBound", "delta",
		"colors", "maxColor", "p50us", "p99us", "passes", "heapMB")
	start := time.Now()
	rep, err := experiment.SoakSweep(cfg, func(w string, ep experiment.SoakEpoch) {
		t.AddRow(w, ep.Epoch, ep.Mutations, ep.M, ep.EdgeIDBound, ep.Delta,
			ep.Colors, ep.MaxColor, fmt.Sprintf("%.0f", ep.P50US),
			fmt.Sprintf("%.0f", ep.P99US), ep.MaintainPasses,
			fmt.Sprintf("%.1f", float64(ep.HeapBytes)/(1<<20)))
		fmt.Fprintf(os.Stderr, "dimabench: soak %s epoch %d/%d (%d mutations)\n",
			w, ep.Epoch+1, cfg.Epochs, ep.Mutations)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(t.String())
	for _, arm := range rep.Arms {
		last := arm.Epochs[len(arm.Epochs)-1]
		fmt.Printf("%s: %d mutations in %.0fms, %d maintenance passes (%d compactions, %d rebalances), deterministic=%v\n",
			arm.Workload, arm.Mutations, arm.WallMS,
			last.MaintainPasses, last.Compactions, last.Rebalances, arm.Deterministic)
	}
	fmt.Printf("total %d mutations in %v; deterministic=%v\n",
		rep.TotalMutations, time.Since(start).Round(time.Millisecond), rep.Deterministic)
	if !rep.Deterministic {
		fatal(fmt.Errorf("soak sweep: replay diverged from the sampled run"))
	}
	if benchOut != "" {
		f, err := os.Create(benchOut)
		if err != nil {
			fatal(err)
		}
		if err := experiment.WriteSoakReport(f, rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", benchOut)
	}
	fmt.Println()
}

// runTelemetry executes one instrumented run of each algorithm on the
// convergence experiments' reference graph (ER, n=200, avg degree 8)
// and prints the per-round picture the aggregate tables hide: activity
// decay, pairing, palette growth, and traffic. With -metrics-out /
// -trace-out the full streams are persisted (one file per algorithm,
// prefixed alg1-/alg2-, following the -save naming convention).
func runTelemetry(seed uint64, reg *metrics.Registry, metricsOut, traceOut string) {
	fmt.Println("== telemetry — instrumented single runs: per-round convergence, palette growth, and traffic")
	g, err := gen.ErdosRenyiAvgDegree(rng.New(seed), 200, 8)
	if err != nil {
		fatal(err)
	}
	for _, arm := range []struct {
		prefix, label string
		strong        bool
	}{
		{"alg1", "algorithm 1 (er n=200 deg=8)", false},
		{"alg2", "algorithm 2 (dir-er n=200 deg=8)", true},
	} {
		mem := &metrics.Memory{}
		sinks := []metrics.Sink{mem}
		var jsonl *metrics.JSONLWriter
		var jsonlFile *os.File
		var jsonlName string
		if metricsOut != "" {
			jsonlName = prefixed(arm.prefix, metricsOut)
			jsonlFile, err = os.Create(jsonlName)
			if err != nil {
				fatal(err)
			}
			jsonl = metrics.NewJSONLWriter(jsonlFile)
			sinks = append(sinks, jsonl)
		}
		if reg != nil {
			sinks = append(sinks, metrics.NewRoundAggregator(reg))
		}
		opt := core.Options{Seed: seed, Metrics: metrics.Multi(sinks...)}
		var rec *trace.Recorder
		if traceOut != "" {
			rec = trace.NewRecorder(0)
			opt.Hook = rec.Hook()
		}
		var res *core.Result
		if arm.strong {
			res, err = core.ColorStrong(graph.NewSymmetric(g), opt)
		} else {
			res, err = core.ColorEdges(g, opt)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s: rounds=%d colors=%d messages=%d terminated=%v\n",
			arm.label, res.CompRounds, res.NumColors, res.Messages, res.Terminated)
		fmt.Println(telemetryTable(mem.Rounds, len(res.Colors)).String())
		if jsonl != nil {
			if err := jsonl.Flush(); err != nil {
				fatal(err)
			}
			jsonlFile.Close()
			fmt.Printf("wrote %s (%d rounds)\n", jsonlName, jsonl.Rounds())
		}
		if rec != nil {
			name := prefixed(arm.prefix, traceOut)
			f, err := os.Create(name)
			if err != nil {
				fatal(err)
			}
			if err := rec.ChromeTrace(f); err != nil {
				fatal(err)
			}
			f.Close()
			fmt.Printf("wrote %s (%d events, load at ui.perfetto.dev)\n", name, rec.Len())
		}
	}
	fmt.Println()
}

// prefixed inserts an algorithm prefix into a path's file name:
// prefixed("alg1", "out/run.jsonl") -> "out/alg1-run.jsonl".
func prefixed(prefix, path string) string {
	return filepath.Join(filepath.Dir(path), prefix+"-"+filepath.Base(path))
}

// telemetryTable samples the round stream down to ~12 rows (always
// keeping the final round) so the convergence shape is readable.
func telemetryTable(rounds []metrics.RoundStats, items int) *stats.Table {
	t := stats.NewTable("round", "active", "inviters", "paired", "colored", "cum%", "colors", "messages", "bytes")
	step := (len(rounds) + 11) / 12
	if step < 1 {
		step = 1
	}
	for i, rs := range rounds {
		if i%step != 0 && i != len(rounds)-1 {
			continue
		}
		cum := "-"
		if items > 0 {
			cum = fmt.Sprintf("%.0f%%", 100*float64(rs.ColoredTotal)/float64(items))
		}
		t.AddRow(rs.Round, rs.Active, rs.Inviters, rs.Paired, rs.Colored, cum,
			rs.NumColors, rs.Messages, rs.Bytes)
	}
	return t
}

// plotRuns renders the figure's scatter: one point per run, one series
// per n (matching the paper's plotting convention of separating sizes).
func plotRuns(name string, runs []experiment.Run) string {
	bySeries := map[string][]viz.Point{}
	var order []string
	for _, r := range runs {
		key := fmt.Sprintf("n=%d", r.N)
		if _, ok := bySeries[key]; !ok {
			order = append(order, key)
		}
		bySeries[key] = append(bySeries[key], viz.Point{X: float64(r.Delta), Y: float64(r.CompRounds)})
	}
	p := viz.NewPlot(fmt.Sprintf("%s: computation rounds vs Δ", name), "Δ", "rounds", 64, 16)
	for _, key := range order {
		p.Add(viz.Series{Name: key, Points: bySeries[key]})
	}
	return p.Render()
}

func writeCSV(f *os.File, runs []experiment.Run) error {
	t := stats.NewTable("group", "rep", "n", "m", "delta", "rounds", "colors", "maxColor", "messages", "pairRate")
	for _, r := range runs {
		t.AddRow(r.Group, r.Rep, r.N, r.M, r.Delta, r.CompRounds, r.Colors, r.MaxColor, r.Messages, r.PairRate)
	}
	return t.WriteCSV(f)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dimabench: %v\n", err)
	os.Exit(1)
}

// usage reports a bad flag value and exits 2, the conventional status
// for a usage error (runtime failures exit 1).
func usage(err error) {
	fmt.Fprintf(os.Stderr, "dimabench: %v\n", err)
	os.Exit(2)
}
