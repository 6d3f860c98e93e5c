// Command dimacolor runs the paper's distributed coloring algorithms on
// a graph read from a file (or stdin) in the dima edge-list format.
//
// Usage:
//
//	graphgen -family er -n 200 -deg 8 | dimacolor -seed 7
//	dimacolor -in er.graph -strong -engine shard -json out.json
//	dimacolor -in small.graph -trace
//	dimacolor -in er.graph -mutate edits.txt -json mutated.json
//	dimacolor -in er.graph -mutate edits.txt -maintain
//
// By default it runs Algorithm 1 (edge coloring); -strong runs
// Algorithm 2 (DiMa2Ed strong distance-2 coloring) on the symmetric
// digraph of the input. The coloring is verified before reporting.
package main

import (
	"context"
	"flag"
	"fmt"
	stdnet "net"
	"os"
	"strconv"

	"dima/internal/automaton"
	"dima/internal/baseline"
	"dima/internal/core"
	"dima/internal/dynamic"
	"dima/internal/graph"
	"dima/internal/graphio"
	"dima/internal/metrics"
	"dima/internal/mpr"
	"dima/internal/net"
	"dima/internal/stats"
	"dima/internal/trace"
	"dima/internal/verify"
)

func main() {
	// A coordinator spawning node processes re-execs this binary with the
	// DIMA_NODE_* environment set; in that case the process is a cluster
	// node, not a CLI, and never reaches flag parsing.
	net.MaybeNodeMain()
	var (
		in       = flag.String("in", "", "input graph file (default stdin)")
		algo     = flag.String("algo", "dima", "algorithm: dima (paper), simple (prior-work ref 10), tree (deterministic wave, forests only)")
		strong   = flag.Bool("strong", false, "run Algorithm 2 (strong distance-2 coloring)")
		seed     = flag.Uint64("seed", 1, "random seed")
		reps     = flag.Int("reps", 1, "run this many seeds (seed, seed+1, ...) and report statistics")
		engine   = flag.String("engine", "sync", "runtime: sync (sequential), shard (worker shards), or tcp (node processes over TCP)")
		workers  = flag.Int("workers", 0, "shard engine worker count (0 = GOMAXPROCS; only with -engine shard)")
		nodes    = flag.Int("nodes", 0, "tcp engine node process count (only with -engine tcp)")
		listen   = flag.String("listen", "", "tcp engine coordinator listen address (default: a kernel-assigned loopback port; only with -engine tcp)")
		barrier  = flag.Duration("barrier-timeout", 0, "tcp engine per-round-barrier timeout (0 = 30s default; only with -engine tcp)")
		external = flag.Bool("external", false, "tcp engine: do not spawn node processes; wait for operator-launched dimanode processes on -listen")
		rule     = flag.String("rule", "lowest", "color proposal rule: lowest or random")
		jsonOut  = flag.String("json", "", "write the coloring as JSON to this file")
		showTr   = flag.Bool("trace", false, "print per-node automaton timelines (small graphs)")
		maxComp  = flag.Int("max-rounds", 0, "computation round cap (0 = default)")
		noVerify = flag.Bool("no-verify", false, "skip the validity check")
		dropP    = flag.Float64("drop", 0, "drop each message delivery with this probability (0 = reliable)")
		recover  = flag.Bool("recover", false, "enable the loss-recovery layer (docs/ROBUSTNESS.md)")
		mutate   = flag.String("mutate", "", "after the run, apply this text mutation list (+ u v / - u v) and repair the coloring incrementally (docs/DYNAMIC.md)")
		maintain = flag.Bool("maintain", false, "after -mutate, run a forced maintenance pass (edge-id compaction + palette rebalance) and report it")

		metricsOut = flag.String("metrics-out", "", "write per-round telemetry as JSON Lines to this file")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace (Perfetto-compatible) of the automaton timelines to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and a /metrics endpoint on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	// Flag validation happens before any work: a hostile or mistyped
	// value must exit 2 with a message, never reach a library panic.
	if *reps < 1 {
		usage(fmt.Errorf("-reps wants a positive count, got %d", *reps))
	}
	if *workers < 0 {
		usage(fmt.Errorf("-workers wants a non-negative count, got %d", *workers))
	}
	if *maxComp < 0 {
		usage(fmt.Errorf("-max-rounds wants a non-negative cap, got %d", *maxComp))
	}
	switch *algo {
	case "dima", "simple", "tree":
	default:
		usage(fmt.Errorf("unknown algorithm %q", *algo))
	}
	opt := core.Options{Seed: *seed, MaxCompRounds: *maxComp}
	switch *engine {
	case "sync":
		opt.Engine = net.RunSync
	case "shard":
		opt.Engine = net.RunShard
		opt.Workers = *workers
	case "tcp":
		if *nodes < 1 {
			usage(fmt.Errorf("-engine tcp wants -nodes >= 1, got %d", *nodes))
		}
		opt.Cluster = &net.TCPCluster{
			Nodes:          *nodes,
			Listen:         *listen,
			BarrierTimeout: *barrier,
			External:       *external,
		}
	default:
		usage(fmt.Errorf("unknown engine %q", *engine))
	}
	if *workers != 0 && *engine != "shard" {
		usage(fmt.Errorf("-workers requires -engine shard"))
	}
	if *engine != "tcp" {
		if *nodes != 0 {
			usage(fmt.Errorf("-nodes requires -engine tcp"))
		}
		if *listen != "" {
			usage(fmt.Errorf("-listen requires -engine tcp"))
		}
		if *barrier != 0 {
			usage(fmt.Errorf("-barrier-timeout requires -engine tcp"))
		}
		if *external {
			usage(fmt.Errorf("-external requires -engine tcp"))
		}
	} else {
		if *nodes > 1<<16 {
			usage(fmt.Errorf("-nodes wants at most %d processes, got %d", 1<<16, *nodes))
		}
		if *barrier < 0 {
			usage(fmt.Errorf("-barrier-timeout wants a non-negative duration, got %v", *barrier))
		}
		if *listen != "" {
			if err := checkListenAddr(*listen); err != nil {
				usage(err)
			}
		}
		if *external && *listen == "" {
			usage(fmt.Errorf("-external needs -listen: operator-launched nodes must know where to dial"))
		}
		if *algo != "dima" {
			usage(fmt.Errorf("-engine tcp requires -algo dima"))
		}
		if *showTr || *traceOut != "" || *pprofAddr != "" {
			usage(fmt.Errorf("-trace, -trace-out, and -pprof need in-process automaton hooks; they do not combine with -engine tcp"))
		}
		if *mutate != "" {
			usage(fmt.Errorf("-mutate repairs in-process; it does not combine with -engine tcp"))
		}
	}
	switch *rule {
	case "lowest":
		opt.ColorRule = core.LowestFirst
	case "random":
		opt.ColorRule = core.RandomAvailable
	default:
		usage(fmt.Errorf("unknown color rule %q", *rule))
	}
	if *strong && *algo != "dima" {
		usage(fmt.Errorf("-strong requires -algo dima"))
	}
	if (*dropP != 0 || *recover) && *algo != "dima" {
		usage(fmt.Errorf("-drop and -recover require -algo dima"))
	}
	if !(*dropP >= 0 && *dropP < 1) { // negated so that NaN fails too
		usage(fmt.Errorf("-drop wants a probability in [0, 1), got %g", *dropP))
	}
	if *mutate != "" && (*strong || *algo != "dima" || *reps > 1) {
		usage(fmt.Errorf("-mutate requires -algo dima without -strong or -reps"))
	}
	if *maintain && *mutate == "" {
		usage(fmt.Errorf("-maintain requires -mutate: maintenance acts on the mutated coloring"))
	}

	g, err := readGraph(*in)
	if err != nil {
		fatal(err)
	}
	if *dropP > 0 {
		opt.Fault = net.DropRate{Seed: *seed, P: *dropP}
	}
	if *recover {
		opt.Recovery = automaton.Recovery{Enabled: true}
	}
	if (*metricsOut != "" || *traceOut != "" || *pprofAddr != "") && *algo != "dima" {
		usage(fmt.Errorf("-metrics-out, -trace-out, and -pprof require -algo dima"))
	}

	var rec *trace.Recorder
	if *showTr || *traceOut != "" {
		rec = trace.NewRecorder(0)
	}
	var reg *metrics.Registry
	if *pprofAddr != "" {
		reg = metrics.NewRegistry()
		ds, err := metrics.StartDebugServer(*pprofAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "dimacolor: pprof and /metrics at http://%s\n", ds.Addr())
	}
	var jsonl *metrics.JSONLWriter
	var sinks []metrics.Sink
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		jsonl = metrics.NewJSONLWriter(f)
		sinks = append(sinks, jsonl)
	}
	if reg != nil {
		sinks = append(sinks, metrics.NewRoundAggregator(reg))
	}
	opt.Metrics = metrics.Multi(sinks...)
	var hooks []automaton.Hook
	if rec != nil {
		hooks = append(hooks, rec.Hook())
	}
	if reg != nil {
		hooks = append(hooks, metrics.StateCountHook(reg))
	}
	opt.Hook = metrics.ChainHooks(hooks...)

	var d *graph.Digraph
	kind := "edge"
	if *strong {
		kind = "arc"
		d = graph.NewSymmetric(g)
	}
	if *reps > 1 {
		if *jsonOut != "" || *showTr || *metricsOut != "" || *traceOut != "" {
			usage(fmt.Errorf("-reps does not combine with -json, -trace, -metrics-out, or -trace-out"))
		}
		if *algo == "tree" {
			usage(fmt.Errorf("-reps supports dima and simple algorithms"))
		}
		runStats(g, d, opt, *algo, *reps)
		return
	}
	res, err := colorOnce(g, d, *algo, opt)
	if err != nil {
		fatal(err)
	}

	if !*noVerify {
		violations := check(g, d, res.Colors)
		for _, v := range violations {
			if v.Kind == "uncolored" && !res.Terminated {
				continue
			}
			// Without recovery, dropped deliveries legitimately corrupt the
			// coloring; report instead of failing so the damage is visible.
			if *dropP > 0 && !*recover {
				fmt.Printf("verification: %d violations (expected: -drop %g without -recover)\n",
					len(violations), *dropP)
				break
			}
			fatal(fmt.Errorf("verification failed: %v", v))
		}
	}

	delta := g.MaxDegree()
	fmt.Printf("graph: n=%d m=%d Δ=%d\n", g.N(), g.M(), delta)
	alg := "algorithm 1 (edge coloring)"
	if *strong {
		alg = "algorithm 2 (strong distance-2 coloring)"
	} else if *algo != "dima" {
		alg = *algo + " (baseline)"
	}
	fmt.Printf("run:   %s, seed=%d, engine=%s, rule=%s\n", alg, *seed, *engine, *rule)
	fmt.Printf("result: colors=%d maxColor=%d rounds=%d commRounds=%d messages=%d terminated=%v\n",
		res.NumColors, res.MaxColor, res.CompRounds, res.CommRounds, res.Messages, res.Terminated)
	if delta > 0 {
		fmt.Printf("quality: colors-Δ=%+d rounds/Δ=%.2f\n", res.NumColors-delta,
			float64(res.CompRounds)/float64(delta))
	}
	if res.ConflictsDropped > 0 {
		fmt.Printf("confirm exchange dropped %d tentative claims\n", res.ConflictsDropped)
	}
	if *dropP > 0 || *recover {
		fmt.Printf("faults: drop=%g recovery=%v halfColored=%d retransmits=%d repairs=%d reverts=%d probes=%d\n",
			*dropP, *recover, res.HalfColored, res.Retransmits, res.Repairs, res.Reverts, res.Probes)
	}

	// -mutate: stream the text mutation list through the dynamic
	// recolorer and repair incrementally instead of recoloring. The run's
	// own graph and coloring stay intact; the mutated state takes over
	// the -json output (compacted, so the file has no removal holes).
	var mrec *dynamic.Recolorer
	if *mutate != "" {
		if !res.Terminated {
			fatal(fmt.Errorf("-mutate needs a complete coloring; run truncated at %d rounds", res.CompRounds))
		}
		mf, err := os.Open(*mutate)
		if err != nil {
			fatal(err)
		}
		b, err := graphio.ReadMutations(mf)
		mf.Close()
		if err != nil {
			fatal(err)
		}
		mrec, err = dynamic.New(g.Clone(), append([]int(nil), res.Colors...), dynamic.Options{
			Seed:   *seed,
			Repair: core.Options{Engine: opt.Engine, Workers: opt.Workers},
		})
		if err != nil {
			fatal(err)
		}
		mrep, err := mrec.Apply(b)
		if err != nil {
			fatal(err)
		}
		if !*noVerify {
			if v := verify.EdgeColoring(mrec.Graph(), mrec.Colors()); len(v) != 0 {
				fatal(fmt.Errorf("mutated coloring failed verification: %v", v[0]))
			}
		}
		fmt.Printf("mutate: %s: +%d -%d, greedy=%d repaired=%d repairRounds=%d region=%dv/%de\n",
			*mutate, mrep.Inserted, mrep.Deleted, mrep.GreedyColored,
			mrep.RepairedEdges, mrep.RepairRounds, mrep.RegionSize, mrep.RegionEdges)
		fmt.Printf("mutated: m=%d colors=%d maxColor=%d\n",
			mrec.Graph().M(), mrec.NumColors(), mrec.MaxColor())

		// -maintain: a forced pass, so a one-shot CLI run always shows the
		// compaction and rebalance outcome instead of depending on whether
		// this particular edit list tripped an automatic trigger.
		if *maintain {
			pre := mrec.Graph().EdgeIDBound()
			srep, err := mrec.Maintain(context.Background(),
				dynamic.MaintainOptions{Force: true})
			if err != nil {
				fatal(err)
			}
			if !*noVerify {
				if v := verify.EdgeColoring(mrec.Graph(), mrec.Colors()); len(v) != 0 {
					fatal(fmt.Errorf("maintained coloring failed verification: %v", v[0]))
				}
			}
			fmt.Printf("maintain: compacted=%v holes=%d (idBound %d -> %d) rebalanced=%v evicted=%d (greedy=%d repair=%d fallback=%d)\n",
				srep.Compacted, srep.HolesReclaimed, pre, srep.EdgeIDBound,
				srep.Rebalanced, srep.Evicted, srep.GreedyMoved, srep.RepairMoved, srep.FallbackMoved)
			fmt.Printf("maintained: m=%d colors=%d maxColor=%d target=%d (2Δ−1, Δ=%d)\n",
				mrec.Graph().M(), mrec.NumColors(), mrec.MaxColor(), srep.Target, srep.Delta)
		}
	}

	if *showTr {
		fmt.Println("\nautomaton timelines:")
		fmt.Print(rec.Timeline())
		if err := rec.Validate(); err != nil {
			fatal(err)
		}
	}

	if jsonl != nil {
		if err := jsonl.Flush(); err != nil {
			fatal(err)
		}
		fmt.Printf("telemetry: %d rounds -> %s\n", jsonl.Rounds(), *metricsOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.ChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d events -> %s (load at ui.perfetto.dev)\n", rec.Len(), *traceOut)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		outG, outColors, numColors := g, res.Colors, res.NumColors
		if mrec != nil {
			cg, cc := mrec.Compacted()
			outG, outColors, numColors = cg, cc, mrec.NumColors()
		}
		c := &graphio.Coloring{
			Kind: kind, N: outG.N(), M: outG.M(), Colors: outColors,
			Meta: map[string]string{
				"seed":   strconv.FormatUint(*seed, 10),
				"rounds": strconv.Itoa(res.CompRounds),
				"colors": strconv.Itoa(numColors),
			},
		}
		if err := graphio.WriteColoring(f, c); err != nil {
			fatal(err)
		}
	}
}

// colorOnce runs one coloring of g with the selected algorithm: for
// -strong, Algorithm 2 on d, the symmetric digraph of g; otherwise
// Algorithm 1 or a baseline on g. Baseline results are reported in
// core.Result terms.
func colorOnce(g *graph.Graph, d *graph.Digraph, algo string, opt core.Options) (*core.Result, error) {
	switch {
	case d != nil:
		return core.ColorStrong(d, opt)
	case algo == "dima":
		return core.ColorEdges(g, opt)
	case algo == "simple":
		sres, err := mpr.Color(g, mpr.Options{Seed: opt.Seed, Engine: opt.Engine, MaxRounds: opt.MaxCompRounds})
		if err != nil {
			return nil, err
		}
		res := &core.Result{
			Colors: sres.Colors, NumColors: sres.NumColors,
			CompRounds: sres.Rounds, CommRounds: sres.CommRounds,
			Messages: sres.Messages, Terminated: sres.Terminated,
		}
		res.MaxColor = -1
		for _, c := range sres.Colors {
			if c > res.MaxColor {
				res.MaxColor = c
			}
		}
		return res, nil
	case algo == "tree":
		tres, err := baseline.TreeWave(g, opt.Engine)
		if err != nil {
			return nil, err
		}
		distinct, maxc := verify.CountColors(tres.Colors)
		return &core.Result{
			Colors: tres.Colors, NumColors: distinct, MaxColor: maxc,
			CompRounds: tres.Rounds, CommRounds: tres.Rounds,
			Messages: tres.Messages, Terminated: tres.Terminated,
		}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

// check verifies a coloring: strong distance-2 on d when it is set,
// proper on g otherwise.
func check(g *graph.Graph, d *graph.Digraph, colors []int) []verify.Violation {
	if d != nil {
		return verify.StrongColoring(d, colors)
	}
	return verify.EdgeColoring(g, colors)
}

// runStats executes the selected algorithm across consecutive seeds and
// prints round/color statistics — the quick way to see a graph's typical
// behavior rather than a single sample.
func runStats(g *graph.Graph, d *graph.Digraph, opt core.Options, algo string, reps int) {
	var rounds, colors, msgs stats.Online
	for i := 0; i < reps; i++ {
		o := opt
		o.Seed = opt.Seed + uint64(i)
		res, err := colorOnce(g, d, algo, o)
		if err != nil {
			fatal(err)
		}
		if !res.Terminated {
			fatal(fmt.Errorf("seed %d did not terminate", o.Seed))
		}
		if v := check(g, d, res.Colors); len(v) != 0 {
			fatal(fmt.Errorf("seed %d: %v", o.Seed, v[0]))
		}
		rounds.Add(float64(res.CompRounds))
		colors.Add(float64(res.NumColors))
		msgs.Add(float64(res.Messages))
	}
	delta := g.MaxDegree()
	fmt.Printf("graph: n=%d m=%d Δ=%d\n", g.N(), g.M(), delta)
	fmt.Printf("%d runs (seeds %d..%d), all verified:\n", reps, opt.Seed, opt.Seed+uint64(reps)-1)
	fmt.Printf("rounds: mean %.1f  sd %.1f  min %.0f  max %.0f", rounds.Mean(), rounds.Std(), rounds.Min(), rounds.Max())
	if delta > 0 {
		fmt.Printf("  (%.2fΔ)", rounds.Mean()/float64(delta))
	}
	fmt.Println()
	fmt.Printf("colors: mean %.1f  sd %.1f  min %.0f  max %.0f", colors.Mean(), colors.Std(), colors.Min(), colors.Max())
	if delta > 0 {
		fmt.Printf("  (Δ%+.1f)", colors.Mean()-float64(delta))
	}
	fmt.Println()
	fmt.Printf("messages: mean %.0f\n", msgs.Mean())
}

// checkListenAddr rejects a malformed -listen value before any socket
// work: it must be host:port with a numeric port in [0, 65535] (port 0
// asks the kernel for a free one).
func checkListenAddr(addr string) error {
	host, port, err := stdnet.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-listen wants host:port, got %q: %v", addr, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 0 || p > 65535 {
		return fmt.Errorf("-listen wants a numeric port in [0, 65535], got %q", port)
	}
	_ = host // an empty host means all interfaces; any name is resolved at bind time
	return nil
}

func readGraph(path string) (*graph.Graph, error) {
	if path == "" {
		return graphio.ReadGraph(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graphio.ReadGraph(f)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dimacolor: %v\n", err)
	os.Exit(1)
}

// usage reports a bad flag combination or value and exits 2, the
// conventional status for a usage error (runtime failures exit 1).
func usage(err error) {
	fmt.Fprintf(os.Stderr, "dimacolor: %v\n", err)
	os.Exit(2)
}
