package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

// engineWorkload is a closed-loop coloring workload: one caller makes one
// coloring call at a time, a warm-up call is discarded, and timed calls
// follow until the run's time is spent.
type engineWorkload struct {
	name   string
	strong bool // Algorithm 2 on the symmetric digraph; Algorithm 1 otherwise
	n      int
	deg    float64 // Erdős–Rényi average degree
	// nodes, when positive, runs the TCP engine with this many spawned
	// node processes instead of the shard engine with one worker.
	nodes int
	// inputs is how many graphs a run builds, each timed as set-up. The
	// timed calls cycle over them and stop at the end of a cycle, so every
	// graph weighs the same in the run's median.
	inputs int
}

// engineWorkloads are the three engine workloads. Why each exists is in
// README.md; in short, edge-er is the shard engine's Algorithm 1 hot
// path, strong-er the same path under Algorithm 2's four phases and
// larger inboxes, and edge-tcp the codec, frame and coordinator layers
// that no other workload reaches.
var engineWorkloads = []engineWorkload{
	{name: "edge-er", n: 62_500, deg: 8, inputs: 3},
	{name: "strong-er", strong: true, n: 10_000, deg: 8, inputs: 3},
	{name: "edge-tcp", n: 12_500, deg: 8, nodes: 1, inputs: 3},
}

// instance is one built input.
type instance struct {
	g *graph.Graph
	d *graph.Digraph // Algorithm 2 only
	// delta is Δ; lb is the fewest colors any valid coloring needs as far
	// as the instance shows: Δ for Algorithm 1, verify.StrongLowerBound
	// for Algorithm 2.
	delta, lb int
}

// build generates graph k of the workload; it returns the generator's
// time and NewSymmetric's time separately.
//
// The graphs of a workload are a fixed set: graph k is generated from
// seed k+1 whatever the run's seed, which picks the coloring seeds. Δ,
// and the round count with it, differs by about ten percent between
// random graphs of one size; graphs drawn per run would hide smaller
// regressions behind that spread.
func (w engineWorkload) build(k int) (instance, time.Duration, time.Duration, error) {
	t := time.Now()
	g, err := gen.ErdosRenyiAvgDegree(rng.New(uint64(k)+1), w.n, w.deg)
	if err != nil {
		return instance{}, 0, 0, err
	}
	genDur := time.Since(t)
	in := instance{g: g, delta: g.MaxDegree(), lb: g.MaxDegree()}
	var symDur time.Duration
	if w.strong {
		t = time.Now()
		in.d = graph.NewSymmetric(g)
		symDur = time.Since(t)
		in.lb = verify.StrongLowerBound(in.d)
	}
	return in, genDur, symDur, nil
}

// colorSeed derives the coloring seed of call i of a run.
func colorSeed(seed uint64, i int) uint64 {
	return rng.New(seed).Derive(1<<32 + uint64(i)).Uint64()
}

// options configures one untraced call the way the workload defines it.
// The shard engine runs one worker, as end-to-end runs are
// single-threaded (README.md, "One CPU").
func (w engineWorkload) options(seed uint64) core.Options {
	if w.nodes > 0 {
		return core.Options{Seed: seed, Cluster: &net.TCPCluster{Nodes: w.nodes}}
	}
	return shardOptions(seed, 1)
}

func shardOptions(seed uint64, workers int) core.Options {
	return core.Options{Seed: seed, Engine: net.RunShard, Workers: workers}
}

func (w engineWorkload) color(in instance, opt core.Options) (*core.Result, error) {
	if w.strong {
		return core.ColorStrong(in.d, opt)
	}
	return core.ColorEdges(in.g, opt)
}

// call is one timed coloring call with the process-wide allocation
// counters read around it.
type call struct {
	res     *core.Result
	wall    time.Duration
	bytes   uint64 // bytes allocated
	mallocs uint64 // heap objects allocated
}

func (w engineWorkload) timed(in instance, opt core.Options) (call, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	res, err := w.color(in, opt)
	wall := time.Since(t)
	runtime.ReadMemStats(&m1)
	return call{res: res, wall: wall, bytes: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs}, err
}

// check is the correctness gate every coloring passes: the run
// terminated, the coloring is valid for its algorithm, and Algorithm 1
// stayed within 2Δ−1 colors.
func (w engineWorkload) check(in instance, res *core.Result) error {
	if !res.Terminated {
		return errors.New("run did not terminate")
	}
	var v []verify.Violation
	if w.strong {
		v = verify.StrongColoring(in.d, res.Colors)
	} else {
		v = verify.EdgeColoring(in.g, res.Colors)
		if res.NumColors > 2*in.delta-1 {
			return fmt.Errorf("%d colors exceed 2Δ-1 = %d", res.NumColors, 2*in.delta-1)
		}
	}
	if len(v) > 0 {
		return fmt.Errorf("invalid coloring: %d violations, first %v", len(v), v[0])
	}
	return nil
}

// sameColoring is the element-wise cross-check between two runs of one
// seed on different engines.
func sameColoring(a, b *core.Result) error {
	if !slices.Equal(a.Colors, b.Colors) {
		return errors.New("colorings differ")
	}
	if a.CommRounds != b.CommRounds || a.Messages != b.Messages {
		return fmt.Errorf("runs differ: %d/%d rounds, %d/%d messages", a.CommRounds, b.CommRounds, a.Messages, b.Messages)
	}
	return nil
}

// run measures the workload's end-to-end metrics.
func (w engineWorkload) run(seed uint64, budget time.Duration) (*runResult, error) {
	rr := &runResult{Workload: w.name, Seed: seed}
	ins := make([]instance, w.inputs)
	setup := make([]float64, w.inputs)
	for k := range ins {
		in, genDur, symDur, err := w.build(k)
		if err != nil {
			return nil, err
		}
		ins[k], setup[k] = in, (genDur + symDur).Seconds()
	}
	if _, err := w.color(ins[0], w.options(colorSeed(seed, -1))); err != nil {
		return nil, fmt.Errorf("warm-up call: %w", err)
	}

	type rep struct {
		in   instance
		seed uint64
		res  *core.Result
	}
	var reps []rep
	var ms, mb []float64
	start := time.Now()
	for i := 0; i%len(ins) != 0 || time.Since(start) < budget; i++ {
		in, s := ins[i%len(ins)], colorSeed(seed, i)
		rr.Attempted++
		c, err := w.timed(in, w.options(s))
		if err != nil {
			rr.fail("call %d: %v", i, err)
			continue
		}
		reps = append(reps, rep{in, s, c.res})
		ms = append(ms, float64(c.wall.Nanoseconds())/1e6)
		mb = append(mb, float64(c.bytes)/1e6)
	}

	// The gates run after the clock stops.
	var colorsPerLB, roundsPerDelta []float64
	for i, r := range reps {
		if err := w.check(r.in, r.res); err != nil {
			rr.fail("call %d: %v", i, err)
			continue
		}
		colorsPerLB = append(colorsPerLB, float64(r.res.NumColors)/float64(r.in.lb))
		roundsPerDelta = append(roundsPerDelta, float64(r.res.CompRounds)/float64(r.in.delta))
	}
	if w.nodes > 0 && len(reps) > 0 {
		ref, err := w.color(reps[0].in, shardOptions(reps[0].seed, w.nodes))
		if err == nil {
			err = sameColoring(reps[0].res, ref)
		}
		if err != nil {
			rr.fail("tcp cross-check against the shard engine: %v", err)
		}
	}

	rr.add("setup_s", "s", quantile(setup, 0.5), len(setup))
	rr.add("color_p10_ms", "ms", quantile(ms, 0.1), len(ms))
	rr.add("color_p50_ms", "ms", quantile(ms, 0.5), len(ms))
	rr.add("alloc_mb", "MB", quantile(mb, 0.5), len(mb))
	rr.add("colors_per_lb", "ratio", mean(colorsPerLB), len(colorsPerLB))
	rr.add("rounds_per_delta", "ratio", mean(roundsPerDelta), len(roundsPerDelta))
	return rr, nil
}
