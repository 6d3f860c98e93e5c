// Package experiment defines and runs the paper's evaluation (§IV):
// every figure is a grid of (graph family, size, density) cells, each
// run repeatedly with fresh random graphs; results aggregate into
// series of rounds-versus-Δ and color-quality censuses.
//
// The canonical experiments:
//
//	Fig3 — Algorithm 1 on Erdős–Rényi graphs (n ∈ {200,400}, avg degree
//	       {4,8,16}, 50 graphs per cell).
//	Fig4 — Algorithm 1 on scale-free graphs (n ∈ {100,400}, attachment
//	       weighting {0.5,1.0,1.5}, 50 per cell).
//	Fig5 — Algorithm 1 on small-world graphs (n ∈ {16,64,256}, sparse
//	       and dense lattices, 50 per cell).
//	Fig6 — Algorithm 2 on symmetric directed Erdős–Rényi graphs
//	       (n ∈ {200,400}, avg degree {4,8}, 50 per cell).
//
// Scale < 1 shrinks the repetition counts proportionally (minimum 2)
// for quick runs and benchmarks; scale 1 is the paper's full protocol.
//
// Alongside the figures the package holds the rest of the reproduction:
// the rounds-versus-Δ fits, the prior-work comparisons, convergence
// curves, the Proposition 1 pairing probability, and the message-loss
// sweep. Engine and service performance is measured by the separate
// bench module, not here.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/rng"
	"dima/internal/verify"
)

// Spec describes one experiment cell: how to build a graph and which
// algorithm to run on it.
type Spec struct {
	// Group labels the series this cell belongs to in reports.
	Group string
	// Make builds one random instance.
	Make func(r *rng.Rand) (*graph.Graph, error)
	// Strong selects Algorithm 2 on the symmetric digraph of the
	// instance; otherwise Algorithm 1 runs on the instance itself.
	Strong bool
	// Reps is the number of independent (graph, run) repetitions.
	Reps int
}

// Run is the outcome of one repetition.
type Run struct {
	Group      string
	Rep        int
	N, M       int
	Delta      int
	CompRounds int
	Colors     int
	MaxColor   int
	Messages   int64
	// PairRate is the aggregate fraction of (active node, round) pairs
	// that formed a pair — the empirical Equation (1) quantity.
	PairRate float64
}

// Config controls grid execution.
type Config struct {
	// Seed determines every graph and run in the grid.
	Seed uint64
	// Workers bounds parallel runs; 0 means GOMAXPROCS.
	Workers int
}

// RunGrid executes every (spec, rep) cell, in parallel, and returns the
// runs grouped in spec order (deterministic for a given seed regardless
// of worker count).
func RunGrid(specs []Spec, cfg Config) ([]Run, error) {
	return RunGridCtx(context.Background(), specs, cfg)
}

// RunGridCtx is RunGrid bounded by ctx: cancellation stops dispatching
// new cells, aborts in-flight runs at their next round barrier, and
// returns ctx's error. Completed cells are discarded — a sweep is only
// meaningful whole.
func RunGridCtx(ctx context.Context, specs []Spec, cfg Config) ([]Run, error) {
	type job struct {
		spec    int
		rep     int
		runSeed uint64
	}
	var jobs []job
	base := rng.New(cfg.Seed)
	for si, s := range specs {
		if s.Reps <= 0 {
			return nil, fmt.Errorf("experiment: spec %q has no repetitions", s.Group)
		}
		for rep := 0; rep < s.Reps; rep++ {
			jobs = append(jobs, job{spec: si, rep: rep,
				runSeed: base.Derive(uint64(si)).Derive(uint64(rep)).Uint64()})
		}
	}
	results := make([]Run, len(jobs))
	err := forEach(ctx, len(jobs), cfg.Workers, func(i int) (err error) {
		j := jobs[i]
		results[i], err = runOne(ctx, specs[j.spec], j.rep, j.runSeed)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// forEach runs job(0), …, job(n-1) on up to workers goroutines; 0
// means GOMAXPROCS. Canceling ctx stops dispatch and returns ctx's
// error. Otherwise it returns the error of the lowest failing index,
// so the outcome does not depend on the worker count.
func forEach(ctx context.Context, n, workers int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		select {
		case ch <- i:
		case <-ctx.Done():
		}
	}
	close(ch)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// color runs Algorithm 1 on g or, when strong, Algorithm 2 on g's
// symmetric digraph. check verifies the coloring: proper for
// Algorithm 1, strong distance-2 for Algorithm 2.
func color(ctx context.Context, g *graph.Graph, strong bool, opt core.Options) (res *core.Result, check func() []verify.Violation, err error) {
	if strong {
		d := graph.NewSymmetric(g)
		res, err = core.ColorStrongCtx(ctx, d, opt)
		return res, func() []verify.Violation { return verify.StrongColoring(d, res.Colors) }, err
	}
	res, err = core.ColorEdgesCtx(ctx, g, opt)
	return res, func() []verify.Violation { return verify.EdgeColoring(g, res.Colors) }, err
}

func runOne(ctx context.Context, spec Spec, rep int, seed uint64) (Run, error) {
	gr := rng.New(seed)
	g, err := spec.Make(gr)
	if err != nil {
		return Run{}, fmt.Errorf("experiment: %s rep %d: %v", spec.Group, rep, err)
	}
	// Each run reads its pair rate from its own metrics stream.
	mem := &metrics.Memory{}
	res, _, err := color(ctx, g, spec.Strong, core.Options{Seed: gr.Uint64(), Metrics: mem})
	if err != nil {
		return Run{}, fmt.Errorf("experiment: %s rep %d: %v", spec.Group, rep, err)
	}
	if res.Aborted {
		return Run{}, fmt.Errorf("experiment: %s rep %d: %w", spec.Group, rep, ctx.Err())
	}
	if !res.Terminated {
		return Run{}, fmt.Errorf("experiment: %s rep %d: run truncated at %d rounds",
			spec.Group, rep, res.CompRounds)
	}
	run := Run{
		Group: spec.Group, Rep: rep,
		N: g.N(), M: g.M(), Delta: g.MaxDegree(),
		CompRounds: res.CompRounds,
		Colors:     res.NumColors,
		MaxColor:   res.MaxColor,
		Messages:   res.Messages,
	}
	var active, paired int
	for _, rs := range mem.Rounds {
		active += rs.Active
		paired += rs.Paired
	}
	if active > 0 {
		run.PairRate = float64(paired) / float64(active)
	}
	return run, nil
}

// reps scales a full protocol's repetition count, with a floor of 2.
func reps(full int, scale float64) int {
	return max(int(float64(full)*scale+0.5), 2)
}

// Fig3Specs returns the §IV-A grid: Algorithm 1 on Erdős–Rényi graphs.
func Fig3Specs(scale float64) []Spec {
	var specs []Spec
	for _, n := range []int{200, 400} {
		for _, deg := range []float64{4, 8, 16} {
			n, deg := n, deg
			specs = append(specs, Spec{
				Group: fmt.Sprintf("er n=%d deg=%g", n, deg),
				Make: func(r *rng.Rand) (*graph.Graph, error) {
					return gen.ErdosRenyiAvgDegree(r, n, deg)
				},
				Reps: reps(50, scale),
			})
		}
	}
	return specs
}

// Fig4Specs returns the §IV-B grid: Algorithm 1 on scale-free graphs
// with increasingly disparate attachment weighting.
func Fig4Specs(scale float64) []Spec {
	var specs []Spec
	for _, n := range []int{100, 400} {
		for _, power := range []float64{0.5, 1.0, 1.5} {
			n, power := n, power
			specs = append(specs, Spec{
				Group: fmt.Sprintf("sf n=%d power=%g", n, power),
				Make: func(r *rng.Rand) (*graph.Graph, error) {
					return gen.BarabasiAlbert(r, n, 2, power)
				},
				Reps: reps(50, scale),
			})
		}
	}
	return specs
}

// Fig5Specs returns the §IV-C grid: Algorithm 1 on small-world graphs,
// sparse (k=2) and dense (k scaled so the dense 256-vertex cell reaches
// the paper's average Δ ≈ 44).
func Fig5Specs(scale float64) []Spec {
	var specs []Spec
	for _, n := range []int{16, 64, 256} {
		for _, dense := range []bool{false, true} {
			n, dense := n, dense
			k := 2
			label := "sparse"
			if dense {
				k = n/12 + 2
				label = "dense"
			}
			specs = append(specs, Spec{
				Group: fmt.Sprintf("sw n=%d %s", n, label),
				Make: func(r *rng.Rand) (*graph.Graph, error) {
					return gen.WattsStrogatz(r, n, k, 0.1)
				},
				Reps: reps(50, scale),
			})
		}
	}
	return specs
}

// Fig6Specs returns the §IV-D grid: Algorithm 2 on symmetric directed
// Erdős–Rényi graphs.
func Fig6Specs(scale float64) []Spec {
	var specs []Spec
	for _, n := range []int{200, 400} {
		for _, deg := range []float64{4, 8} {
			n, deg := n, deg
			specs = append(specs, Spec{
				Group: fmt.Sprintf("dir-er n=%d deg=%g", n, deg),
				Make: func(r *rng.Rand) (*graph.Graph, error) {
					return gen.ErdosRenyiAvgDegree(r, n, deg)
				},
				Strong: true,
				Reps:   reps(50, scale),
			})
		}
	}
	return specs
}
