package experiment

import (
	"context"
	"fmt"
	"sort"

	"dima/internal/automaton"
	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/stats"
)

// This file implements the fault sweep: both algorithms run under a
// uniform per-delivery drop rate P, with and without the recovery layer
// (docs/ROBUSTNESS.md), measuring completeness (did the run converge to
// a complete valid coloring?) and round overhead versus the fault-free
// baseline. The paper assumes reliable delivery; this experiment
// quantifies what that assumption is worth and what recovery costs.

// FaultRun is the outcome of one repetition of the fault sweep.
type FaultRun struct {
	Algorithm string // "alg1" (edge coloring) or "alg2" (strong)
	DropP     float64
	Recovery  bool
	Rep       int
	N, M      int

	Terminated bool
	// Complete reports full success: the run terminated, no edge or arc
	// was left half-colored, and the coloring verifies (proper edge
	// coloring for alg1, strong distance-2 coloring for alg2).
	Complete    bool
	HalfColored int
	Violations  int

	CompRounds int
	Colors     int
	Messages   int64

	Retransmits, Repairs, Reverts, Probes int
}

// FaultConfig parameterizes FaultSweep. The zero value is not runnable;
// use DefaultFaultConfig as a starting point.
type FaultConfig struct {
	// Seed determines every graph, run, and fault pattern in the sweep.
	Seed uint64
	// N and Deg shape the Erdős–Rényi instances.
	N   int
	Deg float64
	// Drops is the grid of per-delivery drop probabilities; include 0 to
	// anchor the overhead baseline.
	Drops []float64
	// Reps is the number of repetitions per (algorithm, drop, recovery)
	// cell. Repetition i uses the same graph in every cell, so the arms
	// are paired.
	Reps int
	// Workers bounds parallel runs; 0 means GOMAXPROCS.
	Workers int
	// MaxCompRounds truncates runs that fail to converge (without
	// recovery, any lost negotiation strands the run); 0 means 3000.
	MaxCompRounds int
}

// DefaultFaultConfig returns the standard sweep: ER n=120 deg=8 under
// drop rates {0, 2, 5, 10, 20}%, scale-adjusted repetitions.
func DefaultFaultConfig(seed uint64, scale float64) FaultConfig {
	return FaultConfig{
		Seed:  seed,
		N:     120,
		Deg:   8,
		Drops: []float64{0, 0.02, 0.05, 0.1, 0.2},
		Reps:  reps(20, scale),
	}
}

func (c FaultConfig) maxCompRounds() int {
	if c.MaxCompRounds <= 0 {
		return 3000
	}
	return c.MaxCompRounds
}

// FaultSweep runs the full grid — {alg1, alg2} × Drops × {recovery off,
// on} × Reps — in parallel and returns the runs in deterministic order
// (independent of worker count).
func FaultSweep(cfg FaultConfig) ([]FaultRun, error) {
	return FaultSweepCtx(context.Background(), cfg)
}

// FaultSweepCtx is FaultSweep bounded by ctx: cancellation stops
// dispatching new cells, aborts in-flight runs at their next round
// barrier, and returns ctx's error.
func FaultSweepCtx(ctx context.Context, cfg FaultConfig) ([]FaultRun, error) {
	if cfg.N <= 0 || cfg.Deg <= 0 || cfg.Reps <= 0 || len(cfg.Drops) == 0 {
		return nil, fmt.Errorf("experiment: fault sweep config incomplete: %+v", cfg)
	}
	type job struct {
		alg      string
		dropP    float64
		recovery bool
		rep      int
		// graphSeed and runSeed are shared by every arm of the same rep,
		// so arms compare paired on identical instances; faultSeed is
		// shared across the recovery on/off pair of the same (rep, P).
		graphSeed, runSeed, faultSeed uint64
	}
	base := rng.New(cfg.Seed)
	var jobs []job
	for rep := 0; rep < cfg.Reps; rep++ {
		repBase := base.Derive(uint64(rep))
		graphSeed := repBase.Derive(1).Uint64()
		runSeed := repBase.Derive(2).Uint64()
		for di, p := range cfg.Drops {
			faultSeed := repBase.Derive(3).Derive(uint64(di)).Uint64()
			for _, alg := range []string{"alg1", "alg2"} {
				for _, recov := range []bool{false, true} {
					jobs = append(jobs, job{
						alg: alg, dropP: p, recovery: recov, rep: rep,
						graphSeed: graphSeed, runSeed: runSeed, faultSeed: faultSeed,
					})
				}
			}
		}
	}
	results := make([]FaultRun, len(jobs))
	err := forEach(ctx, len(jobs), cfg.Workers, func(i int) (err error) {
		j := jobs[i]
		g, err := gen.ErdosRenyiAvgDegree(rng.New(j.graphSeed), cfg.N, cfg.Deg)
		if err != nil {
			return fmt.Errorf("experiment: fault sweep rep %d: %v", j.rep, err)
		}
		opt := core.Options{Seed: j.runSeed, MaxCompRounds: cfg.maxCompRounds()}
		if j.dropP > 0 {
			opt.Fault = net.DropRate{Seed: j.faultSeed, P: j.dropP}
		}
		if j.recovery {
			opt.Recovery = automaton.Recovery{Enabled: true}
		}
		results[i], err = runFaultOne(ctx, g, j.alg, j.dropP, j.recovery, j.rep, opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

func runFaultOne(ctx context.Context, g *graph.Graph, alg string, dropP float64, recovery bool, rep int, opt core.Options) (FaultRun, error) {
	res, check, err := color(ctx, g, alg == "alg2", opt)
	if err == nil && res.Aborted {
		err = ctx.Err()
	}
	if err != nil {
		return FaultRun{}, fmt.Errorf("experiment: fault sweep %s rep %d P=%g: %v", alg, rep, dropP, err)
	}
	violations := check()
	return FaultRun{
		Algorithm: alg, DropP: dropP, Recovery: recovery, Rep: rep,
		N: g.N(), M: g.M(),
		Terminated:  res.Terminated,
		Complete:    res.Terminated && res.HalfColored == 0 && len(violations) == 0,
		HalfColored: res.HalfColored,
		Violations:  len(violations),
		CompRounds:  res.CompRounds,
		Colors:      res.NumColors,
		Messages:    res.Messages,
		Retransmits: res.Retransmits, Repairs: res.Repairs,
		Reverts: res.Reverts, Probes: res.Probes,
	}, nil
}

// FaultCell aggregates one (algorithm, drop rate, recovery) cell of the
// sweep.
type FaultCell struct {
	Algorithm string
	DropP     float64
	Recovery  bool
	Reps      int

	// CompleteFrac is the fraction of repetitions that converged to a
	// complete valid coloring.
	CompleteFrac float64
	// RoundOverhead is MeanRounds divided by the same arm's P=0 mean —
	// the round cost of operating at this loss rate (0 when the sweep has
	// no P=0 anchor).
	RoundOverhead float64

	MeanRounds, MeanColors, MeanMessages float64
	MeanHalfColored, MeanViolations      float64
	MeanRetransmits, MeanRepairs         float64
	MeanReverts, MeanProbes              float64
}

// FaultCells folds runs into per-cell aggregates, ordered by algorithm,
// then recovery arm, then drop rate.
func FaultCells(runs []FaultRun) []FaultCell {
	type key struct {
		alg      string
		dropP    float64
		recovery bool
	}
	acc := map[key][]FaultRun{}
	var order []key
	for _, r := range runs {
		k := key{r.Algorithm, r.DropP, r.Recovery}
		if _, ok := acc[k]; !ok {
			order = append(order, k)
		}
		acc[k] = append(acc[k], r)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.alg != b.alg {
			return a.alg < b.alg
		}
		if a.recovery != b.recovery {
			return !a.recovery
		}
		return a.dropP < b.dropP
	})
	// Fault-free anchors for the overhead ratio, per (algorithm, arm).
	baseline := map[[2]string]float64{}
	armKey := func(alg string, recovery bool) [2]string {
		arm := "off"
		if recovery {
			arm = "on"
		}
		return [2]string{alg, arm}
	}
	cells := make([]FaultCell, 0, len(order))
	for _, k := range order {
		rs := acc[k]
		c := FaultCell{Algorithm: k.alg, DropP: k.dropP, Recovery: k.recovery, Reps: len(rs)}
		var complete int
		for _, r := range rs {
			if r.Complete {
				complete++
			}
			c.MeanRounds += float64(r.CompRounds)
			c.MeanColors += float64(r.Colors)
			c.MeanMessages += float64(r.Messages)
			c.MeanHalfColored += float64(r.HalfColored)
			c.MeanViolations += float64(r.Violations)
			c.MeanRetransmits += float64(r.Retransmits)
			c.MeanRepairs += float64(r.Repairs)
			c.MeanReverts += float64(r.Reverts)
			c.MeanProbes += float64(r.Probes)
		}
		n := float64(len(rs))
		c.CompleteFrac = float64(complete) / n
		c.MeanRounds /= n
		c.MeanColors /= n
		c.MeanMessages /= n
		c.MeanHalfColored /= n
		c.MeanViolations /= n
		c.MeanRetransmits /= n
		c.MeanRepairs /= n
		c.MeanReverts /= n
		c.MeanProbes /= n
		if k.dropP == 0 {
			baseline[armKey(k.alg, k.recovery)] = c.MeanRounds
		}
		cells = append(cells, c)
	}
	for i := range cells {
		if b := baseline[armKey(cells[i].Algorithm, cells[i].Recovery)]; b > 0 {
			cells[i].RoundOverhead = cells[i].MeanRounds / b
		}
	}
	return cells
}

// FaultTable renders the sweep: one row per cell, completeness and
// overhead first, then the recovery activity that bought them.
func FaultTable(cells []FaultCell) *stats.Table {
	t := stats.NewTable("alg", "recovery", "dropP", "complete", "rounds", "xP0",
		"half", "invalid", "colors", "messages", "retx", "repair", "revert", "probe")
	for _, c := range cells {
		arm := "off"
		if c.Recovery {
			arm = "on"
		}
		overhead := "-"
		if c.RoundOverhead > 0 {
			overhead = fmt.Sprintf("%.2f", c.RoundOverhead)
		}
		t.AddRow(c.Algorithm, arm, fmt.Sprintf("%.0f%%", 100*c.DropP),
			fmt.Sprintf("%.0f%%", 100*c.CompleteFrac),
			fmt.Sprintf("%.1f", c.MeanRounds), overhead,
			fmt.Sprintf("%.1f", c.MeanHalfColored),
			fmt.Sprintf("%.1f", c.MeanViolations),
			fmt.Sprintf("%.1f", c.MeanColors),
			fmt.Sprintf("%.0f", c.MeanMessages),
			fmt.Sprintf("%.1f", c.MeanRetransmits),
			fmt.Sprintf("%.1f", c.MeanRepairs),
			fmt.Sprintf("%.1f", c.MeanReverts),
			fmt.Sprintf("%.1f", c.MeanProbes))
	}
	return t
}
