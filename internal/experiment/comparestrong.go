package experiment

import (
	"context"
	"fmt"

	"dima/internal/baseline"
	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/mpr"
	"dima/internal/rng"
	"dima/internal/stats"
	"dima/internal/verify"
)

// StrongCompareRun is one algorithm's outcome on one symmetric digraph.
type StrongCompareRun struct {
	Algo       string
	Group      string
	Delta      int
	Rounds     int // -1 for centralized one-shot algorithms
	Channels   int
	LowerBound int
	Msgs       int64
}

// RunStrongComparison pits Algorithm 2 (DiMa2Ed) against the simple
// distributed strong-coloring baseline and the centralized greedy, on
// symmetric directed Erdős–Rényi instances, reporting channel counts
// against the structural lower bound.
func RunStrongComparison(seed uint64, n int, degs []float64, repsPerDeg, workers int) ([]StrongCompareRun, error) {
	if repsPerDeg <= 0 {
		return nil, fmt.Errorf("experiment: strong comparison needs at least one repetition")
	}
	base := rng.New(seed) // Derive only reads base, so jobs share it
	const algosPerJob = 3
	results := make([]StrongCompareRun, algosPerJob*len(degs)*repsPerDeg)
	err := forEach(context.TODO(), len(degs)*repsPerDeg, workers, func(i int) error {
		di, rep := i/repsPerDeg, i%repsPerDeg
		return strongCompareOne(degs[di], n, base.Derive(uint64(di)).Derive(uint64(rep)).Uint64(),
			results[algosPerJob*i:algosPerJob*(i+1)])
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

func strongCompareOne(deg float64, n int, seed uint64, out []StrongCompareRun) error {
	r := rng.New(seed)
	g, err := gen.ErdosRenyiAvgDegree(r, n, deg)
	if err != nil {
		return err
	}
	d := graph.NewSymmetric(g)
	group := fmt.Sprintf("dir-er n=%d deg=%g", n, deg)
	delta := g.MaxDegree()
	lb := verify.StrongLowerBound(d)

	dimaRes, err := core.ColorStrong(d, core.Options{Seed: r.Uint64()})
	if err != nil {
		return err
	}
	if !dimaRes.Terminated {
		return fmt.Errorf("experiment: dima2ed run truncated")
	}
	if v := verify.StrongColoring(d, dimaRes.Colors); len(v) != 0 {
		return fmt.Errorf("experiment: dima2ed invalid: %v", v[0])
	}
	out[0] = StrongCompareRun{Algo: "dima2ed (alg 2)", Group: group, Delta: delta,
		Rounds: dimaRes.CompRounds, Channels: dimaRes.NumColors, LowerBound: lb, Msgs: dimaRes.Messages}

	simple, err := mpr.StrongColor(d, mpr.Options{Seed: r.Uint64()})
	if err != nil {
		return err
	}
	if !simple.Terminated {
		return fmt.Errorf("experiment: simple-strong run truncated")
	}
	if v := verify.StrongColoring(d, simple.Colors); len(v) != 0 {
		return fmt.Errorf("experiment: simple-strong invalid: %v", v[0])
	}
	out[1] = StrongCompareRun{Algo: "simple-strong", Group: group, Delta: delta,
		Rounds: simple.Rounds, Channels: simple.NumColors, LowerBound: lb, Msgs: simple.Messages}

	greedy := baseline.GreedyStrongColoring(d)
	if v := verify.StrongColoring(d, greedy); len(v) != 0 {
		return fmt.Errorf("experiment: greedy strong invalid: %v", v[0])
	}
	distinct, _ := verify.CountColors(greedy)
	out[2] = StrongCompareRun{Algo: "greedy (central)", Group: group, Delta: delta,
		Rounds: -1, Channels: distinct, LowerBound: lb}
	return nil
}

// StrongComparisonTable aggregates strong-comparison runs.
func StrongComparisonTable(runs []StrongCompareRun) *stats.Table {
	type key struct{ algo, group string }
	var order []key
	acc := map[key]*struct {
		delta, rounds, channels, lb, msgs stats.Online
		roundless                         bool
	}{}
	for _, r := range runs {
		k := key{r.Algo, r.Group}
		a, ok := acc[k]
		if !ok {
			a = &struct {
				delta, rounds, channels, lb, msgs stats.Online
				roundless                         bool
			}{}
			acc[k] = a
			order = append(order, k)
		}
		a.delta.Add(float64(r.Delta))
		if r.Rounds >= 0 {
			a.rounds.Add(float64(r.Rounds))
		} else {
			a.roundless = true
		}
		a.channels.Add(float64(r.Channels))
		a.lb.Add(float64(r.LowerBound))
		a.msgs.Add(float64(r.Msgs))
	}
	t := stats.NewTable("algorithm", "group", "Δ mean", "rounds", "rounds/Δ", "channels", "lower bound", "msgs")
	for _, k := range order {
		a := acc[k]
		rounds, perDelta := "-", "-"
		if !a.roundless {
			rounds = fmt.Sprintf("%.1f", a.rounds.Mean())
			if a.delta.Mean() > 0 {
				perDelta = fmt.Sprintf("%.2f", a.rounds.Mean()/a.delta.Mean())
			}
		}
		t.AddRow(k.algo, k.group, a.delta.Mean(), rounds, perDelta,
			a.channels.Mean(), a.lb.Mean(), int64(a.msgs.Mean()))
	}
	return t
}
