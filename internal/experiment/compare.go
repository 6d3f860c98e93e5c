package experiment

import (
	"context"
	"fmt"

	"dima/internal/baseline"
	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/mpr"
	"dima/internal/rng"
	"dima/internal/stats"
	"dima/internal/verify"
)

// CompareRun is one algorithm's outcome on one instance.
type CompareRun struct {
	Algo   string
	Group  string
	Delta  int
	Rounds int // -1 where rounds are meaningless (centralized one-shot)
	Colors int
	Msgs   int64
}

// RunComparison pits Algorithm 1 against the cited prior-work baseline
// (the simple distributed algorithm of ref [10], package mpr), the
// idealized centralized matcher, and the centralized Misra–Gries Δ+1
// coloring, on Erdős–Rényi instances at the given average degrees.
// The trade the paper positions itself in becomes visible directly:
// DiMa spends ≈2Δ rounds for a Δ/Δ+1 palette; the simple algorithm
// finishes in O(log m) rounds but spreads over the 2Δ-1 palette.
func RunComparison(seed uint64, n int, degs []float64, repsPerDeg, workers int) ([]CompareRun, error) {
	if repsPerDeg <= 0 {
		return nil, fmt.Errorf("experiment: comparison needs at least one repetition")
	}
	base := rng.New(seed) // Derive only reads base, so jobs share it
	const algosPerJob = 4
	results := make([]CompareRun, algosPerJob*len(degs)*repsPerDeg)
	err := forEach(context.TODO(), len(degs)*repsPerDeg, workers, func(i int) error {
		di, rep := i/repsPerDeg, i%repsPerDeg
		return compareOne(degs[di], n, base.Derive(uint64(di)).Derive(uint64(rep)).Uint64(),
			results[algosPerJob*i:algosPerJob*(i+1)])
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

func compareOne(deg float64, n int, seed uint64, out []CompareRun) error {
	r := rng.New(seed)
	g, err := gen.ErdosRenyiAvgDegree(r, n, deg)
	if err != nil {
		return err
	}
	group := fmt.Sprintf("er n=%d deg=%g", n, deg)
	delta := g.MaxDegree()

	dimaRes, err := core.ColorEdges(g, core.Options{Seed: r.Uint64()})
	if err != nil {
		return err
	}
	if !dimaRes.Terminated {
		return fmt.Errorf("experiment: dima run truncated")
	}
	if v := verify.EdgeColoring(g, dimaRes.Colors); len(v) != 0 {
		return fmt.Errorf("experiment: dima coloring invalid: %v", v[0])
	}
	out[0] = CompareRun{Algo: "dima (alg 1)", Group: group, Delta: delta,
		Rounds: dimaRes.CompRounds, Colors: dimaRes.NumColors, Msgs: dimaRes.Messages}

	mprRes, err := mpr.Color(g, mpr.Options{Seed: r.Uint64()})
	if err != nil {
		return err
	}
	if !mprRes.Terminated {
		return fmt.Errorf("experiment: mpr run truncated")
	}
	if v := verify.EdgeColoring(g, mprRes.Colors); len(v) != 0 {
		return fmt.Errorf("experiment: mpr coloring invalid: %v", v[0])
	}
	out[1] = CompareRun{Algo: "simple (ref 10)", Group: group, Delta: delta,
		Rounds: mprRes.Rounds, Colors: mprRes.NumColors, Msgs: mprRes.Messages}

	central := baseline.CentralizedMatchingColoring(g, rng.New(r.Uint64()))
	if v := verify.EdgeColoring(g, central.Colors); len(v) != 0 {
		return fmt.Errorf("experiment: centralized matcher invalid: %v", v[0])
	}
	cDistinct, _ := verify.CountColors(central.Colors)
	out[2] = CompareRun{Algo: "central matcher", Group: group, Delta: delta,
		Rounds: central.Rounds, Colors: cDistinct}

	vz, err := baseline.MisraGries(g)
	if err != nil {
		return err
	}
	vDistinct, _ := verify.CountColors(vz)
	out[3] = CompareRun{Algo: "misra-gries", Group: group, Delta: delta,
		Rounds: -1, Colors: vDistinct}
	return nil
}

// ComparisonTable aggregates comparison runs per (algo, group).
func ComparisonTable(runs []CompareRun) *stats.Table {
	type key struct{ algo, group string }
	order := []key{}
	acc := map[key]*struct {
		delta, rounds, colors, msgs stats.Online
		roundless                   bool
	}{}
	for _, r := range runs {
		k := key{r.Algo, r.Group}
		a, ok := acc[k]
		if !ok {
			a = &struct {
				delta, rounds, colors, msgs stats.Online
				roundless                   bool
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
		a.colors.Add(float64(r.Colors))
		a.msgs.Add(float64(r.Msgs))
	}
	t := stats.NewTable("algorithm", "group", "Δ mean", "rounds", "rounds/Δ", "colors", "colors-Δ", "msgs")
	for _, k := range order {
		a := acc[k]
		rounds := "-"
		perDelta := "-"
		if !a.roundless {
			rounds = fmt.Sprintf("%.1f", a.rounds.Mean())
			if a.delta.Mean() > 0 {
				perDelta = fmt.Sprintf("%.2f", a.rounds.Mean()/a.delta.Mean())
			}
		}
		t.AddRow(k.algo, k.group, a.delta.Mean(), rounds, perDelta,
			a.colors.Mean(), a.colors.Mean()-a.delta.Mean(), int64(a.msgs.Mean()))
	}
	return t
}
