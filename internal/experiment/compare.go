package experiment

import (
	"context"
	"fmt"
	"slices"

	"dima/internal/baseline"
	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/mpr"
	"dima/internal/rng"
	"dima/internal/stats"
	"dima/internal/verify"
)

// CompareRun is one algorithm's outcome on one instance.
type CompareRun struct {
	Algo       string
	Group      string
	Delta      int
	Rounds     int // -1 where rounds are meaningless (centralized one-shot)
	Colors     int // colors used; channels on a symmetric digraph
	LowerBound int // structural strong-coloring lower bound; 0 for edge coloring
	Msgs       int64
}

// addRun records one arm's outcome on the current instance.
type addRun func(algo string, rounds, colors int, msgs int64)

// RunComparison pits one of the paper's algorithms against its
// baselines on Erdős–Rényi instances at the given average degrees,
// repsPerDeg instances per degree.
//
// Without strong, Algorithm 1 meets the cited prior-work baseline (the
// simple distributed algorithm of ref [10], package mpr), the idealized
// centralized matcher, and the centralized Misra–Gries Δ+1 coloring.
// The trade the paper positions itself in becomes visible directly:
// DiMa spends ≈2Δ rounds for a Δ/Δ+1 palette; the simple algorithm
// finishes in O(log m) rounds but spreads over the 2Δ-1 palette.
//
// With strong, Algorithm 2 (DiMa2Ed) meets the simple distributed
// strong-coloring baseline and the centralized greedy on the symmetric
// digraph of each instance, and every run carries the structural lower
// bound on its channel count.
func RunComparison(strong bool, seed uint64, n int, degs []float64, repsPerDeg, workers int) ([]CompareRun, error) {
	if repsPerDeg <= 0 {
		return nil, fmt.Errorf("experiment: comparison needs at least one repetition")
	}
	base := rng.New(seed) // Derive only reads base, so jobs share it
	jobs := make([][]CompareRun, len(degs)*repsPerDeg)
	err := forEach(context.TODO(), len(jobs), workers, func(i int) error {
		di, rep := i/repsPerDeg, i%repsPerDeg
		r := rng.New(base.Derive(uint64(di)).Derive(uint64(rep)).Uint64())
		g, err := gen.ErdosRenyiAvgDegree(r, n, degs[di])
		if err != nil {
			return err
		}
		group := fmt.Sprintf("er n=%d deg=%g", n, degs[di])
		if !strong {
			return edgeArms(r, g, func(algo string, rounds, colors int, msgs int64) {
				jobs[i] = append(jobs[i], CompareRun{Algo: algo, Group: group, Delta: g.MaxDegree(),
					Rounds: rounds, Colors: colors, Msgs: msgs})
			})
		}
		d := graph.NewSymmetric(g)
		lb := verify.StrongLowerBound(d)
		return strongArms(r, d, func(algo string, rounds, colors int, msgs int64) {
			jobs[i] = append(jobs[i], CompareRun{Algo: algo, Group: "dir-" + group, Delta: g.MaxDegree(),
				Rounds: rounds, Colors: colors, LowerBound: lb, Msgs: msgs})
		})
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(jobs...), nil
}

// edgeArms runs Algorithm 1 and its three references on g, drawing
// their seeds from r, and checks every coloring.
func edgeArms(r *rng.Rand, g *graph.Graph, add addRun) error {
	dimaRes, err := core.ColorEdges(g, core.Options{Seed: r.Uint64()})
	if err != nil {
		return err
	}
	if err := checkArm("dima", dimaRes.Terminated, verify.EdgeColoring(g, dimaRes.Colors)); err != nil {
		return err
	}
	add("dima (alg 1)", dimaRes.CompRounds, dimaRes.NumColors, dimaRes.Messages)

	mprRes, err := mpr.Color(g, mpr.Options{Seed: r.Uint64()})
	if err != nil {
		return err
	}
	if err := checkArm("mpr", mprRes.Terminated, verify.EdgeColoring(g, mprRes.Colors)); err != nil {
		return err
	}
	add("simple (ref 10)", mprRes.Rounds, mprRes.NumColors, mprRes.Messages)

	central := baseline.CentralizedMatchingColoring(g, rng.New(r.Uint64()))
	if err := checkArm("centralized matcher", true, verify.EdgeColoring(g, central.Colors)); err != nil {
		return err
	}
	cDistinct, _ := verify.CountColors(central.Colors)
	add("central matcher", central.Rounds, cDistinct, 0)

	vz, err := baseline.MisraGries(g)
	if err != nil {
		return err
	}
	vDistinct, _ := verify.CountColors(vz)
	add("misra-gries", -1, vDistinct, 0)
	return nil
}

// strongArms runs Algorithm 2 and its two references on d, drawing
// their seeds from r, and checks every coloring.
func strongArms(r *rng.Rand, d *graph.Digraph, add addRun) error {
	dimaRes, err := core.ColorStrong(d, core.Options{Seed: r.Uint64()})
	if err != nil {
		return err
	}
	if err := checkArm("dima2ed", dimaRes.Terminated, verify.StrongColoring(d, dimaRes.Colors)); err != nil {
		return err
	}
	add("dima2ed (alg 2)", dimaRes.CompRounds, dimaRes.NumColors, dimaRes.Messages)

	simple, err := mpr.StrongColor(d, mpr.Options{Seed: r.Uint64()})
	if err != nil {
		return err
	}
	if err := checkArm("simple-strong", simple.Terminated, verify.StrongColoring(d, simple.Colors)); err != nil {
		return err
	}
	add("simple-strong", simple.Rounds, simple.NumColors, simple.Messages)

	greedy := baseline.GreedyStrongColoring(d)
	if err := checkArm("greedy strong", true, verify.StrongColoring(d, greedy)); err != nil {
		return err
	}
	distinct, _ := verify.CountColors(greedy)
	add("greedy (central)", -1, distinct, 0)
	return nil
}

// checkArm reports a truncated run or an invalid coloring of arm name.
func checkArm(name string, terminated bool, v []verify.Violation) error {
	if !terminated {
		return fmt.Errorf("experiment: %s run truncated", name)
	}
	if len(v) != 0 {
		return fmt.Errorf("experiment: %s coloring invalid: %v", name, v[0])
	}
	return nil
}

// ComparisonTable aggregates comparison runs per (algo, group), in the
// order they first appear. Its last columns are the mean colors and
// colors-Δ, or, for a strong comparison, the mean channels and lower
// bound.
func ComparisonTable(runs []CompareRun, strong bool) *stats.Table {
	type key struct{ algo, group string }
	type fold struct {
		delta, rounds, colors, lb, msgs stats.Online
		roundless                       bool
	}
	var order []key
	acc := map[key]*fold{}
	for _, r := range runs {
		k := key{r.Algo, r.Group}
		a, ok := acc[k]
		if !ok {
			a = &fold{}
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
		a.lb.Add(float64(r.LowerBound))
		a.msgs.Add(float64(r.Msgs))
	}
	last := [2]string{"colors", "colors-Δ"}
	if strong {
		last = [2]string{"channels", "lower bound"}
	}
	t := stats.NewTable("algorithm", "group", "Δ mean", "rounds", "rounds/Δ", last[0], last[1], "msgs")
	for _, k := range order {
		a := acc[k]
		rounds, perDelta := "-", "-"
		if !a.roundless {
			rounds = fmt.Sprintf("%.1f", a.rounds.Mean())
			if a.delta.Mean() > 0 {
				perDelta = fmt.Sprintf("%.2f", a.rounds.Mean()/a.delta.Mean())
			}
		}
		extra := a.colors.Mean() - a.delta.Mean()
		if strong {
			extra = a.lb.Mean()
		}
		t.AddRow(k.algo, k.group, a.delta.Mean(), rounds, perDelta, a.colors.Mean(), extra, int64(a.msgs.Mean()))
	}
	return t
}
