package experiment

import (
	"fmt"

	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/rng"
	"dima/internal/viz"
)

// ConvergencePoint is the cumulative progress of a run family at one
// computation round.
type ConvergencePoint struct {
	Round int
	// Fraction is the mean fraction of edges (or arcs) colored by the
	// end of this round, in [0, 1].
	Fraction float64
}

// Convergence measures how a run progresses: the mean cumulative
// fraction of colored edges (Algorithm 1) or arcs (Algorithm 2) after
// each computation round, over reps Erdős–Rényi instances. Every pairing
// colors one edge/arc and is logged by both endpoints, so the per-round
// pairings (RoundStats.Paired) divide by two.
func Convergence(seed uint64, n int, deg float64, reps int, strong bool) ([]ConvergencePoint, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("experiment: convergence needs repetitions")
	}
	base := rng.New(seed)
	var colored []float64 // colored[r]: total items colored in round r, across reps
	var totals float64    // total items across reps
	for rep := 0; rep < reps; rep++ {
		r := base.Derive(uint64(rep))
		g, err := gen.ErdosRenyiAvgDegree(r, n, deg)
		if err != nil {
			return nil, err
		}
		mem := &metrics.Memory{}
		opt := core.Options{Seed: r.Uint64(), Metrics: mem}
		var res *core.Result
		if strong {
			d := graph.NewSymmetric(g)
			totals += float64(d.A())
			res, err = core.ColorStrong(d, opt)
		} else {
			totals += float64(g.M())
			res, err = core.ColorEdges(g, opt)
		}
		if err != nil {
			return nil, err
		}
		if !res.Terminated {
			return nil, fmt.Errorf("experiment: convergence run truncated")
		}
		for i, p := range mem.Rounds {
			for len(colored) <= i {
				colored = append(colored, 0)
			}
			colored[i] += float64(p.Paired) / 2
		}
	}
	points := make([]ConvergencePoint, len(colored))
	cum := 0.0
	for i, c := range colored {
		cum += c
		points[i] = ConvergencePoint{Round: i, Fraction: cum / totals}
	}
	return points, nil
}

// ConvergencePlot renders the cumulative curves as an ASCII plot, one
// series per label.
func ConvergencePlot(series map[string][]ConvergencePoint, order []string) string {
	p := viz.NewPlot("cumulative fraction colored vs computation round", "round", "fraction", 64, 16)
	for _, label := range order {
		pts := series[label]
		vp := make([]viz.Point, len(pts))
		for i, c := range pts {
			vp[i] = viz.Point{X: float64(c.Round), Y: c.Fraction}
		}
		p.Add(viz.Series{Name: label, Points: vp})
	}
	return p.Render()
}
