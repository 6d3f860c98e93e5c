package experiment

import "dima/internal/viz"

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
	rounds, items, err := participation("convergence", seed, n, deg, reps, strong)
	if err != nil {
		return nil, err
	}
	points := make([]ConvergencePoint, len(rounds))
	cum := 0.0
	for i, p := range rounds {
		cum += float64(p.Paired) / 2
		points[i] = ConvergencePoint{Round: i, Fraction: cum / float64(items)}
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
