package experiment

import (
	"context"
	"fmt"

	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/metrics"
	"dima/internal/rng"
	"dima/internal/stats"
)

// PairingPoint is the aggregate participation of one computation round
// across all repetitions of a pairing-probability probe.
type PairingPoint struct {
	Round  int
	Active int
	Paired int
}

// PairingProbability measures the per-round probability that an active
// node forms a pair — the empirical counterpart of Proposition 1's
// Equation (1), which lower-bounds it by 1/4 for Algorithm 1. It runs
// reps Erdős–Rényi instances (n vertices, given average degree) and
// aggregates participation round by round; strong selects Algorithm 2.
func PairingProbability(seed uint64, n int, deg float64, reps int, strong bool) ([]PairingPoint, error) {
	points, _, err := participation("pairing probe", seed, n, deg, reps, strong)
	return points, err
}

// participation runs reps Erdős–Rényi instances, repetition i on the
// graph and run seed derived from seed and i, and returns each
// computation round's Active and Paired counts summed over the runs,
// with the total number of edges (or arcs, when strong) the runs
// colored. name labels the errors.
func participation(name string, seed uint64, n int, deg float64, reps int, strong bool) ([]PairingPoint, int, error) {
	if reps <= 0 {
		return nil, 0, fmt.Errorf("experiment: %s needs repetitions", name)
	}
	base := rng.New(seed)
	var points []PairingPoint
	items := 0
	for rep := 0; rep < reps; rep++ {
		r := base.Derive(uint64(rep))
		g, err := gen.ErdosRenyiAvgDegree(r, n, deg)
		if err != nil {
			return nil, 0, err
		}
		mem := &metrics.Memory{}
		res, _, err := color(context.TODO(), g, strong, core.Options{Seed: r.Uint64(), Metrics: mem})
		if err != nil {
			return nil, 0, err
		}
		if !res.Terminated {
			return nil, 0, fmt.Errorf("experiment: %s run truncated", name)
		}
		items += len(res.Colors)
		for i, p := range mem.Rounds {
			if i == len(points) {
				points = append(points, PairingPoint{Round: i})
			}
			points[i].Active += p.Active
			points[i].Paired += p.Paired
		}
	}
	return points, items, nil
}

// PairingTable renders the curve, bucketing rounds so the table stays
// readable for long runs.
func PairingTable(points []PairingPoint, bucket int) *stats.Table {
	if bucket < 1 {
		bucket = 1
	}
	t := stats.NewTable("rounds", "active (mean)", "paired (mean)", "pair rate")
	for lo := 0; lo < len(points); lo += bucket {
		hi := lo + bucket
		if hi > len(points) {
			hi = len(points)
		}
		var active, paired int
		for _, p := range points[lo:hi] {
			active += p.Active
			paired += p.Paired
		}
		label := fmt.Sprintf("%d-%d", lo, hi-1)
		if hi-lo == 1 {
			label = fmt.Sprintf("%d", lo)
		}
		rate := 0.0
		if active > 0 {
			rate = float64(paired) / float64(active)
		}
		t.AddRow(label, float64(active)/float64(hi-lo), float64(paired)/float64(hi-lo), rate)
	}
	return t
}
