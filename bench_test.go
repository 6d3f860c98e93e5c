package dima

// One benchmark per table/figure of the paper's evaluation (§IV), plus
// the ablation benches DESIGN.md calls out. Each figure bench executes a
// scaled-down version of the figure's full grid per iteration and
// reports the series' shape as custom metrics:
//
//	rounds/Δ   mean computation rounds divided by mean Δ
//	colors-Δ   mean palette excess over Δ
//	pair-rate  empirical Equation (1) pairing probability
//
// Regenerate the full-protocol numbers with: go run ./cmd/dimabench.

import (
	"testing"

	"dima/internal/baseline"
	"dima/internal/core"
	"dima/internal/experiment"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/mpr"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

// benchGrid runs a figure's specs at small scale and reports shape
// metrics.
func benchGrid(b *testing.B, specs []experiment.Spec) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		runs, err := experiment.RunGrid(specs, experiment.Config{Seed: uint64(i), Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		var dsum, rsum, csum, prsum float64
		for _, r := range runs {
			dsum += float64(r.Delta)
			rsum += float64(r.CompRounds)
			csum += float64(r.Colors - r.Delta)
			prsum += r.PairRate
		}
		n := float64(len(runs))
		b.ReportMetric(rsum/dsum, "rounds/Δ")
		b.ReportMetric(csum/n, "colors-Δ")
		b.ReportMetric(prsum/n, "pair-rate")
	}
}

// shrink caps every spec at reps repetitions for benchmark iterations.
func shrink(specs []experiment.Spec, reps int) []experiment.Spec {
	out := append([]experiment.Spec(nil), specs...)
	for i := range out {
		out[i].Reps = reps
	}
	return out
}

// BenchmarkFig3 regenerates §IV-A (Algorithm 1 on Erdős–Rényi graphs,
// Figure 3): rounds ≈ 2Δ, palette at Δ or Δ+1.
func BenchmarkFig3(b *testing.B) {
	benchGrid(b, shrink(experiment.Fig3Specs(1), 2))
}

// BenchmarkFig4 regenerates §IV-B (Algorithm 1 on scale-free graphs,
// Figure 4): palette never above Δ, rounds linear in Δ.
func BenchmarkFig4(b *testing.B) {
	benchGrid(b, shrink(experiment.Fig4Specs(1), 2))
}

// BenchmarkFig5 regenerates §IV-C (Algorithm 1 on small-world graphs,
// Figure 5): dense cells exceed Δ+1 but never approach 2Δ-1.
func BenchmarkFig5(b *testing.B) {
	benchGrid(b, shrink(experiment.Fig5Specs(1), 2))
}

// BenchmarkFig6 regenerates §IV-D (Algorithm 2 on directed Erdős–Rényi
// graphs, Figure 6): rounds linear in Δ, independent of n.
func BenchmarkFig6(b *testing.B) {
	benchGrid(b, shrink(experiment.Fig6Specs(1), 1))
}

// BenchmarkPairingProbe measures the per-round pairing probability of
// Proposition 1 / Equation (1) on the paper's densest ER cell.
func BenchmarkPairingProbe(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(1), 200, 16)
	if err != nil {
		b.Fatal(err)
	}
	var rate float64
	for i := 0; i < b.N; i++ {
		mem := &metrics.Memory{}
		if _, err := core.ColorEdges(g, core.Options{Seed: uint64(i), Metrics: mem}); err != nil {
			b.Fatal(err)
		}
		var active, paired int
		for _, rs := range mem.Rounds {
			active += rs.Active
			paired += rs.Paired
		}
		rate = float64(paired) / float64(active)
	}
	b.ReportMetric(rate, "pair-rate")
}

// BenchmarkAblationColorRule compares the paper's lowest-first proposal
// rule against uniform-random proposals (Conjecture 2's mechanism).
func BenchmarkAblationColorRule(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(2), 200, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, rule := range []core.ColorRule{core.LowestFirst, core.RandomAvailable} {
		rule := rule
		b.Run(rule.String(), func(b *testing.B) {
			var colors, rounds float64
			for i := 0; i < b.N; i++ {
				res, err := core.ColorEdges(g, core.Options{Seed: uint64(i), ColorRule: rule})
				if err != nil {
					b.Fatal(err)
				}
				colors = float64(res.NumColors - g.MaxDegree())
				rounds = float64(res.CompRounds) / float64(g.MaxDegree())
			}
			b.ReportMetric(colors, "colors-Δ")
			b.ReportMetric(rounds, "rounds/Δ")
		})
	}
}

// BenchmarkAblationNoConfirm compares Algorithm 2 with and without the
// claim/confirm exchange (the correction of DESIGN.md §3). The unsafe
// arm reports its distance-2 violations per run; the safe arm must
// always report zero.
func BenchmarkAblationNoConfirm(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(3), 100, 6)
	if err != nil {
		b.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	for _, unsafe := range []bool{false, true} {
		unsafe := unsafe
		name := "confirm"
		if unsafe {
			name = "no-confirm"
		}
		b.Run(name, func(b *testing.B) {
			var violations, rounds float64
			for i := 0; i < b.N; i++ {
				res, err := core.ColorStrong(d, core.Options{
					Seed: uint64(i), UnsafeNoConfirm: unsafe, MaxCompRounds: 5000,
				})
				if err != nil {
					// Endpoint disagreement: only the unsafe arm may do this.
					if !unsafe {
						b.Fatal(err)
					}
					violations++
					continue
				}
				count := 0
				for _, v := range verify.StrongColoring(d, res.Colors) {
					if v.Kind == "distance2" {
						count++
					}
				}
				if count > 0 && !unsafe {
					b.Fatalf("safe arm produced %d violations", count)
				}
				violations = float64(count)
				rounds = float64(res.CompRounds) / float64(g.MaxDegree())
			}
			b.ReportMetric(violations, "violations")
			b.ReportMetric(rounds, "rounds/Δ")
		})
	}
}

// BenchmarkAblationOverhearFilter measures the paper's Procedure 2-b
// fast path: with it disabled, more doomed claims reach the confirm
// exchange.
func BenchmarkAblationOverhearFilter(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(4), 100, 6)
	if err != nil {
		b.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	for _, disabled := range []bool{false, true} {
		disabled := disabled
		name := "filter-on"
		if disabled {
			name = "filter-off"
		}
		b.Run(name, func(b *testing.B) {
			var dropped, rounds float64
			for i := 0; i < b.N; i++ {
				res, err := core.ColorStrong(d, core.Options{
					Seed: uint64(i), DisableOverhearFilter: disabled,
				})
				if err != nil {
					b.Fatal(err)
				}
				dropped = float64(res.ConflictsDropped)
				rounds = float64(res.CompRounds) / float64(g.MaxDegree())
			}
			b.ReportMetric(dropped, "claims-dropped")
			b.ReportMetric(rounds, "rounds/Δ")
		})
	}
}

// BenchmarkEngines compares the deterministic sequential runtime with
// the three-worker shard runtime on an identical workload.
func BenchmarkEngines(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(5), 200, 8)
	if err != nil {
		b.Fatal(err)
	}
	for name, opt := range map[string]core.Options{
		"sync":    {Engine: net.RunSync},
		"shard-3": {Engine: net.RunShard, Workers: 3},
	} {
		opt := opt
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt.Seed = uint64(i)
				if _, err := core.ColorEdges(g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColorEdges measures Algorithm 1 end to end at the paper's
// largest edge-coloring cell (n=400, avg degree 16).
func BenchmarkColorEdges(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(6), 400, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ColorEdges(g, core.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColorStrong measures Algorithm 2 end to end at the paper's
// largest strong-coloring cell (n=400, avg degree 8).
func BenchmarkColorStrong(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(7), 400, 8)
	if err != nil {
		b.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ColorStrong(d, core.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMisraGries measures the centralized Δ+1 baseline.
func BenchmarkMisraGries(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(8), 400, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.MisraGries(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerators measures the graph generators at figure scale.
func BenchmarkGenerators(b *testing.B) {
	b.Run("er-400-16", func(b *testing.B) {
		r := rng.New(9)
		for i := 0; i < b.N; i++ {
			if _, err := gen.ErdosRenyiAvgDegree(r, 400, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ba-400", func(b *testing.B) {
		r := rng.New(10)
		for i := 0; i < b.N; i++ {
			if _, err := gen.BarabasiAlbert(r, 400, 2, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ws-256-dense", func(b *testing.B) {
		r := rng.New(11)
		for i := 0; i < b.N; i++ {
			if _, err := gen.WattsStrogatz(r, 256, 23, 0.1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompareSimple pits Algorithm 1 against the prior-work
// baseline (ref [10]) on the same instance, reporting the rounds/palette
// trade as metrics.
func BenchmarkCompareSimple(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(12), 200, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dima", func(b *testing.B) {
		var rounds, colors float64
		for i := 0; i < b.N; i++ {
			res, err := core.ColorEdges(g, core.Options{Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			rounds = float64(res.CompRounds)
			colors = float64(res.NumColors - g.MaxDegree())
		}
		b.ReportMetric(rounds, "rounds")
		b.ReportMetric(colors, "colors-Δ")
	})
	b.Run("simple-ref10", func(b *testing.B) {
		var rounds, colors float64
		for i := 0; i < b.N; i++ {
			res, err := mpr.Color(g, mpr.Options{Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			rounds = float64(res.Rounds)
			colors = float64(res.NumColors - g.MaxDegree())
		}
		b.ReportMetric(rounds, "rounds")
		b.ReportMetric(colors, "colors-Δ")
	})
}

// BenchmarkMakespan measures the latency-model critical-path analysis.
func BenchmarkMakespan(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(13), 400, 8)
	if err != nil {
		b.Fatal(err)
	}
	lat := net.RandomLatency{Seed: 1, Min: 1, Max: 5}
	for i := 0; i < b.N; i++ {
		if _, err := net.Makespan(g, 100, lat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareStrong pits Algorithm 2 against the simple-strong
// distributed baseline on the same instance.
func BenchmarkCompareStrong(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(14), 100, 8)
	if err != nil {
		b.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	b.Run("dima2ed", func(b *testing.B) {
		var rounds, channels float64
		for i := 0; i < b.N; i++ {
			res, err := core.ColorStrong(d, core.Options{Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			rounds = float64(res.CompRounds)
			channels = float64(res.NumColors)
		}
		b.ReportMetric(rounds, "rounds")
		b.ReportMetric(channels, "channels")
	})
	b.Run("simple-strong", func(b *testing.B) {
		var rounds, channels float64
		for i := 0; i < b.N; i++ {
			res, err := mpr.StrongColor(d, mpr.Options{Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			rounds = float64(res.Rounds)
			channels = float64(res.NumColors)
		}
		b.ReportMetric(rounds, "rounds")
		b.ReportMetric(channels, "channels")
	})
}
