package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

// The scale sweep is the engine benchmark: the same Algorithm 1 run on
// the same Erdős–Rényi instance, once per engine, over a ladder of
// graph sizes up to 10⁶ vertices. It records wall-clock, allocations,
// rounds, and traffic per (engine, size) cell, and cross-checks that
// every engine produced the identical coloring — the cheap form of the
// equivalence property at sizes where the full per-round comparison is
// too expensive. Its JSON report is the repo's benchmark baseline
// (BENCH_PR3.json; methodology in docs/PERFORMANCE.md).

// ScaleConfig configures ScaleSweep. DefaultScaleConfig fills the
// standard ladder.
type ScaleConfig struct {
	// Seed determines the graph instances and run seeds.
	Seed uint64
	// Sizes is the ladder of vertex counts, ascending.
	Sizes []int
	// AvgDeg is the Erdős–Rényi average degree of every instance.
	AvgDeg float64
	// Engines selects which engines run; subset of sync, shard.
	Engines []string
	// Workers is the shard engine's worker count (0 = GOMAXPROCS).
	Workers int
	// VerifyCap bounds full coloring verification; above it only the
	// cross-engine equality check runs. 0 means verify everything.
	VerifyCap int
}

// DefaultScaleConfig returns the standard ladder {10³, 10⁴, 10⁵, 10⁶},
// each size multiplied by scale with a floor of 200, deduplicated.
// Smoke runs use small scales (CI runs -scale 0.05); scale 1 is the
// committed baseline protocol.
func DefaultScaleConfig(seed uint64, scale float64) ScaleConfig {
	var sizes []int
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		s := int(float64(n) * scale)
		if s < 200 {
			s = 200
		}
		if len(sizes) == 0 || sizes[len(sizes)-1] != s {
			sizes = append(sizes, s)
		}
	}
	return ScaleConfig{
		Seed:      seed,
		Sizes:     sizes,
		AvgDeg:    8,
		Engines:   []string{"sync", "shard"},
		VerifyCap: 20_000,
	}
}

// ScaleRow is one (engine, size) cell of the sweep.
type ScaleRow struct {
	Engine     string  `json:"engine"`
	Workers    int     `json:"workers,omitempty"`
	N          int     `json:"n"`
	M          int     `json:"m"`
	Delta      int     `json:"delta"`
	CompRounds int     `json:"compRounds"`
	CommRounds int     `json:"commRounds"`
	Colors     int     `json:"colors"`
	Messages   int64   `json:"messages"`
	Deliveries int64   `json:"deliveries"`
	Bytes      int64   `json:"bytes"`
	WallMS     float64 `json:"wallMS"`
	Allocs     uint64  `json:"allocs"`
	AllocMB    float64 `json:"allocMB"`
}

// ScaleReport is the sweep's persistable outcome, including enough of
// the configuration and environment to make the numbers comparable.
type ScaleReport struct {
	Seed       uint64     `json:"seed"`
	AvgDeg     float64    `json:"avgDeg"`
	Workers    int        `json:"workers,omitempty"`
	GoMaxProcs int        `json:"gomaxprocs"`
	NumCPU     int        `json:"numCPU"`
	GoVersion  string     `json:"goVersion"`
	Rows       []ScaleRow `json:"rows"`
}

// ScaleSweep runs the benchmark. Engines within one size share the
// graph instance and run seed, so their colorings must be identical;
// any divergence is an error, not a slow row.
func ScaleSweep(cfg ScaleConfig, progress func(ScaleRow)) (*ScaleReport, error) {
	return ScaleSweepCtx(context.Background(), cfg, progress)
}

// ScaleSweepCtx is ScaleSweep bounded by ctx: cancellation aborts the
// in-flight cell at its next round barrier — essential on the
// million-vertex rungs, where a single cell runs for minutes — and
// returns ctx's error.
func ScaleSweepCtx(ctx context.Context, cfg ScaleConfig, progress func(ScaleRow)) (*ScaleReport, error) {
	if cfg.AvgDeg <= 0 {
		return nil, fmt.Errorf("experiment: scale sweep needs a positive average degree, got %g", cfg.AvgDeg)
	}
	engines := map[string]net.Engine{"sync": net.RunSync, "shard": net.RunShard}
	for _, name := range cfg.Engines {
		if engines[name] == nil {
			return nil, fmt.Errorf("experiment: unknown engine %q in scale sweep", name)
		}
	}
	rep := &ScaleReport{
		Seed:       cfg.Seed,
		AvgDeg:     cfg.AvgDeg,
		Workers:    cfg.Workers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	base := rng.New(cfg.Seed)
	for _, n := range cfg.Sizes {
		gr := base.Derive(uint64(n))
		g, err := gen.ErdosRenyiAvgDegree(gr, n, cfg.AvgDeg)
		if err != nil {
			return nil, err
		}
		runSeed := gr.Uint64()
		var reference []int
		for _, name := range cfg.Engines {
			opt := core.Options{Seed: runSeed, Engine: engines[name]}
			if name == "shard" {
				opt.Workers = cfg.Workers
			}
			var res *core.Result
			var runErr error
			start := time.Now()
			alloc := metrics.MeasureAllocs(func() {
				res, runErr = core.ColorEdgesCtx(ctx, g, opt)
			})
			wall := time.Since(start)
			if runErr != nil {
				return nil, fmt.Errorf("experiment: scale %s n=%d: %v", name, n, runErr)
			}
			if res.Aborted {
				return nil, fmt.Errorf("experiment: scale %s n=%d: %w", name, n, ctx.Err())
			}
			if !res.Terminated {
				return nil, fmt.Errorf("experiment: scale %s n=%d: truncated at %d rounds", name, n, res.CompRounds)
			}
			if err := checkScaleRun(g, name, n, res, &reference, cfg.VerifyCap); err != nil {
				return nil, err
			}
			row := ScaleRow{
				Engine:     name,
				N:          g.N(),
				M:          g.M(),
				Delta:      g.MaxDegree(),
				CompRounds: res.CompRounds,
				CommRounds: res.CommRounds,
				Colors:     res.NumColors,
				Messages:   res.Messages,
				Deliveries: res.Deliveries,
				Bytes:      res.Bytes,
				WallMS:     float64(wall.Microseconds()) / 1000,
				Allocs:     alloc.Allocs,
				AllocMB:    float64(alloc.Bytes) / (1 << 20),
			}
			if name == "shard" {
				row.Workers = rep.GoMaxProcs
				if cfg.Workers > 0 {
					row.Workers = cfg.Workers
				}
			}
			rep.Rows = append(rep.Rows, row)
			if progress != nil {
				progress(row)
			}
		}
	}
	return rep, nil
}

// checkScaleRun enforces correctness per cell: the first engine's
// coloring becomes the reference the others must equal, and small
// instances additionally get a full validity verification.
func checkScaleRun(g *graph.Graph, name string, n int, res *core.Result, reference *[]int, verifyCap int) error {
	if *reference == nil {
		*reference = res.Colors
		if verifyCap <= 0 || n <= verifyCap {
			if v := verify.EdgeColoring(g, res.Colors); len(v) != 0 {
				return fmt.Errorf("experiment: scale %s n=%d: invalid coloring: %v", name, n, v[0])
			}
		}
		return nil
	}
	if len(res.Colors) != len(*reference) {
		return fmt.Errorf("experiment: scale %s n=%d: coloring length diverged across engines", name, n)
	}
	for i, c := range res.Colors {
		if c != (*reference)[i] {
			return fmt.Errorf("experiment: scale %s n=%d: edge %d colored %d, reference engine says %d",
				name, n, i, c, (*reference)[i])
		}
	}
	return nil
}

// WriteScaleReport writes the report as indented JSON.
func WriteScaleReport(w io.Writer, rep *ScaleReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
