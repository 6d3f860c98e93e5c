package experiment

import (
	"strings"
	"testing"
)

func TestScaleSweepSmall(t *testing.T) {
	cfg := ScaleConfig{
		Seed:    5,
		Sizes:   []int{120, 300},
		AvgDeg:  6,
		Engines: []string{"sync", "shard"},
		Workers: 2,
	}
	var seen []ScaleRow
	rep, err := ScaleSweep(cfg, func(row ScaleRow) { seen = append(seen, row) })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 (2 engines × 2 sizes): %+v", len(rep.Rows), rep.Rows)
	}
	if len(seen) != len(rep.Rows) {
		t.Fatalf("progress callback saw %d rows, report has %d", len(seen), len(rep.Rows))
	}
	// Per size, every engine must report identical protocol outcomes —
	// the sweep itself verifies the colorings match; this pins the
	// reported aggregates too.
	bySize := map[int][]ScaleRow{}
	for _, row := range rep.Rows {
		bySize[row.N] = append(bySize[row.N], row)
		if row.WallMS < 0 {
			t.Fatalf("negative wall time: %+v", row)
		}
		if row.Engine == "shard" && row.Workers != 2 {
			t.Fatalf("shard row lost its worker count: %+v", row)
		}
	}
	for n, rows := range bySize {
		for _, row := range rows[1:] {
			if row.CompRounds != rows[0].CompRounds || row.Colors != rows[0].Colors ||
				row.Messages != rows[0].Messages || row.Bytes != rows[0].Bytes {
				t.Fatalf("n=%d: engines disagree: %+v vs %+v", n, rows[0], row)
			}
		}
	}
	for _, n := range cfg.Sizes {
		if rows := bySize[n]; len(rows) != 2 {
			t.Fatalf("n=%d should have a sync and a shard row, got %+v", n, rows)
		}
	}
}

func TestScaleSweepRejectsUnknownEngine(t *testing.T) {
	cfg := DefaultScaleConfig(1, 0.001)
	cfg.Engines = []string{"sync", "warp"}
	if _, err := ScaleSweep(cfg, nil); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("unknown engine accepted: %v", err)
	}
}

func TestDefaultScaleConfigLadder(t *testing.T) {
	cfg := DefaultScaleConfig(1, 1)
	want := []int{1_000, 10_000, 100_000, 1_000_000}
	if len(cfg.Sizes) != len(want) {
		t.Fatalf("ladder %v, want %v", cfg.Sizes, want)
	}
	for i := range want {
		if cfg.Sizes[i] != want[i] {
			t.Fatalf("ladder %v, want %v", cfg.Sizes, want)
		}
	}
	// Tiny scales clamp to the floor and deduplicate.
	small := DefaultScaleConfig(1, 0.0001)
	if len(small.Sizes) == 0 || small.Sizes[0] != 200 {
		t.Fatalf("small ladder %v, want floor 200", small.Sizes)
	}
	for i := 1; i < len(small.Sizes); i++ {
		if small.Sizes[i] <= small.Sizes[i-1] {
			t.Fatalf("ladder not strictly ascending: %v", small.Sizes)
		}
	}
}
