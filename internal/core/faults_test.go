package core

import (
	"testing"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

// A transient blackout delays the protocol but cannot corrupt it: after
// the outage ends the run completes with a valid coloring. Note that
// responses lost *during* the outage create half-colored edges whose
// retries are defensively rejected, so the run can legitimately fail to
// color those edges — the assertion is about what IS colored.
func TestEdgeColorSurvivesBlackout(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(40), 80, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ColorEdges(g, Options{
		Seed:          41,
		MaxCompRounds: 500,
		Fault:         net.Blackout{FromRound: 6, ToRound: 18},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verify.EdgeColoring(g, res.Colors) {
		if v.Kind != "uncolored" {
			if res.HalfColored == 0 {
				t.Fatalf("conflict without half-colored edges after blackout: %v", v)
			}
		}
	}
	colored := 0
	for _, c := range res.Colors {
		if c >= 0 {
			colored++
		}
	}
	if colored < g.M()/2 {
		t.Fatalf("only %d of %d edges colored after blackout recovery", colored, g.M())
	}
}

// A clean partition is indistinguishable, on each side, from running on
// the induced subgraphs: intra-side edges get valid colors, cross edges
// stay uncolored, and the run never terminates (cross negotiations
// cannot complete) — exactly the model's prediction.
func TestEdgeColorUnderPartition(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(42), 60, 6)
	if err != nil {
		t.Fatal(err)
	}
	side := make([]bool, g.N())
	for u := 0; u < g.N()/2; u++ {
		side[u] = true
	}
	crossEdges := 0
	for _, e := range g.Edges() {
		if side[e.U] != side[e.V] {
			crossEdges++
		}
	}
	if crossEdges == 0 {
		t.Skip("random instance has no cross edges")
	}
	res, err := ColorEdges(g, Options{
		Seed:          43,
		MaxCompRounds: 120,
		Fault:         net.Partition{Side: side},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminated {
		t.Fatal("terminated despite a partition cutting live edges")
	}
	for id, e := range g.Edges() {
		cross := side[e.U] != side[e.V]
		if cross && res.Colors[id] >= 0 {
			t.Fatalf("cross edge %v colored through a partition", e)
		}
	}
	// Intra-side colorings must be proper.
	for _, v := range verify.EdgeColoring(g, res.Colors) {
		if v.Kind != "uncolored" {
			t.Fatalf("intra-side conflict: %v", v)
		}
	}
	if res.HalfColored != 0 {
		t.Fatalf("%d half-colored edges under a clean partition", res.HalfColored)
	}
}

// DropLink kills one direction of one link: the edge across it can still
// be colored (invitations can flow the other way), and everything stays
// valid.
func TestEdgeColorOneWayLinkLoss(t *testing.T) {
	g := gen.Cycle(8)
	res, err := ColorEdges(g, Options{
		Seed:          44,
		MaxCompRounds: 400,
		Fault:         net.DropLink{From: 0, To: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verify.EdgeColoring(g, res.Colors) {
		if v.Kind != "uncolored" && res.HalfColored == 0 {
			t.Fatalf("conflict: %v", v)
		}
	}
}

func TestStrongColorUnderDropRate(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(45), 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	res, err := ColorStrong(d, Options{
		Seed:          46,
		MaxCompRounds: 300,
		Fault:         net.DropRate{Seed: 9, P: 0.15},
	})
	if err != nil {
		t.Fatal(err)
	}
	conflicts := 0
	for _, v := range verify.StrongColoring(d, res.Colors) {
		if v.Kind == "distance2" {
			conflicts++
		}
	}
	if conflicts > 0 && res.HalfColored == 0 {
		t.Fatalf("%d conflicts without half-colored arcs", conflicts)
	}
}

// Large-graph stress: beyond the paper's sizes, both algorithms hold
// their shapes. Skipped in -short runs.
func TestStressLargeGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	g, err := gen.ErdosRenyiAvgDegree(rng.New(47), 2000, 12)
	if err != nil {
		t.Fatal(err)
	}
	res := mustColorEdges(t, g, Options{Seed: 48})
	delta := g.MaxDegree()
	if res.NumColors > delta+3 {
		t.Fatalf("large ER used %d colors at Δ=%d", res.NumColors, delta)
	}
	if res.CompRounds > 4*delta {
		t.Fatalf("large ER took %d rounds at Δ=%d", res.CompRounds, delta)
	}
	// Strong coloring on a moderately large digraph.
	g2, err := gen.ErdosRenyiAvgDegree(rng.New(49), 600, 6)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewSymmetric(g2)
	sres := mustColorStrong(t, d, Options{Seed: 50})
	if lb := verify.StrongLowerBound(d); sres.NumColors < lb {
		t.Fatalf("strong coloring used %d colors below the structural bound %d", sres.NumColors, lb)
	}
}
