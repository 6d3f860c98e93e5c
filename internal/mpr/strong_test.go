package mpr

import (
	"testing"
	"testing/quick"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

func mustStrong(t *testing.T, d *graph.Digraph, opt Options) *StrongResult {
	t.Helper()
	res, err := StrongColor(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("did not terminate in %d rounds", res.Rounds)
	}
	if v := verify.StrongColoring(d, res.Colors); len(v) != 0 {
		t.Fatalf("invalid strong coloring: %v (of %d)", v[0], len(v))
	}
	return res
}

func TestStrongSingleLink(t *testing.T) {
	d := graph.NewSymmetric(gen.Path(2))
	res := mustStrong(t, d, Options{Seed: 1})
	if res.NumColors != 2 {
		t.Fatalf("K2: %d channels", res.NumColors)
	}
}

func TestStrongFamilies(t *testing.T) {
	r := rng.New(2)
	er, err := gen.ErdosRenyiAvgDegree(r, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	udg, err := gen.RandomGeometric(r, 50, 0.22)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{
		"er": er, "udg": udg, "cycle": gen.Cycle(10),
		"star": gen.Star(7), "grid": gen.Grid(4, 5), "path4": gen.Path(4),
	} {
		d := graph.NewSymmetric(g)
		res := mustStrong(t, d, Options{Seed: 3})
		if res.NumColors > res.Palette {
			t.Errorf("%s: %d channels exceed palette %d", name, res.NumColors, res.Palette)
		}
		if lb := verify.StrongLowerBound(d); res.NumColors < lb {
			t.Errorf("%s: %d channels below structural bound %d", name, res.NumColors, lb)
		}
	}
}

func TestStrongEmpty(t *testing.T) {
	res := mustStrong(t, graph.NewSymmetric(graph.New(3)), Options{})
	if res.NumColors != 0 {
		t.Fatalf("empty: %+v", res)
	}
}

func TestStrongPaletteValidation(t *testing.T) {
	d := graph.NewSymmetric(gen.Star(5))
	if _, err := StrongColor(d, Options{Seed: 4, Palette: 3}); err == nil {
		t.Fatal("accepted undersized palette")
	}
}

func TestStrongDeterministicAndEngines(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(5), 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	a := mustStrong(t, d, Options{Seed: 6, Engine: net.RunSync})
	b := mustStrong(t, d, Options{Seed: 6, Engine: shard3})
	if a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatalf("engines diverged: %d/%d rounds %d/%d msgs", a.Rounds, b.Rounds, a.Messages, b.Messages)
	}
	for i := range a.Colors {
		if a.Colors[i] != b.Colors[i] {
			t.Fatalf("engines diverged at arc %d", i)
		}
	}
}

func TestStrongFasterThanDima(t *testing.T) {
	// The comparator's point: round count stays flat while DiMa2Ed needs
	// ≈6Δ; here Δ≈14 and the simple-strong baseline should be well under
	// 2Δ rounds.
	g, err := gen.ErdosRenyiAvgDegree(rng.New(7), 150, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	res := mustStrong(t, d, Options{Seed: 8})
	if res.Rounds >= 2*g.MaxDegree() {
		t.Fatalf("simple-strong took %d rounds at Δ=%d", res.Rounds, g.MaxDegree())
	}
}

func TestQuickStrongAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		n := 10 + int(seed%25)
		g, err := gen.ErdosRenyiAvgDegree(rng.New(seed), n, 3)
		if err != nil {
			return false
		}
		d := graph.NewSymmetric(g)
		res, err := StrongColor(d, Options{Seed: seed * 11})
		if err != nil || !res.Terminated {
			return false
		}
		return len(verify.StrongColoring(d, res.Colors)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
