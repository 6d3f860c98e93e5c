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

func mustColor(t *testing.T, g *graph.Graph, opt Options) *Result {
	t.Helper()
	res, err := Color(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("did not terminate in %d rounds", res.Rounds)
	}
	if v := verify.EdgeColoring(g, res.Colors); len(v) != 0 {
		t.Fatalf("invalid coloring: %v", v[0])
	}
	return res
}

func TestSingleEdge(t *testing.T) {
	res := mustColor(t, gen.Path(2), Options{Seed: 1})
	if res.NumColors != 1 {
		t.Fatalf("K2: %d colors", res.NumColors)
	}
}

func TestFamilies(t *testing.T) {
	r := rng.New(2)
	er, err := gen.ErdosRenyiAvgDegree(r, 120, 8)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := gen.BarabasiAlbert(r, 100, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{
		"er": er, "ba": ba, "grid": gen.Grid(8, 8),
		"complete": gen.Complete(10), "star": gen.Star(9), "cycle": gen.Cycle(11),
	} {
		res := mustColor(t, g, Options{Seed: 3})
		if d := g.MaxDegree(); d >= 1 && res.NumColors > 2*d-1 {
			t.Errorf("%s: %d colors exceeds palette 2Δ-1 = %d", name, res.NumColors, 2*d-1)
		}
	}
}

func TestEmptyAndIsolated(t *testing.T) {
	res := mustColor(t, graph.New(0), Options{})
	if res.NumColors != 0 {
		t.Fatalf("empty: %+v", res)
	}
	res = mustColor(t, graph.New(5), Options{Seed: 4})
	if res.NumColors != 0 {
		t.Fatalf("isolated: %+v", res)
	}
}

func TestPaletteValidation(t *testing.T) {
	g := gen.Star(6) // Δ=5, needs palette >= 9
	if _, err := Color(g, Options{Seed: 5, Palette: 5}); err == nil {
		t.Fatal("accepted palette below 2Δ-1")
	}
	res := mustColor(t, g, Options{Seed: 5, Palette: 20})
	if res.NumColors != 5 {
		t.Fatalf("star must use exactly Δ colors, got %d", res.NumColors)
	}
}

// shard3 runs net.RunShard on three workers, whatever GOMAXPROCS is.
func shard3(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
	cfg.Workers = 3
	return net.RunShard(g, nodes, cfg)
}

func TestDeterministicAndEngines(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(6), 60, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := mustColor(t, g, Options{Seed: 7, Engine: net.RunSync})
	b := mustColor(t, g, Options{Seed: 7, Engine: shard3})
	if a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatalf("engines diverged: %d/%d rounds, %d/%d msgs", a.Rounds, b.Rounds, a.Messages, b.Messages)
	}
	for e := range a.Colors {
		if a.Colors[e] != b.Colors[e] {
			t.Fatalf("engines diverged at edge %d", e)
		}
	}
}

func TestFasterThanDeltaRounds(t *testing.T) {
	// The point of the baseline: rounds grow like O(log m), far below
	// DiMa's ≈2Δ, at the cost of a wider palette. On a Δ≈30 graph the
	// round count should sit well under Δ.
	g, err := gen.ErdosRenyiAvgDegree(rng.New(8), 300, 16)
	if err != nil {
		t.Fatal(err)
	}
	res := mustColor(t, g, Options{Seed: 9})
	if res.Rounds >= g.MaxDegree() {
		t.Fatalf("MPR took %d rounds at Δ=%d; expected o(Δ)", res.Rounds, g.MaxDegree())
	}
}

func TestUsesWiderPaletteThanDima(t *testing.T) {
	// Conversely the palette spreads: on a dense graph the distinct
	// color count exceeds Δ+1 (where DiMa typically sits).
	g := gen.Complete(16)
	res := mustColor(t, g, Options{Seed: 10})
	if res.NumColors <= g.MaxDegree()+1 {
		t.Logf("note: MPR landed at %d colors (Δ=%d) — unusually tight", res.NumColors, g.MaxDegree())
	}
	if res.NumColors > 2*g.MaxDegree()-1 {
		t.Fatalf("palette overflow: %d > %d", res.NumColors, 2*g.MaxDegree()-1)
	}
}

func TestQuickAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		n := 15 + int(seed%50)
		g, err := gen.ErdosRenyiAvgDegree(rng.New(seed), n, 5)
		if err != nil {
			return false
		}
		res, err := Color(g, Options{Seed: seed * 3})
		if err != nil || !res.Terminated {
			return false
		}
		return len(verify.EdgeColoring(g, res.Colors)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
