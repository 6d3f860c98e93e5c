package baseline

import (
	"testing"
	"testing/quick"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

func TestGreedyEdgeColoringValid(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(1), 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	colors, err := GreedyEdgeColoring(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.EdgeColoring(g, colors); len(v) != 0 {
		t.Fatalf("greedy invalid: %v", v[0])
	}
	distinct, _ := verify.CountColors(colors)
	if d := g.MaxDegree(); distinct > 2*d-1 {
		t.Fatalf("greedy used %d colors > 2Δ-1 = %d", distinct, 2*d-1)
	}
}

func TestGreedyEdgeColoringOrderErrors(t *testing.T) {
	g := gen.Path(3)
	if _, err := GreedyEdgeColoring(g, []int{0}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := GreedyEdgeColoring(g, []int{0, 0}); err == nil {
		t.Fatal("non-permutation accepted")
	}
	if _, err := GreedyEdgeColoring(g, []int{0, 7}); err == nil {
		t.Fatal("out-of-range order accepted")
	}
}

func TestGreedyEdgeColoringEmpty(t *testing.T) {
	colors, err := GreedyEdgeColoring(graph.New(0), nil)
	if err != nil || len(colors) != 0 {
		t.Fatalf("empty: %v %v", colors, err)
	}
}

func TestRandomOrderGreedyValid(t *testing.T) {
	g, err := gen.BarabasiAlbert(rng.New(2), 80, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	colors, err := GreedyEdgeColoring(g, rng.New(3).Perm(g.M()))
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.EdgeColoring(g, colors); len(v) != 0 {
		t.Fatalf("random-order greedy invalid: %v", v[0])
	}
}

func TestMisraGriesDeltaPlusOne(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":      gen.Path(10),
		"cycle":     gen.Cycle(9), // odd cycle: class 2, needs Δ+1 = 3
		"star":      gen.Star(8),
		"complete7": gen.Complete(7), // odd complete: class 2
		"complete8": gen.Complete(8),
		"grid":      gen.Grid(6, 7),
		"hypercube": gen.Hypercube(4),
	}
	r := rng.New(4)
	er, err := gen.ErdosRenyiAvgDegree(r, 120, 10)
	if err != nil {
		t.Fatal(err)
	}
	cases["er"] = er
	ba, err := gen.BarabasiAlbert(r, 100, 3, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	cases["scale-free"] = ba
	for name, g := range cases {
		colors, err := MisraGries(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v := verify.EdgeColoring(g, colors); len(v) != 0 {
			t.Fatalf("%s: invalid: %v", name, v[0])
		}
		distinct, maxc := verify.CountColors(colors)
		if distinct > g.MaxDegree()+1 || maxc > g.MaxDegree() {
			t.Fatalf("%s: %d colors (max index %d) exceeds Δ+1 = %d",
				name, distinct, maxc, g.MaxDegree()+1)
		}
	}
}

func TestMisraGriesEmptyAndTiny(t *testing.T) {
	if colors, err := MisraGries(graph.New(0)); err != nil || len(colors) != 0 {
		t.Fatal("empty graph failed")
	}
	if colors, err := MisraGries(gen.Path(2)); err != nil || colors[0] != 0 {
		t.Fatalf("K2: %v %v", colors, err)
	}
}

func TestQuickMisraGriesAlwaysVizing(t *testing.T) {
	f := func(seed uint64) bool {
		n := 10 + int(seed%40)
		deg := 2 + float64(seed%10)
		if deg > float64(n-1) {
			deg = float64(n - 1)
		}
		g, err := gen.ErdosRenyiAvgDegree(rng.New(seed), n, deg)
		if err != nil {
			return false
		}
		colors, err := MisraGries(g)
		if err != nil {
			return false
		}
		if len(verify.EdgeColoring(g, colors)) != 0 {
			return false
		}
		distinct, _ := verify.CountColors(colors)
		return g.M() == 0 || distinct <= g.MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyStrongColoringValid(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Path(6), gen.Cycle(8), gen.Star(6), gen.Grid(4, 4),
	} {
		d := graph.NewSymmetric(g)
		colors := GreedyStrongColoring(d)
		if v := verify.StrongColoring(d, colors); len(v) != 0 {
			t.Fatalf("greedy strong invalid on %d-vertex graph: %v", g.N(), v[0])
		}
	}
	er, err := gen.ErdosRenyiAvgDegree(rng.New(5), 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewSymmetric(er)
	colors := GreedyStrongColoring(d)
	if v := verify.StrongColoring(d, colors); len(v) != 0 {
		t.Fatalf("greedy strong invalid on ER: %v", v[0])
	}
}

func TestCentralizedMatchingColoring(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(6), 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	res := CentralizedMatchingColoring(g, rng.New(7))
	if v := verify.EdgeColoring(g, res.Colors); len(v) != 0 {
		t.Fatalf("centralized matching coloring invalid: %v", v[0])
	}
	if res.Rounds < g.MaxDegree() {
		t.Fatalf("%d rounds < Δ = %d (impossible: one edge per vertex per round)",
			res.Rounds, g.MaxDegree())
	}
	if len(res.MatchingSizes) != res.Rounds {
		t.Fatal("per-round sizes inconsistent with round count")
	}
	total := 0
	for i, s := range res.MatchingSizes {
		if s <= 0 {
			t.Fatalf("round %d matched %d edges; maximal matching on nonempty residue must be nonempty", i, s)
		}
		total += s
	}
	if total != g.M() {
		t.Fatalf("matched %d of %d edges", total, g.M())
	}
	distinct, _ := verify.CountColors(res.Colors)
	if distinct > 2*g.MaxDegree()-1 {
		t.Fatalf("centralized matcher used %d colors > 2Δ-1", distinct)
	}
}

func TestCentralizedMatchingEmpty(t *testing.T) {
	res := CentralizedMatchingColoring(graph.New(3), rng.New(8))
	if res.Rounds != 0 || len(res.Colors) != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

func TestTreeWaveOnTrees(t *testing.T) {
	r := rng.New(20)
	for _, n := range []int{1, 2, 5, 50, 200} {
		g := gen.RandomTree(r, n)
		res, err := TreeWave(g, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Terminated {
			t.Fatalf("n=%d: did not terminate", n)
		}
		if v := verify.EdgeColoring(g, res.Colors); len(v) != 0 {
			t.Fatalf("n=%d: invalid: %v", n, v[0])
		}
		distinct, maxc := verify.CountColors(res.Colors)
		if d := g.MaxDegree(); distinct > d+1 || maxc > d {
			t.Fatalf("n=%d: %d colors (max %d) exceeds Δ+1=%d", n, distinct, maxc, d+1)
		}
	}
}

func TestTreeWavePathUsesTwoColors(t *testing.T) {
	res, err := TreeWave(gen.Path(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	distinct, _ := verify.CountColors(res.Colors)
	if distinct != 2 {
		t.Fatalf("path colored with %d colors, want 2", distinct)
	}
}

func TestTreeWaveStarUsesDeltaColors(t *testing.T) {
	res, err := TreeWave(gen.Star(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	distinct, _ := verify.CountColors(res.Colors)
	if distinct != 8 {
		t.Fatalf("star colored with %d colors, want 8", distinct)
	}
	// One wave: the root colors everything in round 1.
	if res.Rounds > 2 {
		t.Fatalf("star took %d rounds", res.Rounds)
	}
}

func TestTreeWaveForest(t *testing.T) {
	// Two disjoint paths.
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	res, err := TreeWave(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.EdgeColoring(g, res.Colors); len(v) != 0 {
		t.Fatalf("forest invalid: %v", v[0])
	}
}

func TestTreeWaveRejectsCycles(t *testing.T) {
	if _, err := TreeWave(gen.Cycle(5), nil); err == nil {
		t.Fatal("accepted a cycle")
	}
}

func TestTreeWaveRoundsTrackDepth(t *testing.T) {
	// A path rooted at vertex 0 has depth n-1: rounds grow with n even
	// though Δ stays 2 — the opposite scaling of DiMa, which is the
	// point of the comparison.
	shallow, err := TreeWave(gen.Path(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := TreeWave(gen.Path(64), nil)
	if err != nil {
		t.Fatal(err)
	}
	if deep.Rounds <= shallow.Rounds {
		t.Fatalf("rounds did not grow with depth: %d vs %d", shallow.Rounds, deep.Rounds)
	}
}

func TestTreeWaveEngineEquivalence(t *testing.T) {
	g := gen.RandomTree(rng.New(21), 80)
	a, err := TreeWave(g, net.RunSync)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TreeWave(g, func(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
		cfg.Workers = 3
		return net.RunShard(g, nodes, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.Colors {
		if a.Colors[e] != b.Colors[e] {
			t.Fatalf("engines diverged at edge %d", e)
		}
	}
}
