package matching

import (
	"testing"
	"testing/quick"

	"dima/internal/automaton"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

func mustMatch(t *testing.T, g *graph.Graph, opt Options) *Result {
	t.Helper()
	res, err := MaximalMatching(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("did not terminate")
	}
	if v := verify.MaximalMatching(g, res.Edges); len(v) != 0 {
		t.Fatalf("invalid maximal matching: %v", v[0])
	}
	return res
}

func TestMatchingSingleEdge(t *testing.T) {
	res := mustMatch(t, gen.Path(2), Options{Seed: 1})
	if len(res.Edges) != 1 {
		t.Fatalf("K2 matching size %d", len(res.Edges))
	}
}

func TestMatchingTriangleHasOneEdge(t *testing.T) {
	res := mustMatch(t, gen.Cycle(3), Options{Seed: 2})
	if len(res.Edges) != 1 {
		t.Fatalf("triangle matching size %d, want 1", len(res.Edges))
	}
}

func TestMatchingStarHasOneEdge(t *testing.T) {
	res := mustMatch(t, gen.Star(8), Options{Seed: 3})
	if len(res.Edges) != 1 {
		t.Fatalf("star matching size %d, want 1", len(res.Edges))
	}
}

func TestMatchingEmptyAndIsolated(t *testing.T) {
	res := mustMatch(t, graph.New(4), Options{Seed: 4})
	if len(res.Edges) != 0 || res.CompRounds != 0 {
		t.Fatalf("isolated graph: %+v", res)
	}
}

func TestMatchingFamilies(t *testing.T) {
	r := rng.New(5)
	er, err := gen.ErdosRenyiAvgDegree(r, 120, 6)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{
		"er": er, "grid": gen.Grid(8, 8), "cycle": gen.Cycle(17),
		"complete": gen.Complete(9), "tree": gen.RandomTree(r, 60),
	} {
		res := mustMatch(t, g, Options{Seed: 6})
		if g.M() > 0 && len(res.Edges) == 0 {
			t.Fatalf("%s: empty matching on nonempty graph", name)
		}
	}
}

// shard3 runs net.RunShard on three workers, whatever GOMAXPROCS is.
func shard3(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
	cfg.Workers = 3
	return net.RunShard(g, nodes, cfg)
}

func TestMatchingDeterministicAndEngines(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(7), 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := mustMatch(t, g, Options{Seed: 8, Engine: net.RunSync})
	b := mustMatch(t, g, Options{Seed: 8, Engine: shard3})
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("engines diverged: %d vs %d edges", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("engines diverged at %d", i)
		}
	}
}

func TestVertexCover(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(9), 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	res := mustMatch(t, g, Options{Seed: 10})
	cover := res.VertexCover(g)
	if v := verify.VertexCover(g, cover); len(v) != 0 {
		t.Fatalf("invalid vertex cover: %v", v[0])
	}
	if len(cover) != 2*len(res.Edges) {
		t.Fatalf("cover size %d != 2×matching %d", len(cover), 2*len(res.Edges))
	}
}

func TestMatchingHalfOfMaximum(t *testing.T) {
	// A maximal matching is at least half a maximum one. On an even
	// cycle C_2k the maximum matching is k, so ours must have ≥ k/2.
	res := mustMatch(t, gen.Cycle(20), Options{Seed: 11})
	if len(res.Edges) < 5 {
		t.Fatalf("C20 matching size %d < 5", len(res.Edges))
	}
}

func TestQuickMatchingAlwaysMaximal(t *testing.T) {
	f := func(seed uint64) bool {
		n := 10 + int(seed%40)
		g, err := gen.ErdosRenyiAvgDegree(rng.New(seed), n, 4)
		if err != nil {
			return false
		}
		res, err := MaximalMatching(g, Options{Seed: seed})
		if err != nil || !res.Terminated {
			return false
		}
		return len(verify.MaximalMatching(g, res.Edges)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Without recovery, a single lost Response strands a half-matched edge:
// the responder committed and the inviter never learns. MaximalMatching
// surfaces that as an assembly error or an invalid matching — the
// behavior the recovery layer exists to fix.
func TestMatchingWithoutRecoveryBreaksUnderDrop(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(21), 80, 6)
	if err != nil {
		t.Fatal(err)
	}
	broke := false
	for seed := uint64(0); seed < 10 && !broke; seed++ {
		res, err := MaximalMatching(g, Options{
			Seed:          seed,
			MaxCompRounds: 400,
			Fault:         net.DropRate{Seed: 99, P: 0.1},
		})
		broke = err != nil || !res.Terminated ||
			len(verify.MaximalMatching(g, res.Edges)) != 0
	}
	if !broke {
		t.Fatal("every faulty run produced a valid matching without recovery; test premise gone")
	}
}

func TestMatchingRecoveryUnderDropRate(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(21), 80, 6)
	if err != nil {
		t.Fatal(err)
	}
	rec := automaton.Recovery{Enabled: true}
	for seed := uint64(0); seed < 10; seed++ {
		res := mustMatch(t, g, Options{
			Seed:     seed,
			Fault:    net.DropRate{Seed: 99, P: 0.1},
			Recovery: rec,
		})
		if g.M() > 0 && len(res.Edges) == 0 {
			t.Fatalf("seed %d: empty matching", seed)
		}
	}
}

func TestMatchingRecoveryUnderBlackout(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(23), 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, g, Options{
		Seed:     31,
		Fault:    net.Blackout{FromRound: 4, ToRound: 16},
		Recovery: automaton.Recovery{Enabled: true},
	})
}

// Recovery runs must stay deterministic and engine-independent: faults
// are deterministic injectors and recovery decisions are functions of
// (state, sorted inbox, own RNG), so RunSync and RunShard agree.
func TestMatchingRecoveryEngineEquivalence(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(25), 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Seed:     17,
		Fault:    net.DropRate{Seed: 5, P: 0.15},
		Recovery: automaton.Recovery{Enabled: true},
	}
	opt.Engine = net.RunSync
	a := mustMatch(t, g, opt)
	opt.Engine = shard3
	b := mustMatch(t, g, opt)
	if len(a.Edges) != len(b.Edges) || a.CompRounds != b.CompRounds || a.Messages != b.Messages {
		t.Fatalf("engines diverged under faults: %+v vs %+v", a, b)
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("engines diverged at edge %d", i)
		}
	}
}

func edgeWeights(g *graph.Graph, seed uint64) []float64 {
	r := rng.New(seed)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + 9*r.Float64()
	}
	return w
}

func TestWeightedMatchingValidAndMaximal(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(30), 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := edgeWeights(g, 31)
	res, err := MaximalMatching(g, Options{Seed: 32, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("did not terminate")
	}
	if v := verify.MaximalMatching(g, res.Edges); len(v) != 0 {
		t.Fatalf("invalid: %v", v[0])
	}
	var sum float64
	for _, e := range res.Edges {
		sum += w[e]
	}
	if sum != res.Weight {
		t.Fatalf("Weight %v != recomputed %v", res.Weight, sum)
	}
}

func TestWeightedMatchingBeatsUniformOnWeight(t *testing.T) {
	// Averaged over seeds, greedy-by-weight must collect more weight
	// than the uniform protocol on the same instance.
	g, err := gen.ErdosRenyiAvgDegree(rng.New(33), 120, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := edgeWeights(g, 34)
	var weighted, uniform float64
	const reps = 8
	for i := uint64(0); i < reps; i++ {
		wres, err := MaximalMatching(g, Options{Seed: 40 + i, Weights: w})
		if err != nil {
			t.Fatal(err)
		}
		ures, err := MaximalMatching(g, Options{Seed: 40 + i})
		if err != nil {
			t.Fatal(err)
		}
		weighted += wres.Weight
		var us float64
		for _, e := range ures.Edges {
			us += w[e]
		}
		uniform += us
	}
	if weighted <= uniform {
		t.Fatalf("weighted protocol collected %.1f <= uniform %.1f", weighted, uniform)
	}
}

func TestWeightedMatchingNearGreedy(t *testing.T) {
	// Centralized greedy (heaviest edge first) is a 1/2-approximation of
	// the maximum weight matching; the distributed protocol should land
	// within a reasonable factor of it.
	g, err := gen.ErdosRenyiAvgDegree(rng.New(35), 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := edgeWeights(g, 36)
	// Centralized greedy.
	order := make([]graph.EdgeID, g.M())
	for i := range order {
		order[i] = graph.EdgeID(i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && w[order[j]] > w[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	busy := make([]bool, g.N())
	var greedy float64
	for _, e := range order {
		ed := g.EdgeAt(e)
		if !busy[ed.U] && !busy[ed.V] {
			busy[ed.U], busy[ed.V] = true, true
			greedy += w[e]
		}
	}
	res, err := MaximalMatching(g, Options{Seed: 37, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight < 0.6*greedy {
		t.Fatalf("distributed weight %.1f below 60%% of greedy %.1f", res.Weight, greedy)
	}
}

func TestWeightedMatchingDeterministicEngines(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(38), 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := edgeWeights(g, 39)
	a, err := MaximalMatching(g, Options{Seed: 41, Weights: w, Engine: net.RunSync})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MaximalMatching(g, Options{Seed: 41, Weights: w, Engine: shard3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Weight != b.Weight || len(a.Edges) != len(b.Edges) {
		t.Fatal("engines diverged on weighted matching")
	}
}

func TestWeightedMatchingRejectsBadWeights(t *testing.T) {
	g := gen.Path(3)
	if _, err := MaximalMatching(g, Options{Weights: []float64{1}}); err == nil {
		t.Fatal("accepted short weights")
	}
}

func TestWeightedMatchingUnweightedWeightIsCount(t *testing.T) {
	g := gen.Cycle(10)
	res, err := MaximalMatching(g, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != float64(len(res.Edges)) {
		t.Fatalf("unweighted Weight %v != count %d", res.Weight, len(res.Edges))
	}
}
