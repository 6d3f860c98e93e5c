package gen

import (
	"math"
	"testing"
	"testing/quick"

	"dima/internal/graph"
	"dima/internal/rng"
)

func TestPairFromIndexBijective(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10} {
		total := n * (n - 1) / 2
		seen := make(map[graph.Edge]bool)
		for idx := 0; idx < total; idx++ {
			u, v := pairFromIndex(idx, n)
			if u < 0 || v >= n || u >= v {
				t.Fatalf("pairFromIndex(%d,%d) = (%d,%d) invalid", idx, n, u, v)
			}
			e := graph.Edge{U: u, V: v}
			if seen[e] {
				t.Fatalf("pairFromIndex(%d,%d) repeated %v", idx, n, e)
			}
			seen[e] = true
		}
		if len(seen) != total {
			t.Fatalf("n=%d covered %d of %d pairs", n, len(seen), total)
		}
	}
}

// closedFormPair is the textbook closed-form inverse of the row-major
// upper-triangle index, evaluated in float64: exact for the small n the
// tests use it at, and independent of both integer implementations.
func closedFormPair(idx, n int) (int, int) {
	u := n - 2 - int(math.Floor(math.Sqrt(float64(-8*idx+4*n*(n-1)-7))/2-0.5))
	v := idx + u + 1 - n*(n-1)/2 + (n-u)*((n-u)-1)/2
	return u, v
}

func TestPairCursorMatchesClosedForm(t *testing.T) {
	for n := 2; n <= 40; n++ {
		total := n * (n - 1) / 2
		cur := pairCursor{rowLen: n - 1}
		for idx := 0; idx < total; idx++ {
			wu, wv := closedFormPair(idx, n)
			if u, v := pairFromIndex(idx, n); u != wu || v != wv {
				t.Fatalf("pairFromIndex(%d,%d) = (%d,%d), closed form (%d,%d)", idx, n, u, v, wu, wv)
			}
			if u, v := cur.pair(idx); u != wu || v != wv {
				t.Fatalf("cursor at %d (n=%d) = (%d,%d), closed form (%d,%d)", idx, n, u, v, wu, wv)
			}
		}
	}
	// Jumps that skip whole rows land on the same pairs.
	n := 50
	cur := pairCursor{rowLen: n - 1}
	for _, idx := range []int{0, 3, 200, 201, 900, 1224} {
		u, v := cur.pair(idx)
		if wu, wv := closedFormPair(idx, n); u != wu || v != wv {
			t.Fatalf("cursor jump to %d = (%d,%d), closed form (%d,%d)", idx, u, v, wu, wv)
		}
	}
}

// gnpReference is the G(n,p) walk as first written, deriving every
// pair from index 0: the cursor walk must add the same edges in the
// same order for every seed.
func gnpReference(r *rng.Rand, n int, p float64) []graph.Edge {
	var edges []graph.Edge
	total := n * (n - 1) / 2
	for idx := -1; ; {
		idx += r.Geometric(p)
		if idx >= total {
			return edges
		}
		u, v := pairFromIndex(idx, n)
		edges = append(edges, graph.Edge{U: u, V: v})
	}
}

func TestGNPMatchesReferenceWalk(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		seed uint64
	}{{2, 0.5, 1}, {30, 0.2, 2}, {200, 0.04, 3}, {1000, 0.008, 4}, {1000, 0.3, 5}, {3000, 0.001, 6}} {
		g, err := ErdosRenyiGNP(rng.New(c.seed), c.n, c.p)
		if err != nil {
			t.Fatal(err)
		}
		want := gnpReference(rng.New(c.seed), c.n, c.p)
		got := g.Edges()
		if len(got) != len(want) {
			t.Fatalf("G(%d,%v) seed %d: %d edges, reference %d", c.n, c.p, c.seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("G(%d,%v) seed %d: edge %d is %v, reference %v", c.n, c.p, c.seed, i, got[i], want[i])
			}
		}
	}
}

func TestGNPExtremes(t *testing.T) {
	r := rng.New(1)
	g, err := ErdosRenyiGNP(r, 10, 0)
	if err != nil || g.M() != 0 {
		t.Fatalf("G(10,0): %v M=%d", err, g.M())
	}
	g, err = ErdosRenyiGNP(r, 10, 1)
	if err != nil || g.M() != 45 {
		t.Fatalf("G(10,1): %v M=%d want 45", err, g.M())
	}
	if _, err := ErdosRenyiGNP(r, 10, 1.5); err == nil {
		t.Fatal("accepted p > 1")
	}
	if _, err := ErdosRenyiGNP(r, -1, 0.5); err == nil {
		t.Fatal("accepted negative n")
	}
}

// TestGeneratorsRejectNaN: NaN fails every float comparison, so a
// range check written as "p < 0 || p > 1" would let it through; every
// real parameter must reject it instead.
func TestGeneratorsRejectNaN(t *testing.T) {
	r := rng.New(3)
	nan := math.NaN()
	for name, build := range map[string]func() error{
		"gnp p":          func() error { _, err := ErdosRenyiGNP(r, 50, nan); return err },
		"er deg":         func() error { _, err := ErdosRenyiAvgDegree(r, 50, nan); return err },
		"ba power":       func() error { _, err := BarabasiAlbert(r, 50, 2, nan); return err },
		"ws beta":        func() error { _, err := WattsStrogatz(r, 50, 2, nan); return err },
		"bipartite p":    func() error { _, err := RandomBipartite(r, 5, 5, nan); return err },
		"geometric r":    func() error { _, err := RandomGeometric(r, 50, nan); return err },
		"powerlaw gamma": func() error { _, err := PowerLawDegrees(r, 50, 1, 8, nan); return err },
	} {
		if build() == nil {
			t.Errorf("%s: accepted NaN", name)
		}
	}
}

func TestGNPEdgeCount(t *testing.T) {
	r := rng.New(2)
	const n = 200
	const p = 0.1
	const reps = 30
	sum := 0
	for i := 0; i < reps; i++ {
		g, err := ErdosRenyiGNP(r, n, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		sum += g.M()
	}
	mean := float64(sum) / reps
	want := p * float64(n*(n-1)/2)
	sd := math.Sqrt(want * (1 - p))
	if math.Abs(mean-want) > 5*sd/math.Sqrt(reps) {
		t.Fatalf("G(n,p) mean edges %.1f, want ~%.1f", mean, want)
	}
}

func TestGNM(t *testing.T) {
	r := rng.New(3)
	for _, m := range []int{0, 1, 10, 100, 190} {
		g, err := ErdosRenyiGNM(r, 20, m)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() != m {
			t.Fatalf("GNM(20,%d) produced %d edges", m, g.M())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ErdosRenyiGNM(r, 5, 11); err == nil {
		t.Fatal("accepted m > max")
	}
	if _, err := ErdosRenyiGNM(r, -1, 0); err == nil {
		t.Fatal("accepted negative n")
	}
}

func TestAvgDegree(t *testing.T) {
	r := rng.New(4)
	const n = 400
	const target = 8.0
	const reps = 20
	sum := 0.0
	for i := 0; i < reps; i++ {
		g, err := ErdosRenyiAvgDegree(r, n, target)
		if err != nil {
			t.Fatal(err)
		}
		sum += g.AvgDegree()
	}
	mean := sum / reps
	if math.Abs(mean-target) > 0.5 {
		t.Fatalf("average degree %.2f, want ~%.1f", mean, target)
	}
	if _, err := ErdosRenyiAvgDegree(r, 10, 20); err == nil {
		t.Fatal("accepted avg degree > n-1")
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	r := rng.New(5)
	g, err := BarabasiAlbert(r, 100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Fatalf("N = %d", g.N())
	}
	// Growth adds ~k edges per vertex past the seed clique.
	if g.M() < 150 || g.M() > 250 {
		t.Fatalf("M = %d out of expected band", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("BA graph should be connected")
	}
	// Scale-free: the hub degree should far exceed the average.
	if float64(g.MaxDegree()) < 2.5*g.AvgDegree() {
		t.Fatalf("no hub: Δ=%d avg=%.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestBarabasiAlbertPowerIncreasesHub(t *testing.T) {
	// Higher attachment power concentrates degree: average Δ over
	// several runs should grow with the exponent.
	avgDelta := func(power float64) float64 {
		sum := 0
		const reps = 10
		for i := 0; i < reps; i++ {
			r := rng.New(uint64(100 + i))
			g, err := BarabasiAlbert(r, 150, 2, power)
			if err != nil {
				t.Fatal(err)
			}
			sum += g.MaxDegree()
		}
		return float64(sum) / reps
	}
	lo, hi := avgDelta(0), avgDelta(1.5)
	if hi <= lo {
		t.Fatalf("hub degree did not grow with power: %.1f (p=0) vs %.1f (p=1.5)", lo, hi)
	}
}

// TestBarabasiAlbertHugePowerStaysHubHeavy: when degree^power overflows
// float64 the attachment weights are rescaled, so a large power still
// grows a hub (or would be rejected), never the near-path an overflowed
// roulette falls back to.
func TestBarabasiAlbertHugePowerStaysHubHeavy(t *testing.T) {
	const n = 400
	for _, power := range []float64{200, 1000, math.Inf(1)} {
		g, err := BarabasiAlbert(rng.New(7), n, 2, power)
		if err != nil {
			continue // rejecting the power is the other acceptable outcome
		}
		if g.MaxDegree() < n/2 {
			t.Fatalf("power %v: Δ = %d with m = %d; want a hub of degree >= %d", power, g.MaxDegree(), g.M(), n/2)
		}
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	r := rng.New(6)
	if _, err := BarabasiAlbert(r, 10, 0, 1); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := BarabasiAlbert(r, 10, 2, -1); err == nil {
		t.Fatal("accepted negative power")
	}
	g, err := BarabasiAlbert(r, 0, 2, 1)
	if err != nil || g.N() != 0 {
		t.Fatal("n=0 should give empty graph")
	}
	// n smaller than seed clique still works.
	g, err = BarabasiAlbert(r, 2, 3, 1)
	if err != nil || g.N() != 2 || g.M() != 1 {
		t.Fatalf("tiny BA: %v N=%d M=%d", err, g.N(), g.M())
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	r := rng.New(7)
	// beta = 0: pure ring lattice, exactly n*k edges, degree 2k.
	g, err := WattsStrogatz(r, 20, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 60 {
		t.Fatalf("lattice M = %d, want 60", g.M())
	}
	for u := 0; u < 20; u++ {
		if g.Degree(u) != 6 {
			t.Fatalf("lattice degree(%d) = %d, want 6", u, g.Degree(u))
		}
	}
}

func TestWattsStrogatzRewired(t *testing.T) {
	r := rng.New(8)
	g, err := WattsStrogatz(r, 100, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rewiring can only lose edges to saturation, never add.
	if g.M() > 400 || g.M() < 350 {
		t.Fatalf("rewired M = %d", g.M())
	}
	// Small-world keeps high clustering relative to ER of same density.
	if g.Triangles() == 0 {
		t.Fatal("small-world graph lost all clustering")
	}
}

func TestWattsStrogatzErrors(t *testing.T) {
	r := rng.New(9)
	if _, err := WattsStrogatz(r, 10, 5, 0.1); err == nil {
		t.Fatal("accepted 2k >= n")
	}
	if _, err := WattsStrogatz(r, 10, 2, 1.5); err == nil {
		t.Fatal("accepted beta > 1")
	}
	g, err := WattsStrogatz(r, 0, 0, 0)
	if err != nil || g.N() != 0 {
		t.Fatal("empty WS failed")
	}
}

func TestRandomRegular(t *testing.T) {
	r := rng.New(10)
	for _, c := range []struct{ n, d int }{{10, 3}, {20, 4}, {16, 5}} {
		g, err := RandomRegular(r, c.n, c.d)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < c.n; u++ {
			if g.Degree(u) != c.d {
				t.Fatalf("n=%d d=%d: degree(%d) = %d", c.n, c.d, u, g.Degree(u))
			}
		}
	}
	if _, err := RandomRegular(r, 5, 3); err == nil {
		t.Fatal("accepted odd n*d")
	}
	if _, err := RandomRegular(r, 5, 5); err == nil {
		t.Fatal("accepted d >= n")
	}
	g, err := RandomRegular(r, 6, 0)
	if err != nil || g.M() != 0 {
		t.Fatal("0-regular failed")
	}
}

func TestDeterministicFamilies(t *testing.T) {
	if g := Complete(5); g.M() != 10 || g.MaxDegree() != 4 {
		t.Fatalf("K5: M=%d Δ=%d", g.M(), g.MaxDegree())
	}
	if g := Cycle(6); g.M() != 6 || g.MaxDegree() != 2 || !g.IsConnected() {
		t.Fatal("C6 wrong")
	}
	if g := Cycle(2); g.M() != 1 {
		t.Fatalf("Cycle(2) M=%d, want path edge only", g.M())
	}
	if g := Path(4); g.M() != 3 || g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Fatal("P4 wrong")
	}
	if g := Star(5); g.Degree(0) != 4 || g.M() != 4 {
		t.Fatal("star wrong")
	}
	if g := Grid(3, 4); g.N() != 12 || g.M() != 17 {
		t.Fatalf("grid 3x4: N=%d M=%d want 12,17", g.N(), g.M())
	}
	if g := Hypercube(3); g.N() != 8 || g.M() != 12 || g.MaxDegree() != 3 {
		t.Fatal("Q3 wrong")
	}
	if g := Hypercube(0); g.N() != 1 || g.M() != 0 {
		t.Fatal("Q0 wrong")
	}
}

func TestRandomTree(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{0, 1, 2, 3, 10, 50} {
		g := RandomTree(r, n)
		if n >= 1 {
			if g.M() != n-1 && n > 1 {
				t.Fatalf("tree n=%d has %d edges", n, g.M())
			}
			if n > 1 && !g.IsConnected() {
				t.Fatalf("tree n=%d disconnected", n)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomBipartite(t *testing.T) {
	r := rng.New(12)
	g, err := RandomBipartite(r, 10, 15, 1)
	if err != nil || g.M() != 150 {
		t.Fatalf("complete bipartite: %v M=%d", err, g.M())
	}
	// Bipartite: no edge inside either part.
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if g.HasEdge(u, v) {
				t.Fatal("edge inside left part")
			}
		}
	}
	if _, err := RandomBipartite(r, -1, 5, 0.5); err == nil {
		t.Fatal("accepted negative size")
	}
}

func TestRandomGeometric(t *testing.T) {
	r := rng.New(13)
	g, err := RandomGeometric(r, 50, 2) // radius covers the whole square
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 50*49/2 {
		t.Fatalf("radius 2 should give complete graph, M=%d", g.M())
	}
	g, err = RandomGeometric(r, 50, 0)
	if err != nil || g.M() != 0 {
		t.Fatal("radius 0 should give empty graph")
	}
	if _, err := RandomGeometric(r, 10, -1); err == nil {
		t.Fatal("accepted negative radius")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	// Same seed → identical graph, across all stochastic families.
	type mk func(r *rng.Rand) (*graph.Graph, error)
	families := map[string]mk{
		"gnp": func(r *rng.Rand) (*graph.Graph, error) { return ErdosRenyiGNP(r, 60, 0.1) },
		"gnm": func(r *rng.Rand) (*graph.Graph, error) { return ErdosRenyiGNM(r, 60, 100) },
		"ba":  func(r *rng.Rand) (*graph.Graph, error) { return BarabasiAlbert(r, 60, 2, 1) },
		"ws":  func(r *rng.Rand) (*graph.Graph, error) { return WattsStrogatz(r, 60, 3, 0.2) },
		"reg": func(r *rng.Rand) (*graph.Graph, error) { return RandomRegular(r, 60, 4) },
		"geo": func(r *rng.Rand) (*graph.Graph, error) { return RandomGeometric(r, 60, 0.2) },
	}
	for name, f := range families {
		a, err := f(rng.New(99))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := f(rng.New(99))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.M() != b.M() {
			t.Fatalf("%s not deterministic: %d vs %d edges", name, a.M(), b.M())
		}
		for id, e := range a.Edges() {
			if b.Edges()[id] != e {
				t.Fatalf("%s not deterministic at edge %d", name, id)
			}
		}
	}
}

func TestQuickGNPValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + int(seed%50)
		p := float64(seed%100) / 100
		g, err := ErdosRenyiGNP(r, n, p)
		return err == nil && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWattsStrogatzValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + int(seed%50)
		k := 1 + int(seed%3)
		beta := float64(seed%100) / 100
		g, err := WattsStrogatz(r, n, k, beta)
		return err == nil && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBarabasiAlbertHeavyTail(t *testing.T) {
	// Scale-free degree sequences are heavy-tailed: the maximum degree
	// grows far beyond the mean, and a sizeable fraction of vertices
	// keep the minimum attachment degree. Check both against a same-
	// density ER graph, which concentrates around its mean.
	r := rng.New(60)
	ba, err := BarabasiAlbert(r, 400, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	er, err := ErdosRenyiAvgDegree(r, 400, ba.AvgDegree())
	if err != nil {
		t.Fatal(err)
	}
	if float64(ba.MaxDegree()) < 2*float64(er.MaxDegree()) {
		t.Fatalf("BA hub %d not heavier than ER max %d", ba.MaxDegree(), er.MaxDegree())
	}
	lowDeg := 0
	for u := 0; u < ba.N(); u++ {
		if ba.Degree(u) <= 3 {
			lowDeg++
		}
	}
	if lowDeg < ba.N()/2 {
		t.Fatalf("only %d of %d BA vertices have low degree; tail not heavy", lowDeg, ba.N())
	}
}

func TestWattsStrogatzClusteringBeatsER(t *testing.T) {
	// The small-world signature: at matched density, far more triangles
	// than an ER graph.
	r := rng.New(61)
	ws, err := WattsStrogatz(r, 200, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	er, err := ErdosRenyiAvgDegree(r, 200, ws.AvgDegree())
	if err != nil {
		t.Fatal(err)
	}
	if ws.Triangles() < 3*er.Triangles() {
		t.Fatalf("WS triangles %d not >> ER triangles %d", ws.Triangles(), er.Triangles())
	}
}

func TestGNMUniformCoverage(t *testing.T) {
	// Every pair should be reachable: over many GNM draws on a tiny
	// graph, each possible edge appears with roughly equal frequency.
	r := rng.New(62)
	const n, m, reps = 5, 3, 4000
	counts := map[graph.Edge]int{}
	for i := 0; i < reps; i++ {
		g, err := ErdosRenyiGNM(r, n, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges() {
			counts[e]++
		}
	}
	total := n * (n - 1) / 2
	want := float64(reps*m) / float64(total)
	for e, c := range counts {
		if math.Abs(float64(c)-want) > want/2 {
			t.Fatalf("edge %v appeared %d times, want ~%.0f", e, c, want)
		}
	}
	if len(counts) != total {
		t.Fatalf("only %d of %d pairs ever appeared", len(counts), total)
	}
}

func TestConfigurationModel(t *testing.T) {
	r := rng.New(70)
	degrees := []int{3, 3, 2, 2, 1, 1}
	g, err := ConfigurationModel(r, degrees)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range degrees {
		if g.Degree(v) != d {
			t.Fatalf("vertex %d degree %d, want %d", v, g.Degree(v), d)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Errors.
	if _, err := ConfigurationModel(r, []int{1, 1, 1}); err == nil {
		t.Fatal("accepted odd degree sum")
	}
	if _, err := ConfigurationModel(r, []int{3, 1}); err == nil {
		t.Fatal("accepted degree >= n")
	}
	if _, err := ConfigurationModel(r, []int{-1, 1}); err == nil {
		t.Fatal("accepted negative degree")
	}
	empty, err := ConfigurationModel(r, []int{0, 0})
	if err != nil || empty.M() != 0 {
		t.Fatal("zero sequence failed")
	}
}

func TestPowerLawDegreesIntoConfigModel(t *testing.T) {
	r := rng.New(71)
	degrees, err := PowerLawDegrees(r, 200, 1, 20, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, d := range degrees {
		if d < 1 || d > 20 {
			t.Fatalf("degree %d out of range", d)
		}
		sum += d
	}
	if sum%2 != 0 {
		t.Fatalf("degree sum %d odd", sum)
	}
	// Heavy head: most vertices near the minimum.
	low := 0
	for _, d := range degrees {
		if d <= 2 {
			low++
		}
	}
	if low < len(degrees)/2 {
		t.Fatalf("only %d of %d degrees are small; not power-law-ish", low, len(degrees))
	}
	g, err := ConfigurationModel(r, degrees)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range degrees {
		if g.Degree(v) != d {
			t.Fatalf("vertex %d degree %d, want %d", v, g.Degree(v), d)
		}
	}
}

func TestPowerLawDegreesErrors(t *testing.T) {
	r := rng.New(72)
	if _, err := PowerLawDegrees(r, 10, 0, 5, 2); err == nil {
		t.Fatal("accepted minDeg 0")
	}
	if _, err := PowerLawDegrees(r, 10, 3, 2, 2); err == nil {
		t.Fatal("accepted inverted range")
	}
	if _, err := PowerLawDegrees(r, 10, 1, 12, 2); err == nil {
		t.Fatal("accepted maxDeg >= n")
	}
	if _, err := PowerLawDegrees(r, 10, 1, 5, 1.0); err == nil {
		t.Fatal("accepted gamma <= 1")
	}
}
