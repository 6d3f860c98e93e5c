package experiment

import (
	"encoding/json"
	"strings"
	"testing"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/rng"
)

func TestRunGridSmallFig3(t *testing.T) {
	specs := Fig3Specs(0.04) // 2 reps per cell
	runs, err := RunGrid(specs, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 12 { // 6 cells × 2 reps
		t.Fatalf("got %d runs", len(runs))
	}
	for _, r := range runs {
		if r.Delta <= 0 || r.CompRounds <= 0 || r.Colors <= 0 {
			t.Fatalf("degenerate run: %+v", r)
		}
		if r.PairRate <= 0 || r.PairRate > 1 {
			t.Fatalf("pair rate %v out of range", r.PairRate)
		}
	}
}

func TestRunGridDeterministicAcrossWorkerCounts(t *testing.T) {
	specs := Fig3Specs(0.04)[:2]
	a, err := RunGrid(specs, Config{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGrid(specs, Config{Seed: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d differs across worker counts:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestRunGridRejectsEmptySpec(t *testing.T) {
	_, err := RunGrid([]Spec{{Group: "x", Reps: 0}}, Config{})
	if err == nil {
		t.Fatal("accepted zero-rep spec")
	}
}

func TestSpecFamilies(t *testing.T) {
	if got := len(Fig3Specs(1)); got != 6 {
		t.Fatalf("fig3 cells = %d", got)
	}
	if got := len(Fig4Specs(1)); got != 6 {
		t.Fatalf("fig4 cells = %d", got)
	}
	if got := len(Fig5Specs(1)); got != 6 {
		t.Fatalf("fig5 cells = %d", got)
	}
	if got := len(Fig6Specs(1)); got != 4 {
		t.Fatalf("fig6 cells = %d", got)
	}
	// Full scale keeps the paper's 50 reps.
	if Fig3Specs(1)[0].Reps != 50 {
		t.Fatalf("full-scale reps = %d", Fig3Specs(1)[0].Reps)
	}
	// Scaled-down floors at 2.
	if Fig3Specs(0.0001)[0].Reps != 2 {
		t.Fatalf("floored reps = %d", Fig3Specs(0.0001)[0].Reps)
	}
	// Spec generators must be usable.
	r := rng.New(3)
	for _, s := range [][]Spec{Fig3Specs(0.04), Fig4Specs(0.04), Fig5Specs(0.04), Fig6Specs(0.04)} {
		for _, spec := range s {
			g, err := spec.Make(r)
			if err != nil {
				t.Fatalf("%s: %v", spec.Group, err)
			}
			if g.N() == 0 {
				t.Fatalf("%s: empty graph", spec.Group)
			}
		}
	}
}

func TestFig6SpecsAreStrong(t *testing.T) {
	for _, s := range Fig6Specs(0.04) {
		if !s.Strong {
			t.Fatalf("%s: not marked strong", s.Group)
		}
	}
}

func fakeRuns() []Run {
	return []Run{
		{Group: "er n=200 deg=4", Rep: 0, N: 200, Delta: 10, CompRounds: 20, Colors: 10, PairRate: 0.4},
		{Group: "er n=200 deg=4", Rep: 1, N: 200, Delta: 12, CompRounds: 24, Colors: 13, PairRate: 0.42},
		{Group: "er n=400 deg=4", Rep: 0, N: 400, Delta: 11, CompRounds: 22, Colors: 12, PairRate: 0.41},
		{Group: "er n=400 deg=4", Rep: 1, N: 400, Delta: 11, CompRounds: 23, Colors: 14, PairRate: 0.39},
	}
}

func TestSummarize(t *testing.T) {
	gs := Summarize(fakeRuns())
	if len(gs) != 2 {
		t.Fatalf("groups = %d", len(gs))
	}
	g0 := gs[0]
	if g0.Group != "er n=200 deg=4" || g0.Runs != 2 {
		t.Fatalf("%+v", g0)
	}
	if g0.Delta.Mean != 11 || g0.Rounds.Mean != 22 {
		t.Fatalf("means: %+v", g0)
	}
	if g0.AtMostDelta != 1 || g0.DeltaPlus1 != 1 {
		t.Fatalf("census: %+v", g0)
	}
	if g0.WorstExcess != 1 {
		t.Fatalf("worst excess %d", g0.WorstExcess)
	}
	g1 := gs[1]
	if g1.DeltaPlus1 != 1 || g1.Beyond != 1 || g1.WorstExcess != 3 {
		t.Fatalf("census: %+v", g1)
	}
}

func TestTables(t *testing.T) {
	rt := RoundsTable(fakeRuns()).String()
	if !strings.Contains(rt, "er n=200 deg=4") || !strings.Contains(rt, "rounds/Δ") {
		t.Fatalf("rounds table:\n%s", rt)
	}
	ct := ColorsTable(fakeRuns()).String()
	if !strings.Contains(ct, "worst excess") {
		t.Fatalf("colors table:\n%s", ct)
	}
}

func TestFitRoundsVsDelta(t *testing.T) {
	fit, err := FitRoundsVsDelta(fakeRuns())
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope < 1 || fit.Slope > 3 {
		t.Fatalf("slope %v", fit.Slope)
	}
}

func TestShapeCheck(t *testing.T) {
	runs := fakeRuns()
	if p := (Shape{MaxColorsExcess: 3}).Check(runs); len(p) != 0 {
		t.Fatalf("lenient shape flagged: %v", p)
	}
	p := (Shape{MaxColorsExcess: 1}).Check(runs)
	if len(p) != 1 || !strings.Contains(p[0], "exceeds") {
		t.Fatalf("strict shape: %v", p)
	}
	// 2Δ-1 violation detection.
	bad := []Run{{Group: "x", Delta: 3, Colors: 6, CompRounds: 5}}
	p = (Shape{MaxColorsExcess: 99}).Check(bad)
	if len(p) != 1 || !strings.Contains(p[0], "2Δ-1") {
		t.Fatalf("bound check: %v", p)
	}
	// Slope band.
	p = (Shape{MaxColorsExcess: -1, SlopeMin: 5, SlopeMax: 9}).Check(runs)
	if len(p) != 1 || !strings.Contains(p[0], "slope") {
		t.Fatalf("slope check: %v", p)
	}
}

func TestNIndependence(t *testing.T) {
	if p := NIndependence(fakeRuns(), 1.5); len(p) != 0 {
		t.Fatalf("matched groups flagged: %v", p)
	}
	bad := []Run{
		{Group: "er n=100 deg=4", Delta: 10, CompRounds: 20},
		{Group: "er n=400 deg=4", Delta: 10, CompRounds: 90},
	}
	if p := NIndependence(bad, 1.5); len(p) != 1 {
		t.Fatalf("n-dependence missed: %v", p)
	}
}

func TestPairRateMatchesTheoryOnER(t *testing.T) {
	// Equation (1): an active node pairs with probability at least ~1/4
	// per round. Measure the empirical rate on a modest ER grid.
	specs := []Spec{{
		Group: "probe",
		Make: func(r *rng.Rand) (*graph.Graph, error) {
			return gen.ErdosRenyiAvgDegree(r, 150, 8)
		},
		Reps: 6,
	}}
	runs, err := RunGrid(specs, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gs := Summarize(runs)[0]
	if gs.PairRate.Mean < 0.25 {
		t.Fatalf("mean pair rate %.3f below 1/4", gs.PairRate.Mean)
	}
	if gs.PairRate.Mean > 0.6 {
		t.Fatalf("mean pair rate %.3f suspiciously high", gs.PairRate.Mean)
	}
}

func TestRunComparison(t *testing.T) {
	runs, err := RunComparison(5, 80, []float64{4, 8}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*3*4 {
		t.Fatalf("got %d comparison runs", len(runs))
	}
	byAlgo := map[string][]CompareRun{}
	for _, r := range runs {
		if r.Algo == "" {
			t.Fatalf("empty run slot: %+v", r)
		}
		byAlgo[r.Algo] = append(byAlgo[r.Algo], r)
	}
	if len(byAlgo) != 4 {
		t.Fatalf("algorithms: %d", len(byAlgo))
	}
	// Misra-Gries must win or tie on colors against dima on every instance.
	for i := range byAlgo["dima (alg 1)"] {
		d := byAlgo["dima (alg 1)"][i]
		v := byAlgo["misra-gries"][i]
		if v.Colors > d.Delta+1 {
			t.Fatalf("misra-gries exceeded Δ+1: %+v", v)
		}
	}
	tbl := ComparisonTable(runs).String()
	for _, want := range []string{"dima (alg 1)", "simple (ref 10)", "central matcher", "misra-gries"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestRunComparisonRejectsZeroReps(t *testing.T) {
	if _, err := RunComparison(1, 10, []float64{4}, 0, 0); err == nil {
		t.Fatal("accepted zero reps")
	}
}

func TestRunComparisonDeterministic(t *testing.T) {
	a, err := RunComparison(9, 50, []float64{4}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunComparison(9, 50, []float64{4}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("comparison diverged across worker counts at %d", i)
		}
	}
}

func TestPairingProbability(t *testing.T) {
	points, err := PairingProbability(3, 120, 8, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	// Early rounds (everyone active) must clear the paper's 1/4 bound.
	for _, p := range points[:3] {
		if rate := float64(p.Paired) / float64(p.Active); rate < 0.25 {
			t.Fatalf("round %d pair rate %.3f below 1/4", p.Round, rate)
		}
		if p.Paired > p.Active {
			t.Fatalf("round %d: %d paired of %d active", p.Round, p.Paired, p.Active)
		}
	}
	tbl := PairingTable(points, 5).String()
	if !strings.Contains(tbl, "pair rate") {
		t.Fatalf("table:\n%s", tbl)
	}
	if _, err := PairingProbability(1, 10, 4, 0, false); err == nil {
		t.Fatal("accepted zero reps")
	}
}

func TestPairingProbabilityStrong(t *testing.T) {
	points, err := PairingProbability(4, 60, 4, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range points {
		if p.Paired > p.Active {
			t.Fatalf("round %d: %d paired of %d active", p.Round, p.Paired, p.Active)
		}
	}
}

func TestRunStrongComparison(t *testing.T) {
	runs, err := RunStrongComparison(6, 50, []float64{4}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1*2*3 {
		t.Fatalf("got %d strong comparison runs", len(runs))
	}
	for _, r := range runs {
		if r.Channels < r.LowerBound {
			t.Fatalf("%s reported %d channels below lower bound %d", r.Algo, r.Channels, r.LowerBound)
		}
	}
	tbl := StrongComparisonTable(runs).String()
	for _, want := range []string{"dima2ed (alg 2)", "simple-strong", "greedy (central)", "lower bound"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	if _, err := RunStrongComparison(1, 10, []float64{4}, 0, 0); err == nil {
		t.Fatal("accepted zero reps")
	}
}

func TestSaveLoadRuns(t *testing.T) {
	runs := fakeRuns()
	var b strings.Builder
	if err := SaveRuns(&b, "fig3", 2012, runs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version int
		Name    string
		Seed    uint64
		Runs    []Run
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != 1 || doc.Name != "fig3" || doc.Seed != 2012 || len(doc.Runs) != len(runs) {
		t.Fatalf("round trip: version %d %q %d %d runs", doc.Version, doc.Name, doc.Seed, len(doc.Runs))
	}
	for i := range runs {
		if doc.Runs[i] != runs[i] {
			t.Fatalf("run %d differs", i)
		}
	}
}

func TestShapeStableAcrossSeeds(t *testing.T) {
	// The reproduction claims must not be a single-seed coincidence:
	// fig3's shape checks pass for several master seeds at small scale.
	shape := Shape{MaxColorsExcess: 2, MinR2: 0.6}
	for _, seed := range []uint64{1, 99, 31337} {
		runs, err := RunGrid(Fig3Specs(0.06), Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if p := shape.Check(runs); len(p) != 0 {
			t.Fatalf("seed %d: shape broke: %v", seed, p)
		}
		if p := NIndependence(runs, 1.6); len(p) != 0 {
			t.Fatalf("seed %d: n-independence broke: %v", seed, p)
		}
	}
}

func TestConvergence(t *testing.T) {
	points, err := Convergence(7, 100, 6, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	prev := -1.0
	for _, p := range points {
		if p.Fraction < prev-1e-9 {
			t.Fatalf("fraction not monotone at round %d: %v after %v", p.Round, p.Fraction, prev)
		}
		prev = p.Fraction
	}
	last := points[len(points)-1].Fraction
	if last < 0.999 || last > 1.001 {
		t.Fatalf("final fraction %v, want 1", last)
	}
	// Strong variant terminates at 1 as well.
	spoints, err := Convergence(8, 50, 4, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	slast := spoints[len(spoints)-1].Fraction
	if slast < 0.999 || slast > 1.001 {
		t.Fatalf("strong final fraction %v", slast)
	}
	plot := ConvergencePlot(map[string][]ConvergencePoint{"a": points}, []string{"a"})
	if !strings.Contains(plot, "cumulative fraction") {
		t.Fatalf("plot:\n%s", plot)
	}
	if _, err := Convergence(1, 10, 4, 0, false); err == nil {
		t.Fatal("accepted zero reps")
	}
}
