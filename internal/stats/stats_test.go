package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestOnlineBasics(t *testing.T) {
	var o Online
	if o.N() != 0 || o.Mean() != 0 || o.Var() != 0 {
		t.Fatal("zero Online not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("N = %d", o.N())
	}
	if !almostEq(o.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", o.Mean())
	}
	// Population variance of this classic sample is 4; unbiased = 32/7.
	if !almostEq(o.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("Var = %v", o.Var())
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", o.Min(), o.Max())
	}
}

func TestOnlineSingle(t *testing.T) {
	var o Online
	o.Add(3.5)
	if o.Var() != 0 || o.Std() != 0 || o.Min() != 3.5 || o.Max() != 3.5 {
		t.Fatal("single observation stats wrong")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Median != 3 || s.P25 != 2 || s.P75 != 4 {
		t.Fatalf("%+v", s)
	}
	if s.Min != 1 || s.Max != 5 || !almostEq(s.Mean, 3, 1e-12) {
		t.Fatalf("%+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatal("empty summary wrong")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize mutated input")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := Percentile(sorted, 0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(sorted, 1); got != 40 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(sorted, 0.5); !almostEq(got, 25, 1e-12) {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile([]float64{7}, 0.5); got != 7 {
		t.Fatalf("singleton p50 = %v", got)
	}
}

func TestPercentileEmptyIsNaN(t *testing.T) {
	// An empty sample has no percentiles; a sweep whose repetitions all
	// aborted must summarize to NaN columns instead of crashing.
	for _, p := range []float64{0, 0.5, 1} {
		if got := Percentile(nil, p); !math.IsNaN(got) {
			t.Fatalf("Percentile(nil, %g) = %v, want NaN", p, got)
		}
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 3 + 2x
	f, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Slope, 2, 1e-12) || !almostEq(f.Intercept, 3, 1e-12) {
		t.Fatalf("fit %+v", f)
	}
	if !almostEq(f.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v", f.R2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5}
	y := []float64{0.1, 1.9, 4.2, 5.8, 8.1, 9.9} // ~2x
	f, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if f.Slope < 1.8 || f.Slope > 2.2 {
		t.Fatalf("slope = %v", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R2 = %v", f.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("accepted single point")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("accepted zero x-variance")
	}
}

func TestLinearFitConstantY(t *testing.T) {
	f, err := LinearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if f.Slope != 0 || f.R2 != 1 {
		t.Fatalf("constant-y fit %+v", f)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 4)
	for _, x := range []int{0, 1, 1, 2, 7, -3} {
		h.Add(x)
	}
	if h.Counts[0] != 2 { // 0 and clamped -3
		t.Fatalf("bin 0 = %d", h.Counts[0])
	}
	if h.Counts[4] != 1 { // clamped 7
		t.Fatalf("bin 4 = %d", h.Counts[4])
	}
}

func TestHistogramPanicsInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(5, 4)
}

func TestQuickOnlineMatchesDirect(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true // skip pathological inputs
			}
		}
		if len(xs) < 2 {
			return true
		}
		var o Online
		var sum float64
		for _, x := range xs {
			o.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		direct := ss / float64(len(xs)-1)
		return almostEq(o.Mean(), mean, 1e-6*(1+math.Abs(mean))) &&
			almostEq(o.Var(), direct, 1e-6*(1+direct))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "delta", "rounds")
	tb.AddRow("er-200", 10, 21.5)
	tb.AddRow("er-400", 12.25, 25.0)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "rounds") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "21.5") {
		t.Fatalf("row: %q", lines[2])
	}
	// Float trimming: 25.0 renders as 25.
	if !strings.Contains(lines[3], "25") || strings.Contains(lines[3], "25.00") {
		t.Fatalf("float trim: %q", lines[3])
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("only")
	if !strings.Contains(tb.String(), "only") {
		t.Fatal("short row lost")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(`say "hi"`, "x,y")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"say \"\"hi\"\"\",\"x,y\"\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}
