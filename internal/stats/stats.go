// Package stats provides the statistical machinery for the experiment
// harness: online moments (Welford), summaries with percentiles,
// histograms, ordinary least-squares fits (for the rounds-versus-Δ
// relationships of Figures 3–6), and plain-text table/CSV rendering.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates count, mean, and variance in one pass using
// Welford's algorithm. The zero value is an empty accumulator.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add feeds one observation.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance (0 for n < 2).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest observation (0 if empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 if empty).
func (o *Online) Max() float64 { return o.max }

// Summary is a complete one-variable description of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	P25, Median, P75 float64
}

// Summarize computes a Summary of xs (which it does not modify).
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	s.Mean, s.Std, s.Min, s.Max = o.Mean(), o.Std(), o.Min(), o.Max()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P25 = Percentile(sorted, 0.25)
	s.Median = Percentile(sorted, 0.5)
	s.P75 = Percentile(sorted, 0.75)
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 1) of an ascending
// sorted slice using linear interpolation. An empty sample has no
// percentiles: it yields NaN rather than panicking, so a sweep whose
// repetitions all aborted summarizes to NaN columns instead of crashing
// mid-report.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Fit is an ordinary least-squares line y = Intercept + Slope*x.
type Fit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
	N  int
}

// LinearFit fits y against x by least squares. It returns an error for
// fewer than two points or zero variance in x.
func LinearFit(x, y []float64) (Fit, error) {
	if len(x) != len(y) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, got %d", n)
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: x has zero variance")
	}
	f := Fit{N: n}
	f.Slope = sxy / sxx
	f.Intercept = my - f.Slope*mx
	if syy == 0 {
		f.R2 = 1
	} else {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	return f, nil
}

// Histogram counts observations into unit-width integer bins
// [lo, lo+1), ...; values outside [lo, hi] are clamped to the end bins.
type Histogram struct {
	Lo     int
	Counts []int
}

// NewHistogram builds a histogram over the inclusive integer range
// [lo, hi]. It panics if hi < lo.
func NewHistogram(lo, hi int) *Histogram {
	if hi < lo {
		panic("stats: histogram range inverted")
	}
	return &Histogram{Lo: lo, Counts: make([]int, hi-lo+1)}
}

// Add counts one integer observation, clamping to the range.
func (h *Histogram) Add(x int) {
	i := x - h.Lo
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}
