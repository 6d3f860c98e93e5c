package experiment

import (
	"fmt"
	"sort"
	"strings"

	"dima/internal/stats"
)

// GroupSummary aggregates the runs of one series.
type GroupSummary struct {
	Group          string
	Runs           int
	Delta          stats.Summary // max degree across instances
	Rounds         stats.Summary // computation rounds
	Colors         stats.Summary // distinct colors
	RoundsPerDelta stats.Summary // rounds / Δ per run
	PairRate       stats.Summary
	// Quality census relative to Δ (the paper's Conjecture 2 accounting).
	AtMostDelta, DeltaPlus1, DeltaPlus2, Beyond int
	// WorstExcess is max over runs of colors - Δ.
	WorstExcess int
}

// Summarize groups runs by their Group label, preserving first-seen
// order.
func Summarize(runs []Run) []GroupSummary {
	order := []string{}
	byGroup := map[string][]Run{}
	for _, r := range runs {
		if _, ok := byGroup[r.Group]; !ok {
			order = append(order, r.Group)
		}
		byGroup[r.Group] = append(byGroup[r.Group], r)
	}
	var out []GroupSummary
	for _, g := range order {
		rs := byGroup[g]
		gs := GroupSummary{Group: g, Runs: len(rs), WorstExcess: -1 << 30}
		var deltas, rounds, colors, ratios, rates []float64
		for _, r := range rs {
			deltas = append(deltas, float64(r.Delta))
			rounds = append(rounds, float64(r.CompRounds))
			colors = append(colors, float64(r.Colors))
			if r.Delta > 0 {
				ratios = append(ratios, float64(r.CompRounds)/float64(r.Delta))
			}
			rates = append(rates, r.PairRate)
			excess := r.Colors - r.Delta
			if excess > gs.WorstExcess {
				gs.WorstExcess = excess
			}
			switch {
			case excess <= 0:
				gs.AtMostDelta++
			case excess == 1:
				gs.DeltaPlus1++
			case excess == 2:
				gs.DeltaPlus2++
			default:
				gs.Beyond++
			}
		}
		gs.Delta = stats.Summarize(deltas)
		gs.Rounds = stats.Summarize(rounds)
		gs.Colors = stats.Summarize(colors)
		gs.RoundsPerDelta = stats.Summarize(ratios)
		gs.PairRate = stats.Summarize(rates)
		out = append(out, gs)
	}
	return out
}

// RoundsTable renders the rounds-versus-Δ view of a figure: one row per
// series, the shape the paper plots, plus the per-node communication
// load (broadcasts per node per communication round — bounded by the
// model's one-broadcast-per-phase discipline).
func RoundsTable(runs []Run) *stats.Table {
	loads := map[string]*stats.Online{}
	for _, r := range runs {
		if r.N == 0 || r.CompRounds == 0 {
			continue
		}
		o, ok := loads[r.Group]
		if !ok {
			o = &stats.Online{}
			loads[r.Group] = o
		}
		o.Add(float64(r.Messages) / float64(r.N) / float64(r.CompRounds))
	}
	t := stats.NewTable("group", "runs", "Δ mean", "rounds mean", "rounds sd", "rounds/Δ", "pair rate", "msgs/node/round")
	for _, gs := range Summarize(runs) {
		load := 0.0
		if o := loads[gs.Group]; o != nil {
			load = o.Mean()
		}
		t.AddRow(gs.Group, gs.Runs, gs.Delta.Mean, gs.Rounds.Mean, gs.Rounds.Std,
			gs.RoundsPerDelta.Mean, gs.PairRate.Mean, load)
	}
	return t
}

// ColorsTable renders the color-quality census: how many runs stayed at
// Δ, Δ+1, Δ+2, or beyond (the paper's Conjecture 2 accounting).
func ColorsTable(runs []Run) *stats.Table {
	t := stats.NewTable("group", "runs", "colors mean", "≤Δ", "Δ+1", "Δ+2", ">Δ+2", "worst excess")
	for _, gs := range Summarize(runs) {
		t.AddRow(gs.Group, gs.Runs, gs.Colors.Mean,
			gs.AtMostDelta, gs.DeltaPlus1, gs.DeltaPlus2, gs.Beyond, gs.WorstExcess)
	}
	return t
}

// FitRoundsVsDelta fits computation rounds against Δ across all runs —
// the paper's conclusion reports slope ≈ 2 for Algorithm 1 and ≈ 4 for
// Algorithm 2.
func FitRoundsVsDelta(runs []Run) (stats.Fit, error) {
	var xs, ys []float64
	for _, r := range runs {
		xs = append(xs, float64(r.Delta))
		ys = append(ys, float64(r.CompRounds))
	}
	return stats.LinearFit(xs, ys)
}

// CheckShape verifies the qualitative claims a figure's runs must
// satisfy and returns a list of human-readable problems (empty = the
// shape reproduces). Quality bounds are per the paper's §IV; the slope
// band is generous because the absolute constant is implementation
// dependent while linearity and n-independence are the claims.
type Shape struct {
	// MaxColorsExcess bounds colors - Δ over every run (e.g. 2 for
	// Figure 3's "never more than Δ+2"); negative disables the check.
	MaxColorsExcess int
	// RequireLinear demands a rounds~Δ fit with R² at least this value
	// (0 disables).
	MinR2 float64
	// SlopeMin/SlopeMax bound the fitted slope (both 0 = disabled).
	SlopeMin, SlopeMax float64
}

// Check applies the shape to the runs.
func (s Shape) Check(runs []Run) []string {
	var problems []string
	if s.MaxColorsExcess >= 0 {
		for _, r := range runs {
			if r.Colors-r.Delta > s.MaxColorsExcess {
				problems = append(problems, fmt.Sprintf(
					"%s rep %d: %d colors at Δ=%d exceeds Δ+%d",
					r.Group, r.Rep, r.Colors, r.Delta, s.MaxColorsExcess))
			}
			if r.Delta >= 2 && r.Colors > 2*r.Delta-1 {
				problems = append(problems, fmt.Sprintf(
					"%s rep %d: %d colors breaks the 2Δ-1 bound (Δ=%d)",
					r.Group, r.Rep, r.Colors, r.Delta))
			}
		}
	}
	if s.MinR2 > 0 || s.SlopeMin != 0 || s.SlopeMax != 0 {
		fit, err := FitRoundsVsDelta(runs)
		if err != nil {
			problems = append(problems, fmt.Sprintf("rounds~Δ fit failed: %v", err))
			return problems
		}
		if s.MinR2 > 0 && fit.R2 < s.MinR2 {
			problems = append(problems, fmt.Sprintf(
				"rounds~Δ not linear enough: R²=%.3f < %.3f", fit.R2, s.MinR2))
		}
		if (s.SlopeMin != 0 || s.SlopeMax != 0) && (fit.Slope < s.SlopeMin || fit.Slope > s.SlopeMax) {
			problems = append(problems, fmt.Sprintf(
				"rounds~Δ slope %.2f outside [%.2f, %.2f]", fit.Slope, s.SlopeMin, s.SlopeMax))
		}
	}
	return problems
}

// NIndependence checks that, at matched density, larger n does not
// inflate rounds: it compares group means for groups that differ only in
// their "n=<v>" token and returns problems when the bigger-n mean
// exceeds tolerance × the smaller-n mean.
func NIndependence(runs []Run, tolerance float64) []string {
	groups := Summarize(runs)
	byRest := map[string][]GroupSummary{}
	var restOrder []string
	for _, gs := range groups {
		rest := stripNToken(gs.Group)
		if _, ok := byRest[rest]; !ok {
			restOrder = append(restOrder, rest)
		}
		byRest[rest] = append(byRest[rest], gs)
	}
	var problems []string
	for _, rest := range restOrder {
		gss := byRest[rest]
		if len(gss) < 2 {
			continue
		}
		sort.Slice(gss, func(i, j int) bool { return gss[i].N() < gss[j].N() })
		small, big := gss[0], gss[len(gss)-1]
		// Normalize by mean Δ: larger samples skew to slightly larger Δ.
		smallNorm := small.Rounds.Mean / small.Delta.Mean
		bigNorm := big.Rounds.Mean / big.Delta.Mean
		if bigNorm > tolerance*smallNorm {
			problems = append(problems, fmt.Sprintf(
				"%s: rounds/Δ grew with n: %.2f (n=%d) -> %.2f (n=%d)",
				rest, smallNorm, small.N(), bigNorm, big.N()))
		}
	}
	return problems
}

// N extracts the n=<v> token from the group label (0 if absent).
func (gs GroupSummary) N() int {
	var n int
	for _, tok := range strings.Fields(gs.Group) {
		if _, err := fmt.Sscanf(tok, "n=%d", &n); err == nil {
			return n
		}
	}
	return 0
}

func stripNToken(group string) string {
	var keep []string
	for _, tok := range strings.Fields(group) {
		var n int
		if _, err := fmt.Sscanf(tok, "n=%d", &n); err != nil {
			keep = append(keep, tok)
		}
	}
	return strings.Join(keep, " ")
}
