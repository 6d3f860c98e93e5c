package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"dima/internal/stats"
)

// Metric is one value a workload run measured.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	// N is the number of observations behind Value (calls, jobs, rounds).
	N int
}

// layer is the repo module a metric measures: the prefix of its name up
// to the first dot, or "e2e" for end-to-end metrics, whose names have
// none.
func (m Metric) layer() string {
	if i := strings.IndexByte(m.Name, '.'); i >= 0 {
		return m.Name[:i]
	}
	return "e2e"
}

// runResult is what one run of one workload produces.
type runResult struct {
	Workload  string
	Seed      uint64
	Metrics   []Metric
	Attempted int
	Failed    int
	Errors    []string
}

// add records a metric; a value that is not finite, a ratio or statistic
// of no observations, is left out.
func (r *runResult) add(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Value: v, N: n})
}

// fail records one failed operation: an error, an invalid coloring, or a
// cross-check mismatch.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Env is the header of a results file: what the numbers were measured on.
type Env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Runs       int    `json:"runs"`
	Trace      bool   `json:"trace"`
}

// Row is the one row type of every results file: one (workload, layer,
// metric) with one sample per run.
type Row struct {
	Workload string    `json:"workload"`
	Layer    string    `json:"layer"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Samples  []float64 `json:"samples"`
	Median   float64   `json:"median"`
	P10      float64   `json:"p10"`
	P90      float64   `json:"p90"`
	// N is the number of observations behind all samples together.
	N int `json:"n"`
}

// Results is a results file: an environment header and the rows.
type Results struct {
	Env       Env   `json:"env"`
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
	Rows      []Row `json:"rows"`
}

func newEnv(commit string, seed uint64, seconds, runs int, trace bool) Env {
	return Env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit,
		Seed:       seed,
		Seconds:    seconds,
		Runs:       runs,
		Trace:      trace,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// collect folds runs into rows, one per (workload, metric) in first-seen
// order, each run contributing one sample.
func collect(env Env, runs []*runResult) Results {
	res := Results{Env: env}
	index := map[string]int{}
	for _, r := range runs {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, m := range r.Metrics {
			key := r.Workload + "\x00" + m.Name
			i, ok := index[key]
			if !ok {
				i = len(res.Rows)
				index[key] = i
				res.Rows = append(res.Rows, Row{Workload: r.Workload, Layer: m.layer(), Metric: m.Name, Unit: m.Unit})
			}
			res.Rows[i].Samples = append(res.Rows[i].Samples, m.Value)
			res.Rows[i].N += m.N
		}
	}
	for i := range res.Rows {
		row := &res.Rows[i]
		row.Median = quantile(row.Samples, 0.5)
		row.P10 = quantile(row.Samples, 0.1)
		row.P90 = quantile(row.Samples, 0.9)
	}
	return res
}

// quantile is stats.Percentile over an unsorted sample.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, p)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func writeResults(path string, res Results) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (Results, error) {
	var res Results
	b, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return res, fmt.Errorf("parse %s: %w", path, err)
	}
	return res, nil
}

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the program reads: the declared
// metrics, with each end-to-end metric's bound.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("parse %s: %w", path, err)
	}
	return sp, nil
}

// regressed reports whether candidate is worse than base by more than
// bound, a share of base, in the metric's worse direction.
func regressed(m specMetric, base, candidate float64) bool {
	if m.Better == "higher" {
		return candidate < base*(1-m.Bound)
	}
	return candidate > base*(1+m.Bound)
}

// compare prints, for each (workload, metric) row of a, both medians,
// the delta and the bound of the end-to-end metrics, and reports whether
// every bounded pair stayed within its bound, every row of a is present
// in b, and neither file recorded a failed operation.
func compare(w io.Writer, a, b Results, sp spec) bool {
	bounds := map[string]specMetric{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m
	}
	inB := map[string]Row{}
	for _, r := range b.Rows {
		inB[r.Workload+"\x00"+r.Metric] = r
	}
	ok := true
	fmt.Fprintf(w, "%-10s %-28s %-9s %14s %14s %9s %7s  %s\n", "workload", "metric", "unit", "A median", "B median", "delta", "bound", "verdict")
	for _, ra := range a.Rows {
		rb, found := inB[ra.Workload+"\x00"+ra.Metric]
		if !found {
			ok = false
			fmt.Fprintf(w, "%-10s %-28s %-9s %14.6g %14s %9s %7s  MISSING\n", ra.Workload, ra.Metric, ra.Unit, ra.Median, "-", "-", "-")
			continue
		}
		delta := "-"
		if ra.Median != 0 {
			delta = fmt.Sprintf("%+.2f%%", 100*(rb.Median-ra.Median)/ra.Median)
		}
		bound, verdict := "-", "-"
		if m, bounded := bounds[ra.Metric]; bounded {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			verdict = "ok"
			if regressed(m, ra.Median, rb.Median) {
				verdict = "REGRESSED"
				ok = false
			}
		}
		fmt.Fprintf(w, "%-10s %-28s %-9s %14.6g %14.6g %9s %7s  %s\n", ra.Workload, ra.Metric, ra.Unit, ra.Median, rb.Median, delta, bound, verdict)
	}
	for _, r := range []Results{a, b} {
		if r.Failed > 0 {
			ok = false
		}
	}
	fmt.Fprintf(w, "failed operations: A %d/%d, B %d/%d\n", a.Failed, a.Attempted, b.Failed, b.Attempted)
	return ok
}
