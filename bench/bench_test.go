package main

import (
	"bytes"
	"math"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"dima/internal/metrics"
	"dima/internal/net"
	"dima/internal/service"
	"dima/internal/stats"
)

func TestMain(m *testing.M) {
	net.MaybeNodeMain() // the tcp calls spawn this test binary as node processes
	os.Exit(m.Run())
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// tiny shrinks a workload's input so the whole run takes milliseconds.
func tiny(w engineWorkload) engineWorkload {
	w.n, w.deg, w.inputs = 300, 4, 2
	return w
}

func requireClean(t *testing.T, rr *runResult) {
	t.Helper()
	if rr.Failed > 0 || rr.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", rr.Workload, rr.Failed, rr.Attempted, rr.Errors)
	}
}

func TestEngineWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp := loadSpec(t)
	for _, w := range engineWorkloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			rr, err := w.run(7, 100*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, rr)
			if _, err := resultLine(rr, sp.EndToEnd); err != nil {
				t.Error(err)
			}
			tw := newTraceWriter()
			tr, err := w.trace(7, 100*time.Millisecond, tw)
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, tr)
			if _, err := resultLine(tr, sp.PerLayer); err != nil {
				t.Error(err)
			}
			if len(tw.events) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestServeMixInProcess offers a small mix to an in-process service.
// setup_s, the one declared metric it lacks, is timed by serveRun around
// spawning the real binary.
func TestServeMixInProcess(t *testing.T) {
	srv := httptest.NewServer(service.New(service.Config{Workers: 2, Registry: metrics.NewRegistry()}))
	defer srv.Close()
	mix := serveMixDefault
	mix.rate, mix.n, mix.deg = 40, 200, 4
	mix.warmup, mix.minAge = 300*time.Millisecond, 200*time.Millisecond
	rr := &runResult{Workload: "serve-mix"}
	if err := mix.run(srv.URL, 3, time.Second, rr); err != nil {
		t.Fatal(err)
	}
	requireClean(t, rr)
	rr.add("setup_s", "s", 1, 1)
	if _, err := resultLine(rr, loadSpec(t).EndToEnd); err != nil {
		t.Error(err)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	mix := serveMixDefault
	mix.n, mix.deg = 200, 4
	a, err := mix.schedule(11, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := mix.schedule(11, 4*time.Second)
	c, _ := mix.schedule(12, 4*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave one schedule")
	}
	mutates := 0
	for _, op := range a {
		if op.job {
			continue
		}
		mutates++
		target := a[op.target]
		if !target.job || op.due-target.due < mix.minAge || len(op.inserts) != mix.batch {
			t.Fatalf("mutate %+v targets %+v", op, target)
		}
	}
	if mutates == 0 || float64(len(a)) < mix.rate*4/2 {
		t.Errorf("%d operations, %d mutates at %v/s over 4s", len(a), mutates, mix.rate)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if got, want := quantile(xs, p), stats.Percentile(sorted, p); got != want {
			t.Errorf("quantile(%v) = %v, stats.Percentile = %v", p, got, want)
		}
	}
	// Inbox sizes 0,0,0,1,1,2,5: nearest-rank p50 is 1, p99 is 5.
	r := &stepRecorder{calls: 7, inboxLens: []int64{3, 2, 1, 0, 0, 1}}
	if r.inboxQuantile(0.5) != 1 || r.inboxQuantile(0.99) != 5 {
		t.Errorf("inbox p50 %v p99 %v, want 1 and 5", r.inboxQuantile(0.5), r.inboxQuantile(0.99))
	}
}

func TestRebuiltInboxesSortToWhatStepReceived(t *testing.T) {
	for _, w := range engineWorkloads[:2] {
		w := tiny(w)
		in, _, _, err := w.build(0)
		if err != nil {
			t.Fatal(err)
		}
		rec := newStepRecorder(in.g.N(), w.phases(), true)
		if _, err := w.traced(in, 5, 1, rec); err != nil {
			t.Fatal(err)
		}
		pre, got := rec.presortInboxes(in.g)
		if len(pre) == 0 {
			t.Fatalf("%s: empty corpus", w.name)
		}
		if err := checkPresort(pre, got); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i := range pre {
			if len(pre[i]) > 0 {
				pre[i] = pre[i][1:]
				break
			}
		}
		if checkPresort(pre, got) == nil {
			t.Fatalf("%s: a rebuilt inbox missing a message passed the check", w.name)
		}
	}
}

func TestCompareBounds(t *testing.T) {
	sp := spec{EndToEnd: []specMetric{
		{Name: "color_p10_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "speed", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	results := func(ms, speed float64) Results {
		return collect(Env{}, []*runResult{{Workload: "w", Attempted: 1, Metrics: []Metric{
			{Name: "color_p10_ms", Unit: "ms", Value: ms, N: 1},
			{Name: "speed", Unit: "1/s", Value: speed, N: 1},
			{Name: "core.step_s", Unit: "s", Value: ms, N: 1},
		}}})
	}
	base := results(100, 10)
	doubled := results(100, 10)
	doubled.Rows[2].Median *= 2
	for _, c := range []struct {
		name      string
		candidate Results
		ok        bool
	}{
		{"within both bounds", results(109, 9.1), true},
		{"better everywhere", results(50, 20), true},
		{"latency regressed", results(111, 10), false},
		{"speed regressed", results(100, 8.9), false},
		{"unbounded layer metric doubled", doubled, true},
	} {
		var out bytes.Buffer
		if got := compare(&out, base, c.candidate, sp); got != c.ok {
			t.Errorf("%s: compare = %v, want %v\n%s", c.name, got, c.ok, out.String())
		}
	}
	missing := results(100, 10)
	missing.Rows = missing.Rows[:1]
	if compare(&bytes.Buffer{}, base, missing, sp) {
		t.Error("a row missing from B passed")
	}
	failed := results(100, 10)
	failed.Failed = 1
	if compare(&bytes.Buffer{}, base, failed, sp) {
		t.Error("a file with a failed operation passed")
	}
	if r := base.Rows[0]; r.Median != 100 || r.N != 1 || math.IsNaN(r.P10) {
		t.Errorf("row %+v", r)
	}
}
