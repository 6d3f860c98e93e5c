package metrics

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"dima/internal/automaton"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits")
	g := reg.Gauge("level")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %d, want 8000", g.Value())
	}
	// Get-or-create returns the same instrument.
	if reg.Counter("hits") != c {
		t.Fatal("Counter did not return the registered instrument")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100)
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.N != 6 || s.Sum != 1+10+11+100+101+5000 {
		t.Fatalf("snapshot n=%d sum=%d", s.N, s.Sum)
	}
	want := []int64{2, 2, 2} // <=10, <=100, +Inf
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, bounds := range map[string][]int64{
		"empty":    {},
		"unsorted": {10, 5},
		"dup":      {3, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestJSONLWriter(t *testing.T) {
	var b strings.Builder
	j := NewJSONLWriter(&b)
	for r := 0; r < 3; r++ {
		j.EmitRound(RoundStats{Round: r, Active: 10 - r, Messages: int64(5 * r),
			ByKind: map[string]Traffic{"invite": {Messages: int64(r)}}})
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Rounds() != 3 {
		t.Fatalf("Rounds() = %d", j.Rounds())
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), b.String())
	}
	for i, line := range lines {
		var rs RoundStats
		if err := json.Unmarshal([]byte(line), &rs); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if rs.Round != i || rs.Active != 10-i {
			t.Fatalf("line %d round-tripped to %+v", i, rs)
		}
	}
}

// errWriter fails after limit bytes, for sticky-error coverage.
type errWriter struct{ left int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, io.ErrShortWrite
	}
	w.left -= len(p)
	return len(p), nil
}

func TestJSONLWriterStickyError(t *testing.T) {
	j := NewJSONLWriter(&errWriter{left: 10})
	for r := 0; r < 5000; r++ { // enough to overflow the bufio buffer
		j.EmitRound(RoundStats{Round: r})
	}
	if err := j.Flush(); err == nil {
		t.Fatal("Flush did not surface the write error")
	}
	if j.Err() == nil {
		t.Fatal("Err() did not stick")
	}
}

func TestMulti(t *testing.T) {
	var a, b Memory
	s := Multi(nil, &a, nil, &b)
	s.EmitRound(RoundStats{Round: 1})
	if len(a.Rounds) != 1 || len(b.Rounds) != 1 {
		t.Fatalf("fan-out failed: %d / %d", len(a.Rounds), len(b.Rounds))
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi of nils should be nil")
	}
	if Multi(&a) != Sink(&a) {
		t.Fatal("Multi of one sink should collapse")
	}
}

func TestRoundAggregator(t *testing.T) {
	reg := NewRegistry()
	agg := NewRoundAggregator(reg)
	agg.EmitRound(RoundStats{Round: 0, Active: 100, Paired: 40, Messages: 300, Bytes: 900, Colored: 20, NumColors: 3})
	agg.EmitRound(RoundStats{Round: 1, Active: 60, Paired: 25, Messages: 200, Bytes: 600, Colored: 12, NumColors: 5, ConflictsDropped: 2})
	s := reg.Snapshot()
	if s.Counters["rounds_total"] != 2 || s.Counters["messages_total"] != 500 ||
		s.Counters["bytes_total"] != 1500 || s.Counters["colored_total"] != 32 ||
		s.Counters["conflicts_dropped_total"] != 2 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	if s.Gauges["active"] != 60 || s.Gauges["paired"] != 25 || s.Gauges["num_colors"] != 5 {
		t.Fatalf("gauges: %+v", s.Gauges)
	}
	if s.Histograms["round_messages"].N != 2 {
		t.Fatalf("histogram: %+v", s.Histograms["round_messages"])
	}
}

func TestStateCountHookAndChain(t *testing.T) {
	reg := NewRegistry()
	var order []string
	hook := ChainHooks(nil, StateCountHook(reg), func(node int, from, to automaton.State) {
		order = append(order, to.String())
	})
	hook(3, automaton.Choose, automaton.Invite)
	hook(3, automaton.Invite, automaton.Wait)
	s := reg.Snapshot()
	if s.Counters["automaton_enter_I"] != 1 || s.Counters["automaton_enter_W"] != 1 {
		t.Fatalf("state counters: %+v", s.Counters)
	}
	if strings.Join(order, "") != "IW" {
		t.Fatalf("chained hook order: %v", order)
	}
	if ChainHooks(nil, nil) != nil {
		t.Fatal("ChainHooks of nils should be nil")
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("messages_total").Add(99)
	ds, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := ds.Addr()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	body := get("/metrics")
	for _, want := range []string{"messages_total 99", "go_goroutines", "go_heap_alloc_bytes"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if prof := get("/debug/pprof/cmdline"); prof == "" {
		t.Fatal("pprof cmdline empty")
	}
	if err := ds.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("close: %v", err)
	}
	// The port must actually be released: a second server on the same
	// address would collide if the first leaked its listener.
	ds2, err := StartDebugServer(addr, nil)
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	if err := ds2.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
