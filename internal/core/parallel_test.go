package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dima/internal/automaton"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/net"
	"dima/internal/rng"
)

// These tests pin RunShard's determinism contract where it is easiest
// to break: worker counts far beyond the core count (every barrier is a
// scheduler scramble), combined with faults, the recovery protocol, and
// mid-round cancellation. Run under -race they are also the engine's
// data-race probe — the CI race job executes the whole package.

// oversubscribedWorkers is the worker ladder: 1 is the degenerate
// single-shard layout, the middle entries exercise real cross-shard
// merges, and the last two oversubscribe any machine this test runs on
// (the engine clamps workers to the vertex count).
func oversubscribedWorkers(n int) []int {
	return []int{1, 2, 8, 8 * runtime.NumCPU(), n + 13}
}

// TestShardOversubscribedFaultyRecoveryIdentical demands byte-identical
// colorings, Results, and per-round metric streams from every worker
// count, under message loss with the recovery protocol active — the
// adversarial corner of the equivalence guarantee.
func TestShardOversubscribedFaultyRecoveryIdentical(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(21), 90, 6)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*Result, []metrics.RoundStats) {
		t.Helper()
		mem := &metrics.Memory{}
		res, err := ColorEdges(g, Options{
			Seed:     13,
			Engine:   net.RunShard,
			Workers:  workers,
			Fault:    net.DropRate{Seed: 4, P: 0.12},
			Recovery: automaton.Recovery{Enabled: true},
			Metrics:  mem,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Terminated {
			t.Fatalf("workers=%d: truncated at %d rounds", workers, res.CompRounds)
		}
		return res, mem.Rounds
	}
	want, wantRounds := run(1)
	for _, w := range oversubscribedWorkers(g.N())[1:] {
		res, rounds := run(w)
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("workers=%d: Result diverged from workers=1:\n%+v\n%+v", w, res, want)
		}
		if !reflect.DeepEqual(rounds, wantRounds) {
			t.Fatalf("workers=%d: per-round metric stream diverged from workers=1", w)
		}
	}
}

// TestShardOversubscribedCancelIdentical cancels at a fixed round
// barrier on every worker count and demands the identical partial
// coloring, then checks the worker goroutines are gone — oversubscribed
// pools must tear down within one barrier like right-sized ones.
func TestShardOversubscribedCancelIdentical(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(29), 90, 6)
	if err != nil {
		t.Fatal(err)
	}
	const cancelRound = 6
	runtime.GC()
	base := runtime.NumGoroutine()
	var want *Result
	for _, w := range oversubscribedWorkers(g.N()) {
		ctx, cancel := context.WithCancel(context.Background())
		shard := func(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
			cfg.Workers = w
			return net.RunShard(g, nodes, cfg)
		}
		res, err := ColorEdgesCtx(ctx, g, Options{
			Seed:   77,
			Engine: cancelAfter(shard, cancelRound, cancel),
			Fault:  net.DropRate{Seed: 8, P: 0.1},
		})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !res.Aborted || res.Terminated {
			t.Fatalf("workers=%d: canceled run: aborted=%v terminated=%v", w, res.Aborted, res.Terminated)
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("workers=%d: partial result diverged from workers=1:\n%+v\n%+v", w, res, want)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after canceled oversubscribed runs, baseline %d", got, base)
	}
}
