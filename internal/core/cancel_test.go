package core

import (
	"context"
	"reflect"
	"testing"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/net"
	"dima/internal/rng"
)

// cancelAfter wraps an engine so the run's context is canceled from the
// round observer once communication round k completes. Observers run
// sequentially at the round barrier on every engine, so the abort point
// — and therefore the partial coloring — is deterministic.
func cancelAfter(inner net.Engine, k int, cancel context.CancelFunc) net.Engine {
	return func(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
		prev := cfg.Observe
		cfg.Observe = func(rt net.RoundTraffic) {
			if prev != nil {
				prev(rt)
			}
			if rt.Round == k {
				cancel()
			}
		}
		return inner(g, nodes, cfg)
	}
}

// TestCancelPartialColoringIdenticalAcrossEngines cancels Algorithm 1
// at a fixed round barrier on each engine and demands the identical
// partial Result — the equivalence property extended to aborted runs.
func TestCancelPartialColoringIdenticalAcrossEngines(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(11), 120, 6)
	if err != nil {
		t.Fatal(err)
	}
	const cancelRound = 7 // mid-run: some edges colored, some not
	var want *Result
	for _, name := range []string{"sync", "shard", "shard-3"} {
		engine := map[string]net.Engine{"sync": net.RunSync, "shard": net.RunShard, "shard-3": shardWorkers(3)}[name]
		ctx, cancel := context.WithCancel(context.Background())
		opt := Options{Seed: 42, Engine: cancelAfter(engine, cancelRound, cancel)}
		res, err := ColorEdgesCtx(ctx, g, opt)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Aborted || res.Terminated {
			t.Fatalf("%s: canceled run: aborted=%v terminated=%v", name, res.Aborted, res.Terminated)
		}
		colored := 0
		for _, c := range res.Colors {
			if c >= 0 {
				colored++
			}
		}
		if colored == 0 || colored == len(res.Colors) {
			t.Fatalf("%s: partial coloring has %d/%d colored — cancel round not mid-run",
				name, colored, len(res.Colors))
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res.Colors, want.Colors) {
			t.Fatalf("%s: partial coloring diverged from sync", name)
		}
		if res.CompRounds != want.CompRounds || res.CommRounds != want.CommRounds ||
			res.Messages != want.Messages || res.NumColors != want.NumColors {
			t.Fatalf("%s: partial result %+v, sync says %+v", name, res, want)
		}
	}
}

// TestCancelStrongPartialAcrossEngines is the Algorithm 2 counterpart.
func TestCancelStrongPartialAcrossEngines(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(5), 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	const cancelRound = 9
	var want *Result
	for _, name := range []string{"sync", "shard", "shard-3"} {
		engine := map[string]net.Engine{"sync": net.RunSync, "shard": net.RunShard, "shard-3": shardWorkers(3)}[name]
		ctx, cancel := context.WithCancel(context.Background())
		opt := Options{Seed: 9, Engine: cancelAfter(engine, cancelRound, cancel)}
		res, err := ColorStrongCtx(ctx, d, opt)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Aborted || res.Terminated {
			t.Fatalf("%s: canceled run: aborted=%v terminated=%v", name, res.Aborted, res.Terminated)
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res.Colors, want.Colors) {
			t.Fatalf("%s: partial strong coloring diverged from sync", name)
		}
	}
}

// TestCtxEntryPointsMatchPlain proves the context-less API is untouched:
// same seed, same graph, byte-identical colorings and aggregates.
func TestCtxEntryPointsMatchPlain(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(3), 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ColorEdges(g, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := ColorEdgesCtx(context.Background(), g, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withCtx) {
		t.Fatalf("ColorEdges and ColorEdgesCtx diverged:\n%+v\n%+v", plain, withCtx)
	}
	d := graph.NewSymmetric(g)
	plainS, err := ColorStrong(d, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	withCtxS, err := ColorStrongCtx(context.Background(), d, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainS, withCtxS) {
		t.Fatalf("ColorStrong and ColorStrongCtx diverged:\n%+v\n%+v", plainS, withCtxS)
	}
}
