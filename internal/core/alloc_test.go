package core

import (
	"runtime"
	"testing"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/net"
	"dima/internal/rng"
)

// The round hot path of both algorithms allocates nothing once a run is
// under way: node state is carved from run-wide arrays at construction,
// outboxes and paint slabs are node-owned, and the shard engine's
// buffers grow geometrically. What remains per call is a handful of
// run-wide arrays plus the engine's amortized buffer growth, so
// allocations per edge stay a small constant. The budgets below hold
// that line; a per-node map or a per-Step slice would blow them at once
// (Algorithm 1 used to allocate 25 objects per edge on this graph,
// Algorithm 2 136 per undirected edge; now they take about 0.01 and
// 0.09, since each node's RNG is derived by value into its struct).
const (
	edgeAllocsPerEdge   = 2.0
	strongAllocsPerEdge = 1.0
)

// allocGraph is the fixed budget workload: ER with n = 2000, average
// degree 8.
func allocGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := gen.ErdosRenyiAvgDegree(rng.New(2024), 2000, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// shardOneOptions runs RunShard with one worker: the configuration the
// budgets are stated for.
func shardOneOptions(seed uint64) Options {
	return Options{Seed: seed, Engine: net.RunShard, Workers: 1}
}

func TestAllocBudgetColorEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget runs full colorings")
	}
	g := allocGraph(t)
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		var res *Result
		if res, err = ColorEdges(g, shardOneOptions(7)); err == nil && !res.Terminated {
			t.Fatal("run did not terminate")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if per := allocs / float64(g.M()); per > edgeAllocsPerEdge {
		t.Fatalf("Algorithm 1: %.0f allocations per call = %.2f per edge, budget %.1f", allocs, per, edgeAllocsPerEdge)
	} else {
		t.Logf("Algorithm 1: %.0f allocations per call = %.2f per edge (budget %.1f)", allocs, per, edgeAllocsPerEdge)
	}
}

func TestAllocBudgetColorStrong(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget runs full colorings")
	}
	g := allocGraph(t)
	d := graph.NewSymmetric(g)
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		var res *Result
		if res, err = ColorStrong(d, shardOneOptions(7)); err == nil && !res.Terminated {
			t.Fatal("run did not terminate")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if per := allocs / float64(g.M()); per > strongAllocsPerEdge {
		t.Fatalf("Algorithm 2: %.0f allocations per call = %.2f per edge, budget %.1f", allocs, per, strongAllocsPerEdge)
	} else {
		t.Logf("Algorithm 2: %.0f allocations per call = %.2f per edge (budget %.1f)", allocs, per, strongAllocsPerEdge)
	}
}

// coordBytesPerEdge bounds the heap bytes a cluster coloring of the
// budget graph allocates in the coordinator process, per edge, with one
// node process (not counted): the board, the router's batches, the
// frame buffers and the paint slab. A coordinator that builds a twin of
// every node allocates about 360 bytes per edge here.
const coordBytesPerEdge = 200

// clusterOneOptions runs RunTCP with one node process.
func clusterOneOptions(seed uint64) Options {
	return Options{Seed: seed, Cluster: &net.TCPCluster{Nodes: 1}}
}

func TestAllocBudgetColorEdgesTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a node process")
	}
	g := allocGraph(t)
	if _, err := ColorEdges(g, clusterOneOptions(7)); err != nil { // warms the runtime up
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := ColorEdges(g, clusterOneOptions(7))
	runtime.ReadMemStats(&m1)
	if err != nil || !res.Terminated {
		t.Fatalf("cluster run: %v (terminated %v)", err, res != nil && res.Terminated)
	}
	if per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(g.M()); per > coordBytesPerEdge {
		t.Fatalf("Algorithm 1 on one node process: the coordinator allocated %.0f bytes per edge, budget %d", per, coordBytesPerEdge)
	} else {
		t.Logf("Algorithm 1 on one node process: the coordinator allocated %.0f bytes per edge (budget %d)", per, coordBytesPerEdge)
	}
	assertNoChildProcesses(t)
}

// benchColor times color over b.N seeds on a graph of m edges and
// reports heap allocations per edge and wall time per delivery: the
// per-layer figures of the node Step plus shard engine path.
func benchColor(b *testing.B, m int, color func(seed uint64) (*Result, error)) {
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var deliveries int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := color(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		deliveries += res.Deliveries
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N)/float64(m), "allocs/edge")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(deliveries), "ns/delivery")
}

// BenchmarkColorEdgesShard is Algorithm 1 on the budget graph, shard
// engine, one worker.
func BenchmarkColorEdgesShard(b *testing.B) {
	g := allocGraph(b)
	benchColor(b, g.M(), func(seed uint64) (*Result, error) {
		return ColorEdges(g, shardOneOptions(seed))
	})
}

// BenchmarkColorStrongShard is Algorithm 2 on the budget graph's
// symmetric digraph, shard engine, one worker.
func BenchmarkColorStrongShard(b *testing.B) {
	g := allocGraph(b)
	d := graph.NewSymmetric(g)
	benchColor(b, g.M(), func(seed uint64) (*Result, error) {
		return ColorStrong(d, shardOneOptions(seed))
	})
}

// BenchmarkColorEdgesTCP is Algorithm 1 on the budget graph over the TCP
// engine with one node process. B/op and allocs/edge count the
// coordinator process only.
func BenchmarkColorEdgesTCP(b *testing.B) {
	g := allocGraph(b)
	benchColor(b, g.M(), func(seed uint64) (*Result, error) {
		return ColorEdges(g, clusterOneOptions(seed))
	})
}
