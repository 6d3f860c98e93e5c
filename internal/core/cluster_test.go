package core

import (
	"context"
	"os"
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
	"dima/internal/verify"
)

// TestMain lets the test binary double as the cluster node binary: when
// RunTCP re-execs this process with the node environment set,
// MaybeNodeMain serves the shard and exits before any test runs. The
// package's init has already registered the real edge/strong factories,
// so spawned nodes run the production protocol code.
func TestMain(m *testing.M) {
	net.MaybeNodeMain()
	os.Exit(m.Run())
}

// clusterNodeCounts is the process ladder every cluster equivalence
// test walks: the degenerate single-node cluster, small multi-node
// layouts with real cross-process traffic, and one count that exceeds
// plausible shard balance (clamped to the vertex count by the engine).
var clusterNodeCounts = []int{1, 2, 3, 5}

// assertNoChildProcesses fails the test if this process still has live
// children after a cluster run — a leaked node process would keep its
// pipe FDs and pid slot until the test binary exits.
func assertNoChildProcesses(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		kids, err := os.ReadFile("/proc/self/task/" + itoa(os.Getpid()) + "/children")
		if err != nil {
			return // no procfs on this platform; nothing to check
		}
		if len(kids) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked node child processes: %q", kids)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// clusterVariant is one cell of the equivalence matrix: a fault /
// recovery configuration that both the in-process reference and every
// cluster layout run with the same seed.
type clusterVariant struct {
	name     string
	fault    net.FaultInjector
	recovery automaton.Recovery
}

var clusterVariants = []clusterVariant{
	{name: "reliable"},
	{
		name:     "faulty-recovery",
		fault:    net.DropRate{Seed: 4, P: 0.12},
		recovery: automaton.Recovery{Enabled: true},
	},
}

// runPair runs the same coloring once on the in-process sync engine and
// once on a TCP cluster of k node processes, returning both results and
// per-round metric streams for comparison.
func clusterOptions(seed uint64, v clusterVariant, mem *metrics.Memory) Options {
	return Options{
		Seed:     seed,
		Fault:    v.fault,
		Recovery: v.recovery,
		Metrics:  mem,
	}
}

// TestClusterColorEdgesMatchesSync is the top-level byte-identity
// property for Algorithm 1 on the tcp engine: for every node-count and
// fault variant, ColorEdges through real OS processes must reproduce
// the sequential run exactly — coloring, Result aggregates, and the
// per-round telemetry stream, which must also satisfy the stream
// invariants of assertStreamMatchesResult under loss and recovery.
func TestClusterColorEdgesMatchesSync(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	g, err := gen.ErdosRenyiAvgDegree(rng.New(31), 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range clusterVariants {
		t.Run(v.name, func(t *testing.T) {
			wantMem := &metrics.Memory{}
			want, err := ColorEdges(g, clusterOptions(9, v, wantMem))
			if err != nil {
				t.Fatal(err)
			}
			if !want.Terminated {
				t.Fatalf("reference run truncated at %d rounds", want.CompRounds)
			}
			if bad := verify.EdgeColoring(g, want.Colors); len(bad) > 0 {
				t.Fatalf("reference coloring invalid: %v", bad[0])
			}
			for _, k := range clusterNodeCounts {
				mem := &metrics.Memory{}
				opt := clusterOptions(9, v, mem)
				opt.Cluster = &net.TCPCluster{Nodes: k, Stderr: os.Stderr}
				res, err := ColorEdges(g, opt)
				if err != nil {
					t.Fatalf("nodes=%d: %v", k, err)
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("nodes=%d: Result diverged from sync:\n%+v\n%+v", k, res, want)
				}
				if !reflect.DeepEqual(mem.Rounds, wantMem.Rounds) {
					t.Fatalf("nodes=%d: per-round metric stream diverged from sync", k)
				}
				assertStreamMatchesResult(t, "nodes="+itoa(k), res, mem.Rounds, g.N())
				assertNoChildProcesses(t)
			}
		})
	}
}

// TestClusterColorStrongMatchesSync is the same property for Algorithm
// 2, whose cluster factory must also rebuild the symmetric digraph
// remotely and round-trip the extra conflict accounting.
func TestClusterColorStrongMatchesSync(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	g, err := gen.ErdosRenyiAvgDegree(rng.New(37), 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	for _, v := range clusterVariants {
		t.Run(v.name, func(t *testing.T) {
			wantMem := &metrics.Memory{}
			want, err := ColorStrong(d, clusterOptions(17, v, wantMem))
			if err != nil {
				t.Fatal(err)
			}
			if !want.Terminated {
				t.Fatalf("reference run truncated at %d rounds", want.CompRounds)
			}
			for _, k := range clusterNodeCounts {
				mem := &metrics.Memory{}
				opt := clusterOptions(17, v, mem)
				opt.Cluster = &net.TCPCluster{Nodes: k, Stderr: os.Stderr}
				res, err := ColorStrong(d, opt)
				if err != nil {
					t.Fatalf("nodes=%d: %v", k, err)
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("nodes=%d: Result diverged from sync:\n%+v\n%+v", k, res, want)
				}
				if !reflect.DeepEqual(mem.Rounds, wantMem.Rounds) {
					t.Fatalf("nodes=%d: per-round metric stream diverged from sync", k)
				}
				assertStreamMatchesResult(t, "nodes="+itoa(k), res, mem.Rounds, d.N())
				assertNoChildProcesses(t)
			}
		})
	}
}

// TestClusterTruncationMatchesSync pins the MaxCompRounds truncation
// path: stopping a faulty run mid-protocol must leave the identical
// partial coloring on the cluster engine, with Terminated false on
// both.
func TestClusterTruncationMatchesSync(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	g, err := gen.ErdosRenyiAvgDegree(rng.New(41), 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cluster *net.TCPCluster) *Result {
		t.Helper()
		res, err := ColorEdges(g, Options{
			Seed:          23,
			Fault:         net.DropRate{Seed: 6, P: 0.5},
			MaxCompRounds: 4,
			Cluster:       cluster,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Terminated {
			t.Fatal("run with 50% loss terminated within 4 rounds")
		}
		return res
	}
	want := run(nil)
	for _, k := range []int{1, 3} {
		res := run(&net.TCPCluster{Nodes: k, Stderr: os.Stderr})
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("nodes=%d: truncated Result diverged from sync:\n%+v\n%+v", k, res, want)
		}
	}
	assertNoChildProcesses(t)
}

// TestClusterCanceledContext pins the abort path: a context canceled
// before the run starts yields the same all-uncolored Aborted result on
// both engines, and tears the cluster down without leaking children.
func TestClusterCanceledContext(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	g, err := gen.ErdosRenyiAvgDegree(rng.New(43), 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	want, err := ColorEdgesCtx(ctx, g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ColorEdgesCtx(ctx, g, Options{
		Seed:    3,
		Cluster: &net.TCPCluster{Nodes: 2, Stderr: os.Stderr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.Terminated {
		t.Fatalf("canceled cluster run: aborted=%v terminated=%v", res.Aborted, res.Terminated)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("canceled Result diverged from sync:\n%+v\n%+v", res, want)
	}
	assertNoChildProcesses(t)
}

// TestClusterOptionConflicts pins the option-validation sweep: cluster
// runs reject configurations whose semantics cannot cross a process
// boundary, with errors naming the offending option.
func TestClusterOptionConflicts(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	cluster := &net.TCPCluster{Nodes: 2}

	if _, err := ColorEdges(g, Options{Cluster: cluster, Engine: net.RunShard}); err == nil {
		t.Fatal("Engine+Cluster accepted")
	}
	hook := automaton.Hook(func(node int, from, to automaton.State) {})
	if _, err := ColorEdges(g, Options{Cluster: cluster, Hook: hook}); err == nil {
		t.Fatal("Hook+Cluster accepted")
	}
	forbidden := make([]*ColorSet, g.M())
	if _, err := ColorEdgesConstrained(context.Background(), g, forbidden, Options{Cluster: cluster}); err == nil {
		t.Fatal("constrained coloring on cluster accepted")
	}
	if _, err := ColorStrong(graph.NewSymmetric(g), Options{Cluster: cluster, Hook: hook}); err == nil {
		t.Fatal("strong Hook+Cluster accepted")
	}
	if _, err := ColorEdges(g, Options{Cluster: &net.TCPCluster{}}); err == nil {
		t.Fatal("zero-node cluster accepted")
	}
	// None of the rejected configurations may have spawned anything.
	runtime.GC()
	assertNoChildProcesses(t)
}

// TestClusterEdgelessGraph pins the initial all-done check of cluster
// runs, which the coordinator makes on its board: on a graph without
// edges both algorithms return RunSync's Result and round stream — 0
// rounds, Terminated — without starting a node process, on a graph
// with vertices and on one without (which once divided by zero while
// splitting its vertices into shards). The cluster's
// Command names no program, so any spawn would fail the run.
func TestClusterEdgelessGraph(t *testing.T) {
	cluster := &net.TCPCluster{Nodes: 2, Command: []string{"/nonexistent/dimanode"}}
	for _, g := range []*graph.Graph{graph.New(5), graph.New(0)} {
		for _, alg := range []struct {
			name  string
			color func(Options) (*Result, error)
		}{
			{"edge", func(o Options) (*Result, error) { return ColorEdges(g, o) }},
			{"strong", func(o Options) (*Result, error) { return ColorStrong(graph.NewSymmetric(g), o) }},
		} {
			wantMem, mem := &metrics.Memory{}, &metrics.Memory{}
			want, err := alg.color(Options{Seed: 4, Metrics: wantMem})
			if err != nil || want.CommRounds != 0 || !want.Terminated {
				t.Fatalf("%s n=%d: sync run on an edgeless graph: %+v, %v", alg.name, g.N(), want, err)
			}
			res, err := alg.color(Options{Seed: 4, Metrics: mem, Cluster: cluster})
			if err != nil {
				t.Fatalf("%s n=%d: cluster run on an edgeless graph: %v", alg.name, g.N(), err)
			}
			if !reflect.DeepEqual(res, want) || !reflect.DeepEqual(mem.Rounds, wantMem.Rounds) {
				t.Fatalf("%s n=%d: cluster run diverged from sync:\n%+v\n%+v", alg.name, g.N(), res, want)
			}
		}
	}
	assertNoChildProcesses(t)
}
