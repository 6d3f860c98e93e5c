package net

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/rng"
)

// replayNode is a deterministic node for engine-equivalence tests: each
// round it broadcasts a message derived from its private RNG and the
// sorted inbox it saw, and records the full inbox history. Any
// divergence in delivery order or content between engines changes both
// the recorded history and the downstream traffic.
type replayNode struct {
	id     int
	r      *rng.Rand
	rounds int
	limit  int
	heard  []msg.Message
}

func (n *replayNode) ID() int { return n.id }

func (n *replayNode) Step(round int, inbox []msg.Message) []msg.Message {
	n.heard = append(n.heard, inbox...)
	n.rounds++
	if round >= n.limit {
		return nil
	}
	// Fold the inbox into the outbound message so the next round's
	// traffic depends on exactly what this node received.
	acc := n.r.Uint64()
	for _, m := range inbox {
		acc = rng.Mix64(acc ^ uint64(int64(m.From))<<16 ^ uint64(int64(m.Edge)))
	}
	return []msg.Message{{
		Kind:  msg.KindInvite,
		From:  int32(n.id),
		To:    msg.Broadcast,
		Edge:  int32(acc % 64),
		Color: int32(int(acc>>8) % 8),
	}}
}

func (n *replayNode) Done() bool { return n.rounds > n.limit }

func replayNodes(n, limit int, seed uint64) []Node {
	nodes := make([]Node, n)
	src := rng.New(seed)
	for i := range nodes {
		nodes[i] = &replayNode{id: i, r: src.Derive(uint64(i)), limit: limit}
	}
	return nodes
}

type runCapture struct {
	res    Result
	rounds []RoundTraffic
	heard  [][]msg.Message
}

// captureGraph is the graph captureRun runs on.
func captureGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyiAvgDegree(rng.New(77), n, 6)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func captureRun(t *testing.T, run Engine, n, limit int, seed uint64, fault FaultInjector) runCapture {
	t.Helper()
	g := captureGraph(t, n)
	nodes := replayNodes(n, limit, seed)
	var rc runCapture
	res, err := run(g, nodes, Config{
		MaxRounds: limit + 5,
		Fault:     fault,
		Observe:   func(rt RoundTraffic) { rc.rounds = append(rc.rounds, rt) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rc.res = res
	rc.heard = make([][]msg.Message, n)
	for i, nd := range nodes {
		rc.heard[i] = nd.(*replayNode).heard
	}
	return rc
}

// segmentCut reports whether side cuts some sender off from every one
// of its neighbors in some shard of a k-way split, so the router has a
// record whose whole segment is dropped.
func segmentCut(g *graph.Graph, side []bool, k int) bool {
	_, owner := shardBounds(g.N(), k)
	segs := buildShardSegments(g, owner, k)
	for u := 0; u < g.N(); u++ {
		for _, sg := range segs.of(u) {
			cut := true
			for _, v := range segs.flat[sg.lo:sg.hi] {
				cut = cut && side[v] != side[u]
			}
			if cut {
				return true
			}
		}
	}
	return false
}

// RunShard must be observationally identical to RunSync — Result,
// per-round RoundTraffic stream, and every node's full sorted-inbox
// history — for any worker count, with and without faults.
func TestShardMatchesSync(t *testing.T) {
	const n, limit = 47, 12
	side := make([]bool, n)
	for v := range 8 {
		side[v] = true
	}
	if !segmentCut(captureGraph(t, n), side, 3) {
		t.Fatal("partition drops no whole segment at 3 workers")
	}
	faults := map[string]FaultInjector{
		"reliable":  nil,
		"droprate":  DropRate{Seed: 9, P: 0.2},
		"partition": Partition{Side: side},
	}
	for fname, fault := range faults {
		want := captureRun(t, RunSync, n, limit, 5, fault)
		for _, workers := range []int{0, 1, 2, 3, 7, n, n + 10} {
			got := captureRun(t, shardWith(workers), n, limit, 5, fault)
			label := fname
			if got.res != want.res {
				t.Fatalf("%s workers=%d: Result differs:\nshard: %+v\nsync:  %+v", label, workers, got.res, want.res)
			}
			if !reflect.DeepEqual(got.rounds, want.rounds) {
				t.Fatalf("%s workers=%d: RoundTraffic streams differ", label, workers)
			}
			if !reflect.DeepEqual(got.heard, want.heard) {
				t.Fatalf("%s workers=%d: inbox histories differ", label, workers)
			}
		}
	}
}

// Shard runs must be reproducible run-to-run for a fixed worker count:
// the merge barrier imposes a deterministic delivery order even though
// worker goroutines race to the barrier.
func TestShardDeterministicAcrossRuns(t *testing.T) {
	a := captureRun(t, shardWith(3), 33, 9, 11, DropRate{Seed: 4, P: 0.1})
	b := captureRun(t, shardWith(3), 33, 9, 11, DropRate{Seed: 4, P: 0.1})
	if a.res != b.res || !reflect.DeepEqual(a.rounds, b.rounds) || !reflect.DeepEqual(a.heard, b.heard) {
		t.Fatal("same-seed shard runs diverged")
	}
}

// TestShardSegmentsPartitionNeighbors pins the layout behind RunShard's
// record bound. A broadcast buffers one record per segment of its
// sender, so if every vertex's segments partition its neighbor list
// into at most min(workers, degree) shard-owned pieces, a run buffers
// at most workers records per message and never more than one per
// delivery. Each receiver's port column entry is the sender's position
// in the receiver's neighbor list.
func TestShardSegmentsPartitionNeighbors(t *testing.T) {
	dense, err := gen.ErdosRenyiAvgDegree(rng.New(31), 400, 8)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := gen.ErdosRenyiAvgDegree(rng.New(32), 60, 1.5) // has isolated vertices
	if err != nil {
		t.Fatal(err)
	}
	holes, err := gen.ErdosRenyiAvgDegree(rng.New(33), 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range append([]graph.Edge(nil), holes.Edges()...) {
		if i%4 == 0 {
			holes.RemoveEdge(e.U, e.V)
		}
	}
	if holes.EdgeIDBound() == holes.M() {
		t.Fatal("removals left no hole in the edge ids")
	}
	for _, g := range []*graph.Graph{dense, sparse, portGraph(t), holes} {
		for _, workers := range []int{1, 2, 3, 4, 8, g.N()} {
			_, owner := shardBounds(g.N(), workers)
			segs := buildShardSegments(g, owner, workers)
			pos := int32(0)
			for u := 0; u < g.N(); u++ {
				us := segs.of(u)
				if len(us) > min(workers, g.Degree(u)) {
					t.Fatalf("n=%d workers=%d: vertex %d has %d segments for degree %d",
						g.N(), workers, u, len(us), g.Degree(u))
				}
				got := []int{}
				for i, sg := range us {
					if i > 0 && sg.dst <= us[i-1].dst {
						t.Fatalf("n=%d workers=%d: vertex %d segments not in ascending destination order: %+v",
							g.N(), workers, u, us)
					}
					if sg.lo != pos || sg.hi <= sg.lo {
						t.Fatalf("n=%d workers=%d: vertex %d segment %+v is empty or not contiguous at %d",
							g.N(), workers, u, sg, pos)
					}
					pos = sg.hi
					for j, v := range segs.flat[sg.lo:sg.hi] {
						if owner[v] != sg.dst {
							t.Fatalf("n=%d workers=%d: vertex %d segment for shard %d holds %d, owned by %d",
								g.N(), workers, u, sg.dst, v, owner[v])
						}
						if p := segs.port[int(sg.lo)+j]; g.Neighbors(int(v))[p] != u {
							t.Fatalf("n=%d workers=%d: port %d of %d at receiver %d names %d",
								g.N(), workers, p, u, v, g.Neighbors(int(v))[p])
						}
						got = append(got, int(v))
					}
				}
				want := append([]int{}, g.Neighbors(u)...)
				sort.Ints(got)
				sort.Ints(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d workers=%d: vertex %d segments hold %v, neighbors are %v",
						g.N(), workers, u, got, want)
				}
			}
			if int(pos) != len(segs.flat) {
				t.Fatalf("n=%d workers=%d: segments cover %d of %d flat entries", g.N(), workers, pos, len(segs.flat))
			}
		}
	}
}

// BenchmarkShardFill times one shard's inbox fill at the scale of
// bench's edge-er workload (ER, n = 62,500, average degree 8), whose
// arena outgrows the caches: every vertex broadcasts one message, and
// one worker's arena takes all of them as one batch, routed reliably
// and with 5% of deliveries dropped. It reports the time per delivery
// and the bytes per delivery the fill writes into the arena (the
// message plus its slot's record/port entry).
func BenchmarkShardFill(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(1), 62_500, 8)
	if err != nil {
		b.Fatal(err)
	}
	owner := make([]int32, g.N())
	segs := buildShardSegments(g, owner, 1)
	for _, c := range []struct {
		name  string
		fault FaultInjector
	}{
		{"reliable", nil},
		{"drop=0.05", DropRate{Seed: 5, P: 0.05}},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := router{g: g, owner: owner, segs: &segs, fault: c.fault, out: make([]recordBatch, 1)}
			for u := 0; u < g.N(); u++ {
				r.route(0, u, msg.Message{Kind: msg.KindInvite, From: int32(u), To: msg.Broadcast, Edge: int32(u), Color: 1})
			}
			arena := newShardInbox(g.N())
			arena.fill(0, &segs, r.out)
			deliveries := len(arena.buf)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena.fill(0, &segs, r.out)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(deliveries), "ns/delivery")
			written := len(arena.buf)*int(unsafe.Sizeof(msg.Message{})) + len(arena.idx)*int(unsafe.Sizeof(arena.idx[0]))
			b.ReportMetric(float64(written)/float64(deliveries), "B/delivery")
		})
	}
}
