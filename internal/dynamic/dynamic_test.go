package dynamic

import (
	"context"
	"runtime"
	"testing"

	"dima/internal/core"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

// coldColor generates a GNM graph and colors it from scratch.
func coldColor(t *testing.T, n, m int, seed uint64, opt core.Options) (*graph.Graph, *core.Result) {
	t.Helper()
	g, err := gen.ErdosRenyiGNM(rng.New(seed), n, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ColorEdges(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("cold run did not terminate")
	}
	return g, res
}

// randomBatch draws a mixed batch against the current graph: deletions
// of existing edges, insertions of missing ones, no duplicate pairs.
func randomBatch(r *rng.Rand, g *graph.Graph, size int) *msg.MutationBatch {
	b := &msg.MutationBatch{}
	touched := map[[2]int]bool{}
	for len(b.Muts) < size {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		p := [2]int{min(u, v), max(u, v)}
		if touched[p] {
			continue
		}
		touched[p] = true
		op := msg.OpInsert
		if g.HasEdge(u, v) {
			if r.Float64() < 0.4 {
				continue // leave some existing edges alone
			}
			op = msg.OpDelete
		}
		b.Muts = append(b.Muts, msg.Mutation{Op: op, U: u, V: v})
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// assertValid checks the maintained coloring against the same predicate
// a cold run is held to.
func assertValid(t *testing.T, rc *Recolorer) {
	t.Helper()
	if v := verify.EdgeColoring(rc.Graph(), rc.Colors()); len(v) > 0 {
		t.Fatalf("invalid maintained coloring: %v", v[0])
	}
}

// TestRecolorerPropertyChurn is the subsystem's central property test:
// across all three engines, with and without the recovery layer, any
// random mutation sequence leaves the incrementally maintained coloring
// passing the same verify predicate as a cold full recolor of the
// mutated graph.
func TestRecolorerPropertyChurn(t *testing.T) {
	engines := []struct {
		name    string
		e       net.Engine
		workers int
	}{{"sync", net.RunSync, 0}, {"shard", net.RunShard, 3}, {"shard-oversub", net.RunShard, runtime.GOMAXPROCS(0) + 2}}
	for _, eng := range engines {
		for _, recovery := range []bool{false, true} {
			name := eng.name
			if recovery {
				name += "-recovery"
			}
			t.Run(name, func(t *testing.T) {
				copt := core.Options{Seed: 5, Engine: eng.e, Workers: eng.workers}
				copt.Recovery.Enabled = recovery
				g, res := coldColor(t, 60, 150, 17, copt)
				// A tight palette cap (the cold palette) forces real
				// automaton repairs, not just greedy fills.
				rc, err := New(g, res.Colors, Options{
					Seed:    9,
					Palette: res.MaxColor + 1,
					Repair:  copt,
				})
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(33)
				repairs := 0
				for i := 0; i < 25; i++ {
					b := randomBatch(r, rc.Graph(), 1+r.Intn(8))
					b.Seq = uint64(i)
					rep, err := rc.Apply(b)
					if err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					if rep.GreedyColored+rep.RepairedEdges != rep.Inserted {
						t.Fatalf("batch %d: %d greedy + %d repaired != %d inserted",
							i, rep.GreedyColored, rep.RepairedEdges, rep.Inserted)
					}
					repairs += rep.RegionEdges
					assertValid(t, rc)
					if err := rc.check(); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
				}
				// The cold predicate on the mutated graph: recolor the
				// compacted snapshot from scratch and verify it too.
				cg, _ := rc.Compacted()
				cold, err := core.ColorEdges(cg, copt)
				if err != nil {
					t.Fatal(err)
				}
				if v := verify.EdgeColoring(cg, cold.Colors); len(v) > 0 {
					t.Fatalf("cold recolor of mutated graph invalid: %v", v[0])
				}
				if repairs == 0 {
					t.Log("warning: no batch reached the automaton repair path")
				}
			})
		}
	}
}

// TestRecolorerDeterminism: a fixed seed and a fixed mutation stream
// reproduce the exact same coloring, byte for byte, for single-edge and
// multi-edge batches alike.
func TestRecolorerDeterminism(t *testing.T) {
	run := func(size int) []int {
		copt := core.Options{Seed: 3}
		g, res := coldColor(t, 50, 120, 8, copt)
		rc, err := New(g, append([]int(nil), res.Colors...), Options{
			Seed: 42, Palette: res.MaxColor + 1, Repair: copt,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(1000)
		for i := 0; i < 15; i++ {
			if _, err := rc.Apply(randomBatch(r, rc.Graph(), size)); err != nil {
				t.Fatal(err)
			}
		}
		return rc.Colors()
	}
	for _, size := range []int{1, 5} {
		a, b := run(size), run(size)
		if len(a) != len(b) {
			t.Fatalf("batch size %d: lengths diverge: %d vs %d", size, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("batch size %d: colors diverge at edge %d: %d vs %d", size, i, a[i], b[i])
			}
		}
	}
}

// TestRecolorerGreedyDefaultNeverRepairs: with the default palette cap
// (2Δ−1) the fast path must absorb every insertion.
func TestRecolorerGreedyDefaultNeverRepairs(t *testing.T) {
	copt := core.Options{Seed: 2}
	g, res := coldColor(t, 40, 100, 4, copt)
	rc, err := New(g, res.Colors, Options{Seed: 6, Repair: copt})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(55)
	for i := 0; i < 20; i++ {
		rep, err := rc.Apply(randomBatch(r, rc.Graph(), 6))
		if err != nil {
			t.Fatal(err)
		}
		if rep.RegionEdges != 0 || rep.GreedyColored != rep.Inserted {
			t.Fatalf("batch %d: default cap reached the repair path: %+v", i, rep)
		}
		assertValid(t, rc)
	}
	// Palette bound: never beyond 2Δ−1 for the current Δ.
	if maxc := rc.MaxColor(); maxc > 2*rc.Graph().MaxDegree()-2 {
		t.Fatalf("max color %d exceeds 2Δ−2 = %d", maxc, 2*rc.Graph().MaxDegree()-2)
	}
}

// TestRecolorerPaletteCapForcesRepair drives insertions into a single
// vertex under a tight cap so the automaton path must fire.
func TestRecolorerPaletteCapForcesRepair(t *testing.T) {
	// Star K1,5 colored 0..4; cap 5 leaves no free color at the center
	// for a new spoke, forcing the frontier path.
	g := graph.New(8)
	colors := make([]int, 5)
	for i := 0; i < 5; i++ {
		id := g.MustAddEdge(0, i+1)
		colors[id] = i
	}
	rc, err := New(g, colors, Options{Seed: 1, Palette: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rc.Apply(&msg.MutationBatch{Muts: []msg.Mutation{
		{Op: msg.OpInsert, U: 0, V: 6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RegionEdges != 1 || rep.RepairedEdges != 1 || rep.GreedyColored != 0 {
		t.Fatalf("repair path not taken: %+v", rep)
	}
	if rep.RegionSize != 2 {
		t.Fatalf("region should be the two endpoints, got %d vertices", rep.RegionSize)
	}
	assertValid(t, rc)
	// The region automaton is still bound by the constraints: color 5
	// (first free beyond the cap) is what the fallback or automaton
	// must land on, never a color clashing at the center.
	if c := rc.Colors()[5]; c < 5 {
		t.Fatalf("new spoke colored %d, which clashes at the center", c)
	}
}

// TestRecolorerAtomicity: a batch with any inapplicable mutation leaves
// graph and coloring untouched.
func TestRecolorerAtomicity(t *testing.T) {
	copt := core.Options{Seed: 1}
	g, res := coldColor(t, 20, 40, 2, copt)
	rc, err := New(g, res.Colors, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int(nil), rc.Colors()...)
	m0 := rc.Graph().M()
	e := rc.Graph().EdgeAt(0)
	bad := []*msg.MutationBatch{
		{Muts: []msg.Mutation{{Op: msg.OpInsert, U: e.U, V: e.V}}},                                     // insert existing
		{Muts: []msg.Mutation{{Op: msg.OpDelete, U: e.U, V: e.V}, {Op: msg.OpDelete, U: e.U, V: e.V}}}, // duplicate pair
		{Muts: []msg.Mutation{{Op: msg.OpInsert, U: 0, V: 99}}},                                        // out of range
		{Muts: []msg.Mutation{{Op: msg.OpDelete, U: e.U, V: e.V}, {Op: msg.OpInsert, U: 5, V: 5}}},     // valid then self-loop
	}
	// A delete-of-missing pair, found by probing.
	for u := 0; u < 20 && len(bad) < 5; u++ {
		for v := u + 1; v < 20; v++ {
			if !rc.Graph().HasEdge(u, v) {
				bad = append(bad, &msg.MutationBatch{Muts: []msg.Mutation{
					{Op: msg.OpDelete, U: e.U, V: e.V}, // applicable first
					{Op: msg.OpDelete, U: u, V: v},     // then missing
				}})
				break
			}
		}
	}
	for i, b := range bad {
		if _, err := rc.Apply(b); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
		if rc.Graph().M() != m0 {
			t.Fatalf("bad batch %d mutated the graph", i)
		}
		for id, c := range rc.Colors() {
			if c != before[id] {
				t.Fatalf("bad batch %d mutated the coloring", i)
			}
		}
	}
}

// TestRecolorerCancelStaysValid: a canceled context degrades locality,
// never validity — the fallback completes the frontier.
func TestRecolorerCancelStaysValid(t *testing.T) {
	g := graph.New(8)
	colors := make([]int, 5)
	for i := 0; i < 5; i++ {
		id := g.MustAddEdge(0, i+1)
		colors[id] = i
	}
	rc, err := New(g, colors, Options{Seed: 1, Palette: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := rc.ApplyCtx(ctx, &msg.MutationBatch{Muts: []msg.Mutation{
		{Op: msg.OpInsert, U: 0, V: 6},
		{Op: msg.OpInsert, U: 0, V: 7},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aborted || rep.FallbackEdges == 0 {
		t.Fatalf("canceled repair should fall back: %+v", rep)
	}
	assertValid(t, rc)
	if err := rc.check(); err != nil {
		t.Fatal(err)
	}
}

// TestRecolorerDeleteOnly: deletions free colors and shrink the palette
// accounting without ever touching the automaton.
func TestRecolorerDeleteOnly(t *testing.T) {
	copt := core.Options{Seed: 14}
	g, res := coldColor(t, 30, 60, 3, copt)
	rc, err := New(g, res.Colors, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rc.Graph().M() > 0 {
		var mut msg.Mutation
		for id := 0; id < rc.Graph().EdgeIDBound(); id++ {
			if rc.Graph().Live(graph.EdgeID(id)) {
				e := rc.Graph().EdgeAt(graph.EdgeID(id))
				mut = msg.Mutation{Op: msg.OpDelete, U: e.U, V: e.V}
				break
			}
		}
		rep, err := rc.Apply(&msg.MutationBatch{Muts: []msg.Mutation{mut}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RegionEdges != 0 || rep.Inserted != 0 {
			t.Fatalf("deletion triggered repair: %+v", rep)
		}
		assertValid(t, rc)
	}
	if rc.NumColors() != 0 || rc.MaxColor() != -1 {
		t.Fatalf("empty graph still reports colors: %d/%d", rc.NumColors(), rc.MaxColor())
	}
}

// TestCompactedSnapshot: the dense export matches the holey state and
// is itself a valid (graph, coloring) pair.
func TestCompactedSnapshot(t *testing.T) {
	copt := core.Options{Seed: 19}
	g, res := coldColor(t, 25, 70, 6, copt)
	rc, err := New(g, res.Colors, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(71)
	for i := 0; i < 10; i++ {
		if _, err := rc.Apply(randomBatch(r, rc.Graph(), 4)); err != nil {
			t.Fatal(err)
		}
	}
	cg, colors := rc.Compacted()
	if cg.M() != rc.Graph().M() || cg.EdgeIDBound() != cg.M() {
		t.Fatalf("compacted shape: M=%d want %d, bound=%d", cg.M(), rc.Graph().M(), cg.EdgeIDBound())
	}
	if v := verify.EdgeColoring(cg, colors); len(v) > 0 {
		t.Fatalf("compacted coloring invalid: %v", v[0])
	}
	// The snapshot is independent: mutating it must not leak back.
	cg.MustAddEdge(0, 1)
}

// TestNewRejects: arity mismatches, uncolored edges, and (under Strict)
// improper colorings are rejected up front.
func TestNewRejects(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	if _, err := New(g, []int{0}, Options{}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := New(g, []int{0, -1}, Options{}); err == nil {
		t.Fatal("uncolored edge accepted")
	}
	if _, err := New(g, []int{0, 0}, Options{Strict: true}); err == nil {
		t.Fatal("improper coloring accepted under Strict")
	}
	if _, err := New(g, []int{0, 0}, Options{}); err != nil {
		t.Fatal("non-strict New should not verify adjacency")
	}
}
