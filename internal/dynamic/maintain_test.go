package dynamic

import (
	"context"
	"reflect"
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

// deleteBatch deletes up to size distinct random live edges.
func deleteBatch(r *rng.Rand, g *graph.Graph, size int) *msg.MutationBatch {
	var live []graph.Edge
	for id := 0; id < g.EdgeIDBound(); id++ {
		if g.Live(graph.EdgeID(id)) {
			live = append(live, g.EdgeAt(graph.EdgeID(id)))
		}
	}
	b := &msg.MutationBatch{}
	for len(b.Muts) < size && len(live) > 0 {
		i := r.Intn(len(live))
		e := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		b.Muts = append(b.Muts, msg.Mutation{Op: msg.OpDelete, U: e.U, V: e.V})
	}
	return b
}

// starBatch inserts up to k missing edges around a center vertex,
// spiking its degree (and usually Δ).
func starBatch(g *graph.Graph, center, k int) *msg.MutationBatch {
	b := &msg.MutationBatch{}
	for v := 0; v < g.N() && len(b.Muts) < k; v++ {
		if v != center && !g.HasEdge(center, v) {
			b.Muts = append(b.Muts, msg.Mutation{Op: msg.OpInsert, U: center, V: v})
		}
	}
	return b
}

// paletteWithinBound asserts the maintained palette sits at or under
// 2Δ−1 for the graph's *current* maximum degree.
func paletteWithinBound(t *testing.T, rc *Recolorer) {
	t.Helper()
	d := rc.Graph().MaxDegree()
	bound := 2*d - 1
	if bound < 1 {
		bound = 1
	}
	if rc.MaxColor()+1 > bound {
		t.Fatalf("palette %d colors (max %d) exceeds 2Δ−1 = %d (Δ=%d)",
			rc.NumColors(), rc.MaxColor(), bound, d)
	}
}

// TestMaintainProperty is the satellite property test: after any
// mutation sequence plus Maintain, the coloring verifies valid, the id
// space is dense (EdgeIDBound == M()), the palette is within 2Δ−1 for
// the current Δ, and a cold re-run of the compacted graph is valid
// under every engine.
func TestMaintainProperty(t *testing.T) {
	engines := []struct {
		name    string
		e       net.Engine
		workers int
	}{{"sync", net.RunSync, 0}, {"shard", net.RunShard, 3}, {"shard-oversub", net.RunShard, runtime.GOMAXPROCS(0) + 2}}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			copt := core.Options{Seed: 5, Engine: eng.e, Workers: eng.workers}
			g, res := coldColor(t, 80, 220, 17, copt)
			rc, err := New(g, res.Colors, Options{Seed: 9, Repair: copt})
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(77)
			for i := 0; i < 30; i++ {
				var b *msg.MutationBatch
				switch i % 3 {
				case 0:
					b = randomBatch(r, rc.Graph(), 1+r.Intn(10))
				case 1:
					b = starBatch(rc.Graph(), r.Intn(rc.Graph().N()), 12)
				default:
					b = deleteBatch(r, rc.Graph(), 8+r.Intn(12))
				}
				if len(b.Muts) == 0 {
					continue
				}
				b.Seq = uint64(i)
				if _, err := rc.Apply(b); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			rep, err := rc.Maintain(context.Background(), MaintainOptions{Force: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil {
				t.Fatal("forced Maintain returned no report")
			}
			if !rep.Compacted && rc.Graph().EdgeIDBound() != rc.Graph().M() {
				t.Fatalf("no compaction but %d ids for %d live edges",
					rc.Graph().EdgeIDBound(), rc.Graph().M())
			}
			assertValid(t, rc)
			if err := rc.check(); err != nil {
				t.Fatal(err)
			}
			if got, want := rc.Graph().EdgeIDBound(), rc.Graph().M(); got != want {
				t.Fatalf("EdgeIDBound %d != M %d after Maintain", got, want)
			}
			if len(rc.Colors()) != rc.Graph().M() {
				t.Fatalf("coloring length %d != M %d", len(rc.Colors()), rc.Graph().M())
			}
			paletteWithinBound(t, rc)
			// Cold predicate: recolor the compacted graph from scratch and
			// hold it to the same verify predicate.
			cg, cc := rc.Compacted()
			if v := verify.EdgeColoring(cg, cc); len(v) > 0 {
				t.Fatalf("compacted maintained coloring invalid: %v", v[0])
			}
			cold, err := core.ColorEdges(cg, copt)
			if err != nil {
				t.Fatal(err)
			}
			if v := verify.EdgeColoring(cg, cold.Colors); len(v) > 0 {
				t.Fatalf("cold recolor of compacted graph invalid: %v", v[0])
			}
		})
	}
}

// TestMaintainShrinksAfterSpike: a degree spike inflates the palette;
// draining the spike strands top colors; Maintain reclaims them and the
// id holes. This is the "palette only ever grows" bug of the original
// caveat, end to end.
func TestMaintainShrinksAfterSpike(t *testing.T) {
	copt := core.Options{Seed: 2}
	g, res := coldColor(t, 100, 200, 11, copt)
	rc, err := New(g, res.Colors, Options{Seed: 21, Repair: copt})
	if err != nil {
		t.Fatal(err)
	}
	// Spike: a near-complete star on vertex 0 drives Δ to ~n-1.
	spike := starBatch(rc.Graph(), 0, 80)
	if _, err := rc.Apply(spike); err != nil {
		t.Fatal(err)
	}
	spikeMax := rc.MaxColor()
	// Drain: delete the same edges again.
	drain := &msg.MutationBatch{Seq: 1}
	for _, m := range spike.Muts {
		drain.Muts = append(drain.Muts, msg.Mutation{Op: msg.OpDelete, U: m.U, V: m.V})
	}
	rep, err := rc.Apply(drain)
	if err != nil {
		t.Fatal(err)
	}
	// Satellite: the post-batch report reflects freed top colors
	// immediately, not the historical high-water mark.
	if rep.MaxColor >= spikeMax && spikeMax > 2*rc.Graph().MaxDegree()-1 {
		t.Fatalf("delete-only batch still reports spike-era max color %d", rep.MaxColor)
	}
	if rep.NumColors != rc.NumColors() || rep.MaxColor != rc.MaxColor() {
		t.Fatalf("report palette %d/%d diverges from census %d/%d",
			rep.NumColors, rep.MaxColor, rc.NumColors(), rc.MaxColor())
	}
	// The drain left holes; stranded top colors may remain on edges
	// colored during the spike. Maintain must clear both.
	mrep, err := rc.Maintain(context.Background(), MaintainOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if mrep == nil || !mrep.Compacted {
		t.Fatalf("expected compaction after drain, got %+v", mrep)
	}
	if got, want := rc.Graph().EdgeIDBound(), rc.Graph().M(); got != want {
		t.Fatalf("EdgeIDBound %d != M %d", got, want)
	}
	assertValid(t, rc)
	if err := rc.check(); err != nil {
		t.Fatal(err)
	}
	paletteWithinBound(t, rc)
}

// TestMaintainAutoTrigger: with Options.Maintain set, delete-heavy
// churn trips the hole-ratio trigger from inside ApplyCtx and the batch
// report carries the maintenance report.
func TestMaintainAutoTrigger(t *testing.T) {
	copt := core.Options{Seed: 4}
	g, res := coldColor(t, 60, 180, 13, copt)
	rc, err := New(g, res.Colors, Options{
		Seed:     31,
		Repair:   copt,
		Maintain: &MaintainOptions{HoleRatio: 1.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	sawCompaction := false
	for i := 0; i < 40; i++ {
		b := deleteBatch(r, rc.Graph(), 6)
		if len(b.Muts) == 0 {
			break
		}
		b.Seq = uint64(i)
		rep, err := rc.Apply(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if rep.Maintenance != nil {
			if rep.Maintenance.Compacted {
				sawCompaction = true
				// Post-pass the hole ratio is back under the threshold.
				if b := rc.Graph().EdgeIDBound(); rc.Graph().M() > 0 && float64(b) > 1.2*float64(rc.Graph().M()) {
					t.Fatalf("batch %d: pass left %d ids over %d live", i, b, rc.Graph().M())
				}
			}
			// Report palette matches post-maintenance state.
			if rep.NumColors != rc.NumColors() || rep.MaxColor != rc.MaxColor() {
				t.Fatalf("batch %d: report palette stale after maintenance", i)
			}
		}
		assertValid(t, rc)
		if err := rc.check(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if !sawCompaction {
		t.Fatal("40 delete-heavy batches never tripped the 1.2 hole-ratio trigger")
	}
}

// TestMaintainNoop: a fresh dense recolorer within its palette bound
// has nothing to maintain — no report, no state change.
func TestMaintainNoop(t *testing.T) {
	copt := core.Options{Seed: 6}
	g, res := coldColor(t, 40, 90, 3, copt)
	rc, err := New(g, res.Colors, Options{Seed: 1, Repair: copt})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int(nil), rc.Colors()...)
	rep, err := rc.Maintain(context.Background(), MaintainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("no-op Maintain produced a report: %+v", rep)
	}
	after := rc.Colors()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("no-op Maintain changed color of edge %d", i)
		}
	}
}

// TestMaintainTightTarget: an explicit target below 2Δ−1 forces the
// greedy tier to fail and routes evictions through the constrained
// automaton; the result stays valid and within 2Δ−1 regardless.
func TestMaintainTightTarget(t *testing.T) {
	copt := core.Options{Seed: 7}
	g, res := coldColor(t, 60, 200, 23, copt)
	rc, err := New(g, res.Colors, Options{Seed: 5, Repair: copt})
	if err != nil {
		t.Fatal(err)
	}
	target := rc.Graph().MaxDegree() + 1 // Vizing-adjacent: usually tight
	rep, err := rc.Maintain(context.Background(), MaintainOptions{
		TargetColors: target,
		Force:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Rebalanced {
		t.Fatalf("forced tight-target pass did not rebalance: %+v", rep)
	}
	if rep.Evicted != rep.GreedyMoved+rep.RepairMoved+rep.FallbackMoved {
		t.Fatalf("evicted %d != moved %d+%d+%d", rep.Evicted,
			rep.GreedyMoved, rep.RepairMoved, rep.FallbackMoved)
	}
	assertValid(t, rc)
	if err := rc.check(); err != nil {
		t.Fatal(err)
	}
	paletteWithinBound(t, rc)
}

// TestMaintainDeterminism: same seed, same stream, same policy — the
// colors and the full (colors, maxColor, idBound) trajectory replay
// byte-identically across runs.
func TestMaintainDeterminism(t *testing.T) {
	type sample struct{ colors, maxColor, idBound, m int }
	run := func() ([]int, []sample) {
		copt := core.Options{Seed: 3}
		g, res := coldColor(t, 70, 190, 8, copt)
		rc, err := New(g, append([]int(nil), res.Colors...), Options{
			Seed:     42,
			Repair:   copt,
			Maintain: &MaintainOptions{HoleRatio: 1.1},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(1000)
		var traj []sample
		for i := 0; i < 30; i++ {
			var b *msg.MutationBatch
			if i%2 == 0 {
				b = deleteBatch(r, rc.Graph(), 7)
			} else {
				b = randomBatch(r, rc.Graph(), 5)
			}
			if len(b.Muts) == 0 {
				continue
			}
			if _, err := rc.Apply(b); err != nil {
				t.Fatal(err)
			}
			traj = append(traj, sample{rc.NumColors(), rc.MaxColor(),
				rc.Graph().EdgeIDBound(), rc.Graph().M()})
		}
		if _, err := rc.Maintain(context.Background(), MaintainOptions{Force: true}); err != nil {
			t.Fatal(err)
		}
		return append([]int(nil), rc.Colors()...), traj
	}
	c1, t1 := run()
	c2, t2 := run()
	if len(t1) != len(t2) {
		t.Fatalf("trajectory lengths diverge: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trajectory diverges at batch %d: %+v vs %+v", i, t1[i], t2[i])
		}
	}
	if len(c1) != len(c2) {
		t.Fatalf("color lengths diverge: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("colors diverge at edge %d: %d vs %d", i, c1[i], c2[i])
		}
	}
}

// TestMaintainDisabledIsByteIdentical: the maintenance hook must not
// perturb batch seed derivation. A recolorer with maintenance thresholds
// that never trip produces the exact same coloring as one with the
// feature off entirely (Options.Maintain == nil, the pre-maintenance
// configuration).
func TestMaintainDisabledIsByteIdentical(t *testing.T) {
	run := func(mo *MaintainOptions) []int {
		copt := core.Options{Seed: 3}
		g, res := coldColor(t, 50, 120, 8, copt)
		rc, err := New(g, append([]int(nil), res.Colors...), Options{
			Seed: 42, Palette: res.MaxColor + 1, Repair: copt, Maintain: mo,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(1000)
		for i := 0; i < 15; i++ {
			if _, err := rc.Apply(randomBatch(r, rc.Graph(), 5)); err != nil {
				t.Fatal(err)
			}
		}
		return append([]int(nil), rc.Colors()...)
	}
	off := run(nil)
	never := run(&MaintainOptions{HoleRatio: 1e9, PaletteSlack: 1 << 30})
	if len(off) != len(never) {
		t.Fatalf("lengths diverge: %d vs %d", len(off), len(never))
	}
	for i := range off {
		if off[i] != never[i] {
			t.Fatalf("colors diverge at edge %d: %d vs %d", i, off[i], never[i])
		}
	}
}

// TestSoakEpochInvariants streams each temporal workload through a
// recolorer with auto-maintenance on and checks, at every epoch
// boundary, the bounds maintenance exists to keep: palette within
// 2Δ−1 (+ PaletteSlack) for the current Δ, id space within HoleRatio ×
// live edges plus two batches of slack (a pass compacts only once the
// trigger trips), and a valid coloring. Each arm is then replayed from
// scratch and must reproduce the whole epoch trajectory and the final
// colors.
func TestSoakEpochInvariants(t *testing.T) {
	const (
		n, avgDeg            = 400, 8
		mutations, batchSize = 3_000, 50
		epochs               = 5
		holeRatio, slack     = 1.5, 0
	)
	type epoch struct {
		mutations, batches, m, idBound, delta, colors, maxColor int
		passes, compactions, rebalances                         int
	}
	batchesPerEpoch := (mutations + epochs*batchSize - 1) / (epochs * batchSize)
	sources := []struct {
		name string
		make func(r *rng.Rand, m0 int) (gen.MutationSource, error)
	}{
		{"window", func(r *rng.Rand, m0 int) (gen.MutationSource, error) {
			return gen.NewSlidingWindow(r, m0/2, m0+m0/2)
		}},
		{"flash", func(r *rng.Rand, _ int) (gen.MutationSource, error) {
			// One ramp-hold-decay cycle per epoch.
			ramp := batchesPerEpoch * 2 / 5
			return gen.NewFlashCrowd(r, ramp, batchesPerEpoch-2*ramp, ramp)
		}},
		{"growth", func(r *rng.Rand, _ int) (gen.MutationSource, error) {
			return gen.NewPreferentialGrowth(r), nil
		}},
	}
	for idx, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			run := func() ([]epoch, []int) {
				seed := uint64(11 + idx)
				g, err := gen.ErdosRenyiAvgDegree(rng.New(seed), n, avgDeg)
				if err != nil {
					t.Fatal(err)
				}
				copt := core.Options{Seed: seed, Engine: net.RunShard}
				cold, err := core.ColorEdges(g, copt)
				if err != nil {
					t.Fatal(err)
				}
				if !cold.Terminated {
					t.Fatal("cold run truncated")
				}
				rc, err := New(g, cold.Colors, Options{
					Seed:     seed,
					Repair:   copt,
					Maintain: &MaintainOptions{HoleRatio: holeRatio, PaletteSlack: slack},
				})
				if err != nil {
					t.Fatal(err)
				}
				ms, err := src.make(rng.New(seed).Derive(1), g.M())
				if err != nil {
					t.Fatal(err)
				}
				var traj []epoch
				var cur epoch
				for e := 1; e <= epochs; e++ {
					for stalls := 0; cur.mutations < e*mutations/epochs; {
						b := ms.NextBatch(rc.Graph(), batchSize)
						if len(b.Muts) == 0 {
							if stalls++; stalls > 1000 {
								t.Fatalf("source dry after %d mutations", cur.mutations)
							}
							continue
						}
						stalls = 0
						rep, err := rc.Apply(b)
						if err != nil {
							t.Fatalf("batch %d: %v", cur.batches, err)
						}
						cur.mutations += len(b.Muts)
						cur.batches++
						if mr := rep.Maintenance; mr != nil {
							cur.passes++
							if mr.Compacted {
								cur.compactions++
							}
							if mr.Rebalanced {
								cur.rebalances++
							}
						}
					}
					rg := rc.Graph()
					cur.m, cur.idBound, cur.delta = rg.M(), rg.EdgeIDBound(), rg.MaxDegree()
					cur.colors, cur.maxColor = rc.NumColors(), rc.MaxColor()
					if bound := max(2*cur.delta-1, 1) + slack; cur.maxColor+1 > bound {
						t.Fatalf("epoch %d: max color %d over 2Δ−1+slack = %d (Δ=%d)", e, cur.maxColor, bound, cur.delta)
					}
					if float64(cur.idBound) > holeRatio*float64(max(cur.m, 1))+2*batchSize {
						t.Fatalf("epoch %d: id bound %d over %.1f × %d live + 2 batches", e, cur.idBound, holeRatio, cur.m)
					}
					assertValid(t, rc)
					traj = append(traj, cur)
				}
				return traj, append([]int(nil), rc.Colors()...)
			}
			traj, colors := run()
			if src.name == "window" && traj[len(traj)-1].compactions == 0 {
				t.Fatal("the hole-punching window workload never compacted")
			}
			replayTraj, replayColors := run()
			if !reflect.DeepEqual(replayTraj, traj) {
				t.Fatalf("replay trajectory diverged:\n%+v\n%+v", replayTraj, traj)
			}
			if !reflect.DeepEqual(replayColors, colors) {
				t.Fatal("replay final colors diverged")
			}
		})
	}
}
