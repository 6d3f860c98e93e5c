package core

import (
	"reflect"
	"testing"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/net"
	"dima/internal/rng"
)

// telemetryGraphs is the test corpus for the RoundStats invariants: an
// Erdős–Rényi graph and a random regular graph, per the paper's two
// experimental graph families.
func telemetryGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	er, err := gen.ErdosRenyiAvgDegree(rng.New(7), 60, 6)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := gen.RandomRegular(rng.New(8), 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"er": er, "regular": reg}
}

// runWithMetrics executes one algorithm with a Memory sink attached.
func runWithMetrics(t *testing.T, algo string, g *graph.Graph, opt Options) (*Result, []metrics.RoundStats) {
	t.Helper()
	mem := &metrics.Memory{}
	opt.Metrics = mem
	var res *Result
	if algo == "strong" {
		res = mustColorStrong(t, graph.NewSymmetric(g), opt)
	} else {
		res = mustColorEdges(t, g, opt)
	}
	return res, mem.Rounds
}

// TestRoundStatsTotalsMatchResult is the headline acceptance check:
// RoundStats summed over the stream reproduces the Result aggregates,
// for both algorithms on the sync and a multi-worker shard engine.
func TestRoundStatsTotalsMatchResult(t *testing.T) {
	engines := map[string]net.Engine{"sync": net.RunSync, "shard-3": shardWorkers(3)}
	for gname, g := range telemetryGraphs(t) {
		for _, algo := range []string{"edges", "strong"} {
			for ename, eng := range engines {
				res, rounds := runWithMetrics(t, algo, g, Options{Seed: 11, Engine: eng})
				name := gname + "/" + algo + "/" + ename
				if len(rounds) != res.CompRounds {
					t.Fatalf("%s: %d RoundStats for %d comp rounds", name, len(rounds), res.CompRounds)
				}
				var messages, deliveries, bytes int64
				var commRounds, conflicts, rejects, paired int
				for i, rs := range rounds {
					if rs.Round != i {
						t.Fatalf("%s: round %d labeled %d", name, i, rs.Round)
					}
					messages += rs.Messages
					deliveries += rs.Deliveries
					bytes += rs.Bytes
					commRounds += rs.CommRounds
					conflicts += rs.ConflictsDropped
					rejects += rs.DefensiveRejects
					paired += rs.Paired
					var km, kd, kb int64
					for _, kt := range rs.ByKind {
						km += kt.Messages
						kd += kt.Deliveries
						kb += kt.Bytes
					}
					if km != rs.Messages || kd != rs.Deliveries || kb != rs.Bytes {
						t.Fatalf("%s: round %d ByKind split does not re-sum: %+v", name, i, rs)
					}
				}
				if messages != res.Messages || deliveries != res.Deliveries || bytes != res.Bytes {
					t.Fatalf("%s: traffic %d/%d/%d != result %d/%d/%d", name,
						messages, deliveries, bytes, res.Messages, res.Deliveries, res.Bytes)
				}
				if commRounds != res.CommRounds {
					t.Fatalf("%s: comm rounds %d != %d", name, commRounds, res.CommRounds)
				}
				if conflicts != res.ConflictsDropped || rejects != res.DefensiveRejects {
					t.Fatalf("%s: conflicts/rejects %d/%d != %d/%d", name,
						conflicts, rejects, res.ConflictsDropped, res.DefensiveRejects)
				}
				// Each pairing colors one item and involves the two
				// endpoints logging one assignment each, so Paired summed
				// over rounds is twice the item count... except that each
				// node pairs at most once per round, so Paired counts
				// node-pairings: 2 per colored item.
				last := rounds[len(rounds)-1]
				wantItems := len(res.Colors)
				if last.ColoredTotal != wantItems {
					t.Fatalf("%s: ColoredTotal %d != %d items", name, last.ColoredTotal, wantItems)
				}
				if paired != 2*wantItems {
					t.Fatalf("%s: paired sum %d != 2×%d", name, paired, wantItems)
				}
				if last.NumColors != res.NumColors || last.MaxColor != res.MaxColor {
					t.Fatalf("%s: palette %d/%d != %d/%d", name,
						last.NumColors, last.MaxColor, res.NumColors, res.MaxColor)
				}
			}
		}
	}
}

// TestRoundStatsEngineEquivalence: identical seeds produce a
// byte-identical RoundStats stream on every engine (satellite of the
// sync/chan/shard equivalence property).
func TestRoundStatsEngineEquivalence(t *testing.T) {
	for gname, g := range telemetryGraphs(t) {
		for _, algo := range []string{"edges", "strong"} {
			_, syncRounds := runWithMetrics(t, algo, g, Options{Seed: 23, Engine: net.RunSync})
			for _, eng := range testEngines[1:] {
				_, engRounds := runWithMetrics(t, algo, g, Options{Seed: 23, Engine: eng.run})
				if !reflect.DeepEqual(syncRounds, engRounds) {
					t.Fatalf("%s/%s: RoundStats streams diverge between engines\nsync: %+v\n%s: %+v",
						gname, algo, syncRounds, eng.name, engRounds)
				}
			}
		}
	}
}

// TestRoundStatsMatchParticipation: with both collectors enabled, the
// stream's Active/Paired equal Result.Participation exactly, and the
// per-round structural invariants hold.
func TestRoundStatsMatchParticipation(t *testing.T) {
	for gname, g := range telemetryGraphs(t) {
		for _, algo := range []string{"edges", "strong"} {
			res, rounds := runWithMetrics(t, algo, g, Options{Seed: 31, CollectParticipation: true})
			name := gname + "/" + algo
			if len(res.Participation) != len(rounds) {
				t.Fatalf("%s: %d participation rounds, %d RoundStats",
					name, len(res.Participation), len(rounds))
			}
			for i, rs := range rounds {
				p := res.Participation[i]
				if rs.Active != p.Active || rs.Paired != p.Paired {
					t.Fatalf("%s: round %d stats %d/%d != participation %d/%d",
						name, i, rs.Active, rs.Paired, p.Active, p.Paired)
				}
			}
		}
	}
}

// TestParticipationInvariants covers Options.CollectParticipation on
// ER and regular graphs for both algorithms: Active never increases
// and Paired never exceeds Active.
func TestParticipationInvariants(t *testing.T) {
	for gname, g := range telemetryGraphs(t) {
		for _, algo := range []string{"edges", "strong"} {
			opt := Options{Seed: 43, CollectParticipation: true}
			var res *Result
			if algo == "strong" {
				res = mustColorStrong(t, graph.NewSymmetric(g), opt)
			} else {
				res = mustColorEdges(t, g, opt)
			}
			name := gname + "/" + algo
			if len(res.Participation) == 0 {
				t.Fatalf("%s: no participation data", name)
			}
			prev := g.N() + 1
			for i, p := range res.Participation {
				if p.Active > prev {
					t.Fatalf("%s: Active increased at round %d: %d > %d", name, i, p.Active, prev)
				}
				if p.Paired > p.Active {
					t.Fatalf("%s: round %d Paired %d > Active %d", name, i, p.Paired, p.Active)
				}
				if p.Active < 0 || p.Paired < 0 {
					t.Fatalf("%s: negative counts at round %d: %+v", name, i, p)
				}
				prev = p.Active
			}
		}
	}
}

// TestRoundStatsStructural checks the per-round fields that don't map
// to a Result aggregate: the inviter/listener split, Done complement,
// and monotone palette growth.
func TestRoundStatsStructural(t *testing.T) {
	g := telemetryGraphs(t)["er"]
	for _, algo := range []string{"edges", "strong"} {
		_, rounds := runWithMetrics(t, algo, g, Options{Seed: 53})
		prevColored, prevColors := 0, 0
		for i, rs := range rounds {
			if rs.Inviters+rs.Listeners != rs.Active {
				t.Fatalf("%s: round %d inviters %d + listeners %d != active %d",
					algo, i, rs.Inviters, rs.Listeners, rs.Active)
			}
			if rs.Done != g.N()-rs.Active {
				t.Fatalf("%s: round %d done %d != %d - active %d", algo, i, rs.Done, g.N(), rs.Active)
			}
			if rs.ColoredTotal < prevColored || rs.NumColors < prevColors {
				t.Fatalf("%s: round %d progress went backwards: %+v", algo, i, rs)
			}
			prevColored, prevColors = rs.ColoredTotal, rs.NumColors
		}
	}
}

// TestBroadcastSinkDoesNotPerturbRun is the serving-telemetry
// acceptance property: attaching a BroadcastSink (composed with a
// Memory sink, as dimaserve does) — including one with a slow,
// never-reading subscriber — yields byte-identical Results and
// RoundStats streams to a nil-sink run, on every engine. The fan-out
// must never block or reorder the emitting path.
func TestBroadcastSinkDoesNotPerturbRun(t *testing.T) {
	for gname, g := range telemetryGraphs(t) {
		for _, algo := range []string{"edges", "strong"} {
			for _, eng := range testEngines {
				name := gname + "/" + algo + "/" + eng.name
				plainOpt := Options{Seed: 71, Engine: eng.run}
				var plain *Result
				if algo == "strong" {
					plain = mustColorStrong(t, graph.NewSymmetric(g), plainOpt)
				} else {
					plain = mustColorEdges(t, g, plainOpt)
				}

				bcast := metrics.NewBroadcastSink(16)
				slow := bcast.Subscribe(2) // fills after 2 events, then drops
				defer slow.Cancel()
				mem := &metrics.Memory{}
				opt := Options{Seed: 71, Engine: eng.run, Metrics: metrics.Multi(mem, bcast)}
				var observed *Result
				if algo == "strong" {
					observed = mustColorStrong(t, graph.NewSymmetric(g), opt)
				} else {
					observed = mustColorEdges(t, g, opt)
				}

				if !reflect.DeepEqual(plain, observed) {
					t.Fatalf("%s: attaching a BroadcastSink changed the Result", name)
				}
				// The broadcast published exactly the Memory stream, in order.
				if int(bcast.Seq()) != len(mem.Rounds) {
					t.Fatalf("%s: broadcast published %d events for %d rounds",
						name, bcast.Seq(), len(mem.Rounds))
				}
				for i, ev := range bcast.Replay() {
					rs, ok := ev.Data.(metrics.RoundStats)
					if !ok || !reflect.DeepEqual(rs, mem.Rounds[int(ev.Seq)-1]) {
						t.Fatalf("%s: broadcast event %d diverges from the Memory stream", name, i)
					}
				}
				if dropped := bcast.DroppedTotal(); len(mem.Rounds) > 2 && dropped == 0 {
					t.Fatalf("%s: slow subscriber dropped nothing over %d rounds",
						name, len(mem.Rounds))
				}
			}
		}
	}
}

// TestBroadcastSinkStreamEquivalence: the event stream a BroadcastSink
// publishes is itself engine-independent — the same seed yields the
// same (Seq, RoundStats) sequence on every engine.
func TestBroadcastSinkStreamEquivalence(t *testing.T) {
	g := telemetryGraphs(t)["er"]
	for _, algo := range []string{"edges", "strong"} {
		var ref []metrics.Event
		for _, eng := range testEngines {
			bcast := metrics.NewBroadcastSink(0)
			opt := Options{Seed: 83, Engine: eng.run, Metrics: bcast}
			if algo == "strong" {
				mustColorStrong(t, graph.NewSymmetric(g), opt)
			} else {
				mustColorEdges(t, g, opt)
			}
			events := bcast.Replay()
			if ref == nil {
				ref = events
				continue
			}
			if !reflect.DeepEqual(ref, events) {
				t.Fatalf("%s/%s: broadcast stream diverges from sync engine", algo, eng.name)
			}
		}
	}
}

// TestMetricsNilSinkUnchanged: enabling metrics must not perturb the
// run itself — same seed with and without a sink yields the same
// coloring and traffic (the telemetry draws no randomness).
func TestMetricsNilSinkUnchanged(t *testing.T) {
	g := telemetryGraphs(t)["er"]
	plain := mustColorEdges(t, g, Options{Seed: 61})
	observed, _ := runWithMetrics(t, "edges", g, Options{Seed: 61})
	if !reflect.DeepEqual(plain.Colors, observed.Colors) ||
		plain.Messages != observed.Messages || plain.CompRounds != observed.CompRounds {
		t.Fatal("attaching a metrics sink changed the run")
	}
}
