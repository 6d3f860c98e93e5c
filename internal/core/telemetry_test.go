package core

import (
	"fmt"
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

// assertStreamMatchesResult checks a run's RoundStats stream against
// its Result and the per-round invariants that hold on every run,
// reliable or lossy with recovery: one record per computation round,
// traffic and all six event fields summing to the Result aggregates,
// ByKind re-summing to the round totals, Paired <= Active,
// Inviters + Listeners == Active, Done == n - Active, and, for a
// terminated run, ColoredTotal equal to the item count.
func assertStreamMatchesResult(t *testing.T, name string, res *Result, rounds []metrics.RoundStats, n int) {
	t.Helper()
	if len(rounds) != res.CompRounds {
		t.Fatalf("%s: %d RoundStats for %d comp rounds", name, len(rounds), res.CompRounds)
	}
	var sum metrics.RoundStats
	for i, rs := range rounds {
		if rs.Round != i {
			t.Fatalf("%s: round %d labeled %d", name, i, rs.Round)
		}
		if rs.Paired > rs.Active || rs.Inviters+rs.Listeners != rs.Active || rs.Done != n-rs.Active {
			t.Fatalf("%s: round %d active %d, inviters %d + listeners %d, paired %d, done %d of %d nodes",
				name, i, rs.Active, rs.Inviters, rs.Listeners, rs.Paired, rs.Done, n)
		}
		var km, kd, kb int64
		for _, kt := range rs.ByKind {
			km += kt.Messages
			kd += kt.Deliveries
			kb += kt.Bytes
		}
		if km != rs.Messages || kd != rs.Deliveries || kb != rs.Bytes {
			t.Fatalf("%s: round %d ByKind split does not re-sum: %+v", name, i, rs)
		}
		sum.Messages += rs.Messages
		sum.Deliveries += rs.Deliveries
		sum.Bytes += rs.Bytes
		sum.CommRounds += rs.CommRounds
		sum.DefensiveRejects += rs.DefensiveRejects
		sum.ConflictsDropped += rs.ConflictsDropped
		sum.Retransmits += rs.Retransmits
		sum.Repairs += rs.Repairs
		sum.Reverts += rs.Reverts
		sum.Probes += rs.Probes
	}
	if sum.Messages != res.Messages || sum.Deliveries != res.Deliveries || sum.Bytes != res.Bytes {
		t.Fatalf("%s: traffic %d/%d/%d != result %d/%d/%d", name,
			sum.Messages, sum.Deliveries, sum.Bytes, res.Messages, res.Deliveries, res.Bytes)
	}
	if sum.CommRounds != res.CommRounds {
		t.Fatalf("%s: comm rounds %d != %d", name, sum.CommRounds, res.CommRounds)
	}
	got := [6]int{sum.DefensiveRejects, sum.ConflictsDropped, sum.Retransmits, sum.Repairs, sum.Reverts, sum.Probes}
	want := [6]int{res.DefensiveRejects, res.ConflictsDropped, res.Retransmits, res.Repairs, res.Reverts, res.Probes}
	if got != want {
		t.Fatalf("%s: stream rejects/dropped/retransmits/repairs/reverts/probes %v != result %v", name, got, want)
	}
	if res.Terminated && len(rounds) > 0 && rounds[len(rounds)-1].ColoredTotal != len(res.Colors) {
		t.Fatalf("%s: ColoredTotal %d != %d items", name, rounds[len(rounds)-1].ColoredTotal, len(res.Colors))
	}
}

// lossyRecovery is the recovery arm of the stream tests: 10% uniform
// delivery loss with the loss-recovery extension enabled.
func lossyRecovery(seed uint64, engine net.Engine) Options {
	return recoveryOptions(seed, net.DropRate{Seed: seed + 100, P: 0.1}, engine)
}

// TestRoundStatsTotalsMatchResult is the headline acceptance check:
// RoundStats summed over the stream reproduces the Result aggregates,
// for both algorithms on the sync and a multi-worker shard engine, on
// reliable runs and on lossy runs with recovery. On reliable runs every
// colored item is two pairing events and the final palette is the
// Result's.
func TestRoundStatsTotalsMatchResult(t *testing.T) {
	engines := map[string]net.Engine{"sync": net.RunSync, "shard-3": shardWorkers(3)}
	for gname, g := range telemetryGraphs(t) {
		for _, algo := range []string{"edges", "strong"} {
			for ename, eng := range engines {
				name := gname + "/" + algo + "/" + ename
				res, rounds := runWithMetrics(t, algo, g, Options{Seed: 11, Engine: eng})
				assertStreamMatchesResult(t, name, res, rounds, g.N())
				paired := 0
				for _, rs := range rounds {
					paired += rs.Paired
				}
				if paired != 2*len(res.Colors) {
					t.Fatalf("%s: paired sum %d != 2×%d", name, paired, len(res.Colors))
				}
				last := rounds[len(rounds)-1]
				if last.NumColors != res.NumColors || last.MaxColor != res.MaxColor {
					t.Fatalf("%s: palette %d/%d != %d/%d", name,
						last.NumColors, last.MaxColor, res.NumColors, res.MaxColor)
				}

				res, rounds = runWithMetrics(t, algo, g, lossyRecovery(11, eng))
				if !res.Terminated {
					t.Fatalf("%s/lossy: recovery run did not terminate", name)
				}
				if res.Retransmits+res.Repairs+res.Reverts+res.Probes == 0 {
					t.Fatalf("%s/lossy: recovery never acted; the arm tests nothing", name)
				}
				assertStreamMatchesResult(t, name+"/lossy", res, rounds, g.N())
			}
		}
	}
}

// TestRoundStatsPairedWithinActiveUnderRecovery is the regression test
// for recovery repairs by nodes that were not active in a round (a
// finished node resurrected by a revert, or one lingering for an
// acknowledgement): they color items but must not count as paired, so
// Paired <= Active and Inviters + Listeners == Active in every round of
// lossy recovery runs, on the sync and a multi-worker shard engine.
func TestRoundStatsPairedWithinActiveUnderRecovery(t *testing.T) {
	engines := map[string]net.Engine{"sync": net.RunSync, "shard-3": shardWorkers(3)}
	for seed := uint64(0); seed < 10; seed++ {
		g, err := gen.ErdosRenyiAvgDegree(rng.New(seed), 120, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{"edges", "strong"} {
			for ename, eng := range engines {
				name := fmt.Sprintf("seed %d/%s/%s", seed, algo, ename)
				res, rounds := runWithMetrics(t, algo, g, lossyRecovery(seed, eng))
				assertStreamMatchesResult(t, name, res, rounds, g.N())
			}
		}
	}
}

// TestRoundStatsEngineEquivalence: identical seeds produce a
// byte-identical RoundStats stream on every in-process engine layout
// (part of the engine equivalence property).
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

// roundClock is a metrics.Sink that records, for every RoundStats it
// receives, how many communication rounds the engine had completed.
type roundClock struct {
	commDone int   // communication rounds completed, per the engine's observer
	at       []int // at[r]: commDone when round r arrived
}

func (c *roundClock) EmitRound(rs metrics.RoundStats) { c.at = append(c.at, c.commDone) }

// engine wraps eng so that every communication round it completes
// advances the clock before the run's own observer sees the round.
func (c *roundClock) engine(eng net.Engine) net.Engine {
	return func(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
		observe := cfg.Observe
		cfg.Observe = func(rt net.RoundTraffic) {
			c.commDone = rt.Round + 1
			observe(rt)
		}
		return eng(g, nodes, cfg)
	}
}

// TestRoundStatsStreamIsLive: the sink receives computation round r
// during the run, before communication round (r+2)·phases runs — one
// computation round behind the barrier, not after the run.
func TestRoundStatsStreamIsLive(t *testing.T) {
	g := telemetryGraphs(t)["er"]
	engines := map[string]net.Engine{"sync": net.RunSync, "shard-3": shardWorkers(3)}
	for _, algo := range []string{"edges", "strong"} {
		phases := ecPhases
		if algo == "strong" {
			phases = scPhases
		}
		for ename, eng := range engines {
			clock := &roundClock{}
			opt := Options{Seed: 19, Engine: clock.engine(eng), Metrics: clock}
			var res *Result
			if algo == "strong" {
				res = mustColorStrong(t, graph.NewSymmetric(g), opt)
			} else {
				res = mustColorEdges(t, g, opt)
			}
			if len(clock.at) != res.CompRounds || res.CompRounds < 4 {
				t.Fatalf("%s/%s: %d rounds streamed for %d comp rounds", algo, ename, len(clock.at), res.CompRounds)
			}
			for r, done := range clock.at {
				if done > (r+2)*phases {
					t.Fatalf("%s/%s: round %d arrived after %d communication rounds, want at most %d",
						algo, ename, r, done, (r+2)*phases)
				}
			}
		}
	}
}

// TestParticipationInvariants covers the stream's participation
// fields on ER and regular graphs for both algorithms: on reliable runs
// Active never increases (under recovery a revert can resurrect a
// finished node) and Paired never exceeds Active.
func TestParticipationInvariants(t *testing.T) {
	for gname, g := range telemetryGraphs(t) {
		for _, algo := range []string{"edges", "strong"} {
			name := gname + "/" + algo
			_, rounds := runWithMetrics(t, algo, g, Options{Seed: 43})
			if len(rounds) == 0 {
				t.Fatalf("%s: no participation data", name)
			}
			prev := g.N() + 1
			for i, rs := range rounds {
				if rs.Active > prev {
					t.Fatalf("%s: Active increased at round %d: %d > %d", name, i, rs.Active, prev)
				}
				if rs.Paired > rs.Active {
					t.Fatalf("%s: round %d Paired %d > Active %d", name, i, rs.Paired, rs.Active)
				}
				if rs.Active < 0 || rs.Paired < 0 {
					t.Fatalf("%s: negative counts at round %d: %+v", name, i, rs)
				}
				prev = rs.Active
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
