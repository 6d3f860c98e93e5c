package core

import (
	"reflect"
	"sync"
	"testing"

	"dima/internal/automaton"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

// Acceptance tests for the loss-recovery extension (docs/ROBUSTNESS.md):
// under a sustained 10% delivery drop rate or a 12-round blackout, both
// algorithms must converge to complete valid colorings — terminated,
// zero half-colored items, zero verification violations — on both
// engines, deterministically per seed.

// recoveryFaults returns the fault scenarios the acceptance criteria
// name: sustained uniform loss and a transient total outage.
func recoveryFaults(seed uint64) []struct {
	name  string
	fault net.FaultInjector
} {
	return []struct {
		name  string
		fault net.FaultInjector
	}{
		{"droprate-10", net.DropRate{Seed: seed, P: 0.1}},
		{"blackout-12", net.Blackout{FromRound: 6, ToRound: 18}},
	}
}

func recoveryOptions(seed uint64, fault net.FaultInjector, engine net.Engine) Options {
	return Options{
		Seed:          seed,
		Engine:        engine,
		MaxCompRounds: 5000,
		Fault:         fault,
		Recovery:      automaton.Recovery{Enabled: true},
	}
}

// assertComplete checks the full acceptance predicate on one run.
func assertComplete(t *testing.T, label string, res *Result, violations []verify.Violation) {
	t.Helper()
	if !res.Terminated {
		t.Fatalf("%s: not terminated after %d rounds (half=%d)", label, res.CompRounds, res.HalfColored)
	}
	if res.HalfColored != 0 {
		t.Fatalf("%s: %d half-colored items", label, res.HalfColored)
	}
	for _, c := range res.Colors {
		if c < 0 {
			t.Fatalf("%s: uncolored item despite termination", label)
		}
	}
	if len(violations) != 0 {
		t.Fatalf("%s: %d violations, first: %v", label, len(violations), violations[0])
	}
}

func TestEdgeColorRecoveryCompletes(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(7), 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range testEngines {
		for _, fc := range recoveryFaults(99) {
			for seed := uint64(0); seed < 6; seed++ {
				res, err := ColorEdges(g, recoveryOptions(seed, fc.fault, engine.run))
				if err != nil {
					t.Fatal(err)
				}
				label := engine.name + "/" + fc.name
				assertComplete(t, label, res, verify.EdgeColoring(g, res.Colors))
			}
		}
	}
}

func TestStrongColorRecoveryCompletes(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(7), 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	for _, engine := range testEngines {
		for _, fc := range recoveryFaults(99) {
			for seed := uint64(0); seed < 6; seed++ {
				res, err := ColorStrong(d, recoveryOptions(seed, fc.fault, engine.run))
				if err != nil {
					t.Fatal(err)
				}
				label := engine.name + "/" + fc.name
				assertComplete(t, label, res, verify.StrongColoring(d, res.Colors))
			}
		}
	}
}

// Faulty recovery runs must be reproducible: the same seed produces the
// same Result, colors included.
func TestRecoveryDeterministicPerSeed(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(11), 50, 6)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	fault := net.DropRate{Seed: 5, P: 0.1}
	for seed := uint64(0); seed < 3; seed++ {
		a := mustColorEdges(t, g, recoveryOptions(seed, fault, nil))
		b := mustColorEdges(t, g, recoveryOptions(seed, fault, nil))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("edge coloring seed %d not reproducible:\n%+v\n%+v", seed, a, b)
		}
		sa := mustColorStrong(t, d, recoveryOptions(seed, fault, nil))
		sb := mustColorStrong(t, d, recoveryOptions(seed, fault, nil))
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("strong coloring seed %d not reproducible:\n%+v\n%+v", seed, sa, sb)
		}
	}
}

// Under faults with recovery enabled, the engines must still be
// observationally identical: the full Result and the entire per-round
// telemetry stream (which folds net.RoundTraffic round by round,
// traffic split by kind included) match field for field.
func TestRecoveryEnginesEquivalentUnderFaults(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(3), 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewSymmetric(g)
	fault := net.DropRate{Seed: 42, P: 0.15}
	run := func(strong bool, engine net.Engine, seed uint64) (*Result, []metrics.RoundStats) {
		mem := &metrics.Memory{}
		opt := recoveryOptions(seed, fault, engine)
		opt.Metrics = mem
		var res *Result
		var err error
		if strong {
			res, err = ColorStrong(d, opt)
		} else {
			res, err = ColorEdges(g, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, mem.Rounds
	}
	for _, strong := range []bool{false, true} {
		name := "alg1"
		if strong {
			name = "alg2"
		}
		for seed := uint64(0); seed < 3; seed++ {
			sres, srounds := run(strong, net.RunSync, seed)
			for _, eng := range testEngines[1:] {
				cres, crounds := run(strong, eng.run, seed)
				if !reflect.DeepEqual(sres, cres) {
					t.Fatalf("%s seed %d: results differ across engines:\nsync: %+v\n%s: %+v",
						name, seed, sres, eng.name, cres)
				}
				if len(srounds) != len(crounds) {
					t.Fatalf("%s seed %d: %s round stream length: %d vs %d",
						name, seed, eng.name, len(srounds), len(crounds))
				}
				for i := range srounds {
					if !reflect.DeepEqual(srounds[i], crounds[i]) {
						t.Fatalf("%s seed %d: round %d stats differ:\nsync: %+v\n%s: %+v",
							name, seed, i, srounds[i], eng.name, crounds[i])
					}
				}
			}
		}
	}
}

// resurrectionDetector is an automaton.Hook that flags nodes observed
// transitioning again after reaching Done — the signature of a finished
// node pulled back by recovery traffic (a NACK reverting one of its
// edges rebuilds the machine, which then starts transitioning anew).
// Engines invoke hooks from concurrent goroutines, hence the mutex.
type resurrectionDetector struct {
	mu          sync.Mutex
	done        map[int]bool
	resurrected map[int]bool
}

func newResurrectionDetector() *resurrectionDetector {
	return &resurrectionDetector{done: map[int]bool{}, resurrected: map[int]bool{}}
}

func (d *resurrectionDetector) hook(node int, from, to automaton.State) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done[node] {
		d.resurrected[node] = true
		d.done[node] = false
	}
	if to == automaton.Done {
		d.done[node] = true
	}
}

func (d *resurrectionDetector) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.resurrected)
}

// Done-node resurrection across engines: with recovery enabled a node
// that reached Done can be flipped back to not-done by a pending inbox.
// Every engine must therefore evaluate Done() at the same point —
// immediately after the round's steps — or the engines disagree on the
// termination round. The test deterministically finds a run where a
// resurrection actually happens, then requires every shard layout to
// replay the sync engine exactly on that run.
func TestRecoveryDoneResurrectionEnginesAgree(t *testing.T) {
	// Resurrections need heavy sustained loss: lighter rates repair
	// in-flight edges before any endpoint finishes.
	g, err := gen.ErdosRenyiAvgDegree(rng.New(3), 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	fault := net.DropRate{Seed: 42, P: 0.35}
	pinned := uint64(0)
	foundResurrection := false
	for seed := uint64(0); seed < 30 && !foundResurrection; seed++ {
		det := newResurrectionDetector()
		opt := recoveryOptions(seed, fault, net.RunSync)
		opt.Hook = det.hook
		mustColorEdges(t, g, opt)
		if det.count() > 0 {
			pinned = seed
			foundResurrection = true
		}
	}
	if !foundResurrection {
		t.Fatal("no Done-node resurrection in 30 seeds; regenerate the scenario")
	}
	run := func(engine net.Engine) (*Result, []metrics.RoundStats, int) {
		det := newResurrectionDetector()
		mem := &metrics.Memory{}
		opt := recoveryOptions(pinned, fault, engine)
		opt.Hook = det.hook
		opt.Metrics = mem
		res := mustColorEdges(t, g, opt)
		return res, mem.Rounds, det.count()
	}
	sres, srounds, scount := run(net.RunSync)
	if scount == 0 {
		t.Fatal("pinned seed no longer resurrects")
	}
	for _, eng := range testEngines[1:] {
		cres, crounds, ccount := run(eng.run)
		if ccount != scount {
			t.Fatalf("%s: %d resurrected nodes, sync saw %d", eng.name, ccount, scount)
		}
		if !reflect.DeepEqual(sres, cres) {
			t.Fatalf("%s: result differs on resurrection run:\nsync: %+v\n%s: %+v",
				eng.name, sres, eng.name, cres)
		}
		if !reflect.DeepEqual(srounds, crounds) {
			t.Fatalf("%s: round streams differ on resurrection run", eng.name)
		}
	}
}

// With recovery disabled the implementation must be byte-identical to
// the reliable-delivery protocol: same results, same message streams,
// same RNG consumption. The golden tests pin absolute values; this test
// additionally pins the full per-round traffic stream against a
// recovery-enabled fault-free run being accidentally wired in.
func TestRecoveryDisabledIsInert(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(19), 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opt Options) (*Result, []metrics.RoundStats) {
		mem := &metrics.Memory{}
		opt.Metrics = mem
		res := mustColorEdges(t, g, opt)
		return res, mem.Rounds
	}
	plain, plainRounds := run(Options{Seed: 23})
	zeroRec, zeroRounds := run(Options{Seed: 23, Recovery: automaton.Recovery{}})
	if !reflect.DeepEqual(plain, zeroRec) || !reflect.DeepEqual(plainRounds, zeroRounds) {
		t.Fatal("zero-value Recovery changed a fault-free run")
	}
	if plain.Retransmits+plain.Repairs+plain.Reverts+plain.Probes != 0 {
		t.Fatalf("recovery counters nonzero with recovery disabled: %+v", plain)
	}
}
