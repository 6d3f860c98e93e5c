package core

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"dima/internal/automaton"
	"dima/internal/graph"
	"dima/internal/net"
)

// The harvest state and the options blob cross a process boundary: a
// node process decodes the options, and the coordinator decodes the
// state each node process sends back. These tests pin both encodings
// per factory name and fuzz both decoders.

// codecFactories maps each registered factory name to its factory and
// the phases per computation round of its algorithm.
var codecFactories = []struct {
	name    string
	factory net.NodeFactory
	phases  int
}{
	{edgeFactoryName, edgeClusterFactory, ecPhases},
	{strongFactoryName, strongClusterFactory, scPhases},
}

// codecGraph is a 4-cycle with one chord: small enough for short golden
// strings, with vertices of degree 2 and 3.
func codecGraph() *graph.Graph {
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// codecOptions is a configuration that sets every field of the options
// blob: seed, all four flags, and the recovery tuning.
func codecOptions() *Options {
	return &Options{
		Seed:                  2012,
		ColorRule:             RandomAvailable,
		DisableOverhearFilter: true,
		UnsafeNoConfirm:       true,
		Recovery:              automaton.Recovery{Enabled: true, TimeoutRounds: 3, RetryBudget: 5},
		Metrics:               discardSink{},
	}
}

// harvest builds every node of g through the factory from spec, as a
// node process owning the whole graph would, runs them on the sync
// engine, and returns each node's encoded state.
func harvest(t testing.TB, factory net.NodeFactory, phases int, g *graph.Graph, spec []byte, fault net.FaultInjector) [][]byte {
	t.Helper()
	nodes, err := factory(g, spec, 0, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.RunSync(g, nodes, net.Config{MaxRounds: phases * 200, Fault: fault}); err != nil {
		t.Fatal(err)
	}
	states := make([][]byte, len(nodes))
	for i, n := range nodes {
		states[i] = n.(net.StateNode).AppendState(nil)
	}
	return states
}

// TestClusterEncodingGolden pins the bytes of the options blob and of
// node 0's harvested state after a lossy recovery run with event logging,
// per factory name. A change to either encoding, or to node behavior,
// must come with a new factory name, so that mixed-version clusters fail
// the factory lookup instead of diverging silently.
func TestClusterEncodingGolden(t *testing.T) {
	golden := map[string]struct{ options, state string }{
		"dima/edge/v2": {"dc0f1f0305",
			"030003030204010000000000000b0000000000000100010000000000000001010000000000000000" +
				"01010000000000000000010001000000000000000100010100000000000001000100000000000000" +
				"01000100000000000000010001010000000000000100010000000000000001000100000000000000" +
				"01010001030404010703020a0003"},
		"dima/strong/v2": {"dc0f1f0305",
			"060007010906060702080009040000000000010f0000000000000100010000000000000001010001" +
				"00000000000001010000000000000000010001000000000000000100010100000000000001000100" +
				"00000000000001000100000000000000010001010000000000000100010000000000000001000100" +
				"00000000000001010001000000000000010100010000000000010100010000000000000001000100" +
				"00000000000001000101060108000407020709040a06060b00070e0109"},
	}
	for _, f := range codecFactories {
		want, ok := golden[f.name]
		if !ok {
			t.Errorf("no golden encoding for factory %q: record its options and state bytes here", f.name)
			continue
		}
		opt := codecOptions()
		if f.name == strongFactoryName {
			opt.UnsafeNoConfirm = false // keep the strong run's colorings valid
		}
		spec := appendClusterOptions(nil, codecOptions())
		state := harvest(t, f.factory, f.phases, codecGraph(), appendClusterOptions(nil, opt),
			net.DropRate{Seed: 3, P: 0.2})[0]
		if got := hex.EncodeToString(spec); got != want.options {
			t.Errorf("%s: options blob changed to %s (golden %s): bump the factory version in cluster.go and record the new bytes under the new name",
				f.name, got, want.options)
		}
		if got := hex.EncodeToString(state); got != want.state {
			t.Errorf("%s: harvested node state changed to %s (golden %s): bump the factory version in cluster.go and record the new bytes under the new name",
				f.name, got, want.state)
		}
	}
}

// codecSeeds returns real harvested states: reliable without a log,
// reliable with one, and lossy with recovery and a log.
func codecSeeds(t testing.TB, factory net.NodeFactory, phases int) [][]byte {
	g := codecGraph()
	var seeds [][]byte
	for _, c := range []struct {
		opt   Options
		fault net.FaultInjector
	}{
		{Options{Seed: 1}, nil},
		{Options{Seed: 2, Metrics: discardSink{}}, nil},
		{Options{Seed: 3, Metrics: discardSink{}, Recovery: automaton.Recovery{Enabled: true}}, net.DropRate{Seed: 4, P: 0.25}},
	} {
		seeds = append(seeds, harvest(t, factory, phases, g, appendClusterOptions(nil, &c.opt), c.fault)...)
	}
	return seeds
}

// FuzzRestoreState feeds arbitrary bytes to the edge and strong nodes'
// RestoreState: it must return an error, never panic, and a blob it
// accepts must re-encode to a fixed point.
func FuzzRestoreState(f *testing.F) {
	for i, c := range codecFactories {
		for node, s := range codecSeeds(f, c.factory, c.phases) {
			f.Add(i == 1, uint8(node), s)
		}
	}
	g := codecGraph()
	spec := appendClusterOptions(nil, &Options{Metrics: discardSink{}})
	fresh := func(t *testing.T, strong bool, node uint8) net.StateNode {
		c := codecFactories[0]
		if strong {
			c = codecFactories[1]
		}
		nodes, err := c.factory(g, spec, 0, g.N())
		if err != nil {
			t.Fatal(err)
		}
		return nodes[int(node)%len(nodes)].(net.StateNode)
	}
	f.Fuzz(func(t *testing.T, strong bool, node uint8, data []byte) {
		n := fresh(t, strong, node)
		if n.RestoreState(data) != nil {
			return
		}
		once := n.AppendState(nil)
		again := fresh(t, strong, node)
		if err := again.RestoreState(once); err != nil {
			t.Fatalf("re-encoded state rejected: %v", err)
		}
		if twice := again.AppendState(nil); !bytes.Equal(once, twice) {
			t.Fatalf("state encoding is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}

// FuzzDecodeClusterOptions feeds arbitrary bytes to the node process's
// options decoder: it must return an error, never panic, and options it
// accepts must survive a re-encoding unchanged.
func FuzzDecodeClusterOptions(f *testing.F) {
	for _, o := range []*Options{{}, codecOptions(), {Seed: 1 << 63, Recovery: automaton.Recovery{Enabled: true}}} {
		f.Add(appendClusterOptions(nil, o))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := decodeClusterOptions(data)
		if err != nil {
			return
		}
		o2, err := decodeClusterOptions(appendClusterOptions(nil, o))
		if err != nil {
			t.Fatalf("re-encoded options rejected: %v", err)
		}
		if !reflect.DeepEqual(o, o2) {
			t.Fatalf("options changed across a re-encoding:\n%+v\n%+v", o, o2)
		}
	})
}
