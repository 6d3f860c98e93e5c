package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dima/internal/automaton"
	"dima/internal/graph"
	"dima/internal/net"
)

// The options blob and the per-round state blob cross a process
// boundary: a node process decodes the options, and the coordinator
// loads the state blobs each node process sends after every round into
// its board.
// These tests pin both encodings per factory name and fuzz both
// decoders.

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

// shardOf builds the board and the nodes that a node process owning all
// of g builds from opt with the edge, or the strong, factory.
func shardOf(strong bool, g *graph.Graph, opt *Options) (*board, []net.Node) {
	arcs, build := uint(0), edgeNodes
	if strong {
		arcs, build = 1, strongNodes
	}
	b := newBoard(g, 0, g.N(), arcs, opt)
	b.sent = slices.Clone(b.colors)
	return b, build(b, opt)
}

// stateBlob is one state blob a node made, with the node's index.
type stateBlob struct {
	node int
	blob []byte
}

// runBlobs builds every node of g through the factory from spec, as a
// node process owning the whole graph would, and runs them on the sync
// engine for at most rounds communication rounds. With perRound set it
// returns every non-empty blob the nodes make after each round, as a
// node process ships them; otherwise one blob per node, made once after
// the run, which holds its whole state.
func runBlobs(t testing.TB, factory net.NodeFactory, rounds int, g *graph.Graph, spec []byte, fault net.FaultInjector, perRound bool) []stateBlob {
	t.Helper()
	nodes, err := factory(g, spec, 0, g.N())
	if err != nil {
		t.Fatal(err)
	}
	var blobs []stateBlob
	collect := func(net.RoundTraffic) {
		for i, n := range nodes {
			if b := n.(net.StateNode).AppendChanges(nil); len(b) > 0 {
				blobs = append(blobs, stateBlob{i, b})
			}
		}
	}
	cfg := net.Config{MaxRounds: rounds, Fault: fault}
	if perRound {
		cfg.Observe = collect
	}
	if _, err := net.RunSync(g, nodes, cfg); err != nil {
		t.Fatal(err)
	}
	if !perRound {
		for i, n := range nodes {
			blobs = append(blobs, stateBlob{i, n.(net.StateNode).AppendChanges(nil)})
		}
	}
	return blobs
}

// TestClusterEncodingGolden pins the bytes of the options blob and of
// node 0's state blob after a lossy recovery run with event records,
// stopped one phase into its ninth computation round so that the record
// is not empty, per factory name. A change to either encoding, or to node behavior,
// must come with a new factory name, so that mixed-version clusters fail
// the factory lookup instead of diverging silently.
func TestClusterEncodingGolden(t *testing.T) {
	golden := map[string]struct{ options, state string }{
		"dima/edge/v3":   {"dc0f1f0305", "020103020201000000000000000000000000010001000000000000000001000101010302"},
		"dima/strong/v3": {"dc0f1f0305", "0302010403050501000000000000000000000000010001000000000000000001000101010904"},
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
		state := runBlobs(t, f.factory, 8*f.phases+1, codecGraph(), appendClusterOptions(nil, opt),
			net.DropRate{Seed: 3, P: 0.2}, false)[0].blob
		if got := hex.EncodeToString(spec); got != want.options {
			t.Errorf("%s: options blob changed to %s (golden %s): bump the factory version in cluster.go and record the new bytes under the new name",
				f.name, got, want.options)
		}
		if got := hex.EncodeToString(state); got != want.state {
			t.Errorf("%s: node state blob changed to %s (golden %s): bump the factory version in cluster.go and record the new bytes under the new name",
				f.name, got, want.state)
		}
	}
}

// codecSeeds returns real per-round state blobs: reliable without event
// records, reliable with them, and lossy with recovery and records.
func codecSeeds(t testing.TB, factory net.NodeFactory, phases int) []stateBlob {
	g := codecGraph()
	var seeds []stateBlob
	for _, c := range []struct {
		opt   Options
		fault net.FaultInjector
	}{
		{Options{Seed: 1}, nil},
		{Options{Seed: 2, Metrics: discardSink{}}, nil},
		{Options{Seed: 3, Metrics: discardSink{}, Recovery: automaton.Recovery{Enabled: true}}, net.DropRate{Seed: 4, P: 0.25}},
	} {
		seeds = append(seeds, runBlobs(t, factory, 200*phases, g, appendClusterOptions(nil, &c.opt), c.fault, true)...)
	}
	return seeds
}

// FuzzRestoreState feeds arbitrary bytes, for any node, to the edge and
// strong boards' Apply: it must return an error, never panic, and a
// vertex's state on a board that accepts a blob must re-encode, through
// the vertex's node on that board, to a fixed point. The seeds are the
// per-round blobs of real runs, each for its node.
func FuzzRestoreState(f *testing.F) {
	for i, c := range codecFactories {
		for _, s := range codecSeeds(f, c.factory, c.phases) {
			f.Add(i == 1, uint8(s.node), s.blob)
		}
	}
	g := codecGraph()
	opt := &Options{Metrics: discardSink{}}
	// fresh returns a fresh board, the vertex node names and its node.
	fresh := func(strong bool, node uint8) (*board, int, net.StateNode) {
		b, nodes := shardOf(strong, g, opt)
		u := int(node) % len(nodes)
		return b, u, nodes[u].(net.StateNode)
	}
	// full returns a blob of n's whole state on its board: its diff
	// against the construction state, with the events.
	full := func(n net.StateNode) []byte {
		b := baseOf(n)
		b.ev.dirty, b.ev.recolored = true, true
		return n.AppendChanges(nil)
	}
	f.Fuzz(func(t *testing.T, strong bool, node uint8, data []byte) {
		b, u, n := fresh(strong, node)
		if b.Apply(u, data) != nil {
			return
		}
		once := full(n)
		again, _, n2 := fresh(strong, node)
		if err := again.Apply(u, once); err != nil {
			t.Fatalf("re-encoded state rejected: %v", err)
		}
		if twice := full(n2); !bytes.Equal(once, twice) {
			t.Fatalf("state encoding is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}

// TestApplyChangesRejectsHostileBlobs: every blob no node process can
// make is an error on the coordinator's board, never a panic or an
// out-of-range write.
func TestApplyChangesRejectsHostileBlobs(t *testing.T) {
	g := codecGraph()
	u := binary.AppendUvarint
	// record encodes one event record slot: numEvents counts, then the
	// assignments.
	record := func(counts uint64, assigns ...uint64) []byte {
		var b []byte
		for range numEvents {
			b = u(b, counts)
		}
		b = u(b, uint64(len(assigns)/2))
		for _, v := range assigns {
			b = u(b, v)
		}
		return b
	}
	ok := record(0)
	for _, c := range codecFactories {
		strong := c.name == strongFactoryName
		b, _ := shardOf(strong, g, &Options{Metrics: discardSink{}})
		colors := b.colorsOf(0) // vertex 0: degree 3, edges 0, 3 and 4
		own := uint64(itemOf(g.IncidentEdges(0), g.Neighbors(0), 0, b.arcs, 0))
		foreign := uint64(1 << b.arcs) // edge 1 joins vertices 1 and 2
		// ev is a blob without colors whose events hold zero run totals,
		// then the record r.
		ev := func(r []byte) []byte { return append([]byte{0, 1, 0, 0, 0, 0, 0, 0}, r...) }
		cases := []struct {
			name, want string
			blob       []byte
		}{
			{"slot out of range", fmt.Sprintf("slot %d out of range", len(colors)), []byte{1, byte(len(colors)), 1}},
			{"color above MaxInt32", "color+1 2147483649 out of range", u([]byte{1, 0}, math.MaxInt32+2)},
			{"truncated pair", "truncated color+1", []byte{1, 0, 0x80}},
			{"implausible color count", "implausible color count", []byte{9, 0, 1, 0}},
			{"missing events flag", "truncated events flag", []byte{0}},
			{"bad events flag", "events flag 2", []byte{0, 2}},
			{"missing events", "truncated event total", []byte{0, 1}},
			{"total above bound", "event total", u([]byte{0, 1}, 1<<62+1)},
			{"truncated totals", "truncated event total", []byte{0, 1, 0}},
			{"count above MaxInt32", "round event count 2147483648 out of range", append(ev(record(math.MaxInt32+1)), ok...)},
			{"foreign assignment", "does not belong to this node", append(ev(record(0, foreign, 1)), ok...)},
			{"assignment color above MaxInt32", "assignment color", append(ev(record(0, own, math.MaxInt32+1)), ok...)},
			{"one record slot", "truncated round event count", ev(ok)},
			{"trailing bytes", "1 trailing bytes after node state", append(ev(append(ok, ok...)), 0)},
		}
		for _, hc := range cases {
			err := b.Apply(0, hc.blob)
			if err == nil || !strings.Contains(err.Error(), hc.want) {
				t.Errorf("%s: %s: got %v, want an error containing %q", c.name, hc.name, err, hc.want)
			}
		}
		// The largest color a blob may carry, MaxInt32, on slot 0 and in
		// an assignment: accepted, and counted by the post-run assembly
		// and the round fold in O(1) memory, not in a bitmap reaching it.
		big := append(u([]byte{1, 0}, math.MaxInt32+1), 1, 0, 0, 0, 0, 0, 0)
		big = append(append(big, record(0, own, math.MaxInt32)...), ok...)
		if err := b.Apply(0, big); err != nil {
			t.Fatalf("%s: MaxInt32 blob rejected: %v", c.name, err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := &Result{Colors: []int{int(colors[0]), 1, -1}}
		res.countColors()
		fold := newRoundFold(discardSink{}, b, c.phases, g.M()<<b.arcs)
		fold.emit(0)
		runtime.ReadMemStats(&m1)
		if res.NumColors != 2 || res.MaxColor != math.MaxInt32 || fold.palette.count() != 1 || fold.maxColor != math.MaxInt32 {
			t.Errorf("%s: MaxInt32 blob counted %d colors (max %d), fold %d (max %d)",
				c.name, res.NumColors, res.MaxColor, fold.palette.count(), fold.maxColor)
		}
		if d := m1.TotalAlloc - m0.TotalAlloc; d > 64<<10 {
			t.Errorf("%s: counting a MaxInt32 color allocated %d bytes", c.name, d)
		}
		plain, _ := shardOf(strong, g, &Options{})
		if err := plain.Apply(0, append(ev(ok), ok...)); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
			t.Errorf("%s: a node without an event record accepted one: %v", c.name, err)
		}
	}
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
