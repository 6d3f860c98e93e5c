package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/msg"
	"dima/internal/net"
)

// Cluster support for the multi-process TCP engine (net.RunTCP).
//
// A node process rebuilds its vertex shard from three inputs the
// coordinator ships in the welcome frame: the graph, a factory name,
// and the options blob encoded here. Construction must be byte-
// identical on both sides — rng.Rand.Derive is a pure function of the
// parent state and the index, so remote newECNodes/newSCNodes calls get
// exactly the RNG streams the coordinator's twins got. After the run
// the remote nodes' harvestable state (the fields the post-run
// assembly, Options.color, reads) is restored into the twins via the
// StateNode methods below.

// Factory names are versioned: any change to node construction, the
// options blob, or the state encoding must bump them so mixed-version
// clusters fail the factory lookup instead of diverging silently.
const (
	edgeFactoryName   = "dima/edge/v2"
	strongFactoryName = "dima/strong/v2"
)

func init() {
	net.RegisterNodeFactory(edgeFactoryName, edgeClusterFactory)
	net.RegisterNodeFactory(strongFactoryName, strongClusterFactory)
}

// The two factories differ only in the nodes they build.
var (
	edgeClusterFactory = clusterFactory(func(g *graph.Graph, lo, hi int, o *Options) []net.Node {
		nets, _ := asNodes(newECNodes(g, lo, hi, o))
		return nets
	})
	strongClusterFactory = clusterFactory(func(g *graph.Graph, lo, hi int, o *Options) []net.Node {
		nets, _ := asNodes(newSCNodes(graph.NewSymmetric(g), lo, hi, o))
		return nets
	})
)

// clusterFactory is the node factory a node process builds its shard
// with: the options blob decoded, then build's nodes of [lo, hi).
func clusterFactory(build func(g *graph.Graph, lo, hi int, o *Options) []net.Node) net.NodeFactory {
	return func(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
		opt, err := decodeClusterOptions(spec)
		if err != nil {
			return nil, err
		}
		return build(g, lo, hi, opt), nil
	}
}

// clusterEngine validates that the configured cluster run is possible
// and returns the TCP engine closed over this algorithm's factory.
func (o *Options) clusterEngine(factory string) (net.Engine, error) {
	if o.Engine != nil {
		return nil, fmt.Errorf("core: Options.Engine and Options.Cluster are mutually exclusive")
	}
	if o.Hook != nil {
		return nil, fmt.Errorf("core: automaton hooks cannot cross process boundaries; unset Options.Hook for cluster runs")
	}
	return o.Cluster.Engine(net.NodeSpec{
		Factory: factory,
		Spec:    appendClusterOptions(nil, o),
	}), nil
}

// Option flag bits of the cluster blob.
const (
	cofRandomColorRule = 1 << 0 // ColorRule == RandomAvailable
	cofNoOverhear      = 1 << 1 // DisableOverhearFilter
	cofNoConfirm       = 1 << 2 // UnsafeNoConfirm
	cofRecovery        = 1 << 3 // Recovery.Enabled
	cofTelemetry       = 1 << 4 // Metrics != nil (nodes keep event logs)
)

// appendClusterOptions encodes the Options fields that influence node
// behavior: seed, the behavior flags, and the recovery tuning. Engine-
// side concerns (Fault, Observe, MaxCompRounds, Workers) stay at the
// coordinator and are deliberately absent.
func appendClusterOptions(buf []byte, o *Options) []byte {
	buf = binary.AppendUvarint(buf, o.Seed)
	var flags byte
	if o.ColorRule == RandomAvailable {
		flags |= cofRandomColorRule
	}
	if o.DisableOverhearFilter {
		flags |= cofNoOverhear
	}
	if o.UnsafeNoConfirm {
		flags |= cofNoConfirm
	}
	if o.Recovery.Enabled {
		flags |= cofRecovery
	}
	if o.Metrics != nil {
		flags |= cofTelemetry
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(o.Recovery.TimeoutRounds))
	buf = binary.AppendUvarint(buf, uint64(o.Recovery.RetryBudget))
	return buf
}

// decodeClusterOptions rebuilds the Options a node process constructs
// its shard with. Strict: unknown flags and trailing bytes are errors.
func decodeClusterOptions(spec []byte) (*Options, error) {
	d := msg.NewDec("core", spec)
	o := &Options{}
	o.Seed = d.Uvarint("seed")
	flags := d.Byte("option flags")
	o.Recovery.TimeoutRounds = d.Int("recovery timeout", maxCount)
	o.Recovery.RetryBudget = d.Int("recovery budget", maxCount)
	if err := d.Finish("options blob"); err != nil {
		return nil, err
	}
	if flags&^byte(cofRandomColorRule|cofNoOverhear|cofNoConfirm|cofRecovery|cofTelemetry) != 0 {
		return nil, fmt.Errorf("core: unknown option flag bits %#x", flags)
	}
	if flags&cofRandomColorRule != 0 {
		o.ColorRule = RandomAvailable
	}
	o.DisableOverhearFilter = flags&cofNoOverhear != 0
	o.UnsafeNoConfirm = flags&cofNoConfirm != 0
	o.Recovery.Enabled = flags&cofRecovery != 0
	if flags&cofTelemetry != 0 {
		// The nodes keep their per-round event logs (nodeEvents.log) for the
		// harvest; per-round engine stats are the coordinator's job.
		o.Metrics = discardSink{}
	}
	return o, nil
}

// discardSink makes opt.Metrics non-nil on node processes — switching
// the nodes' event logging on — without emitting anything locally.
type discardSink struct{}

func (discardSink) EmitRound(metrics.RoundStats) {}

// State encodings. Only the fields the post-run assembly reads survive
// the harvest: the color map and the event record. Mid-negotiation
// state (pending invitations, acknowledgement clocks) dies with the
// process — by the time a harvest happens the run is over at a round
// barrier, and assembly never looks at it.

func (n *colorNode) AppendState(buf []byte) []byte {
	return appendEvents(appendColors(buf, n), &n.ev)
}

func (n *colorNode) RestoreState(data []byte) error {
	d := msg.NewDec("core", data)
	decodeColors(&d, n)
	decodeEvents(&d, n)
	return d.Finish("node state")
}

// appendColors encodes a node's colored slots as (item, color) pairs
// sorted by item id: the same bytes the id → color map this state once
// was encoded as.
func appendColors(buf []byte, n *colorNode) []byte {
	type pair struct{ id, color int }
	var pairs []pair
	for s, c := range n.colors {
		if c >= 0 {
			pairs = append(pairs, pair{n.itemAt(s), int(c)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })
	buf = binary.AppendUvarint(buf, uint64(len(pairs)))
	for _, p := range pairs {
		buf = binary.AppendUvarint(buf, uint64(p.id))
		buf = binary.AppendUvarint(buf, uint64(p.color))
	}
	return buf
}

// appendEvents encodes a node's event record: the run totals, then the
// per-round log and the assignments (both empty unless the node logs).
func appendEvents(buf []byte, e *nodeEvents) []byte {
	for _, v := range e.total {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.rounds)))
	for _, ev := range e.rounds {
		for _, v := range ev {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.assigns)))
	for _, a := range e.assigns {
		buf = binary.AppendUvarint(buf, uint64(a.round))
		buf = binary.AppendUvarint(buf, uint64(a.item))
		buf = binary.AppendUvarint(buf, uint64(a.color))
	}
	return buf
}

// maxCount bounds every count and id in a state or options blob, so
// each decodes to a non-negative int.
const maxCount = 1 << 62

// decodeColors decodes appendColors' pairs into a node's slot colors;
// every item must be one of the node's.
func decodeColors(d *msg.Dec, n *colorNode) {
	// Each pair costs at least two bytes.
	count := d.Count("color count", 2)
	for i := 0; i < count && d.Err == nil; i++ {
		id := d.Int("color id", maxCount)
		c := d.Int("color", math.MaxInt32)
		if d.Err != nil {
			return
		}
		s := n.slot(id)
		if s < 0 {
			d.Fail("item %d color %d does not belong to this node", id, c)
			return
		}
		n.colors[s] = int32(c)
	}
}

// decodeEvents decodes appendEvents' record into the node's. Counts are
// bounded by the bytes left, and every assignment must name one of the
// node's items, so a hostile blob cannot make the post-run fold index
// out of range.
func decodeEvents(d *msg.Dec, n *colorNode) {
	e := &n.ev
	for k := range e.total {
		e.total[k] = d.Int("event total", maxCount)
	}
	// Each round record costs at least numEvents bytes, each assignment 3.
	e.rounds = make([][numEvents]int, d.Count("event round count", int(numEvents)))
	for r := range e.rounds {
		for k := range e.rounds[r] {
			e.rounds[r][k] = d.Int("round event count", maxCount)
		}
	}
	e.assigns = make([]assignEvent, d.Count("assignment count", 3))
	for i := range e.assigns {
		a := &e.assigns[i]
		a.round = d.Int("assignment round", maxCount)
		a.item = d.Int("assignment id", maxCount)
		a.color = d.Int("assignment color", math.MaxInt32)
		if d.Err == nil && n.slot(a.item) < 0 {
			d.Fail("assignment of item %d color %d does not belong to this node", a.item, a.color)
		}
	}
}
