package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/msg"
	"dima/internal/net"
)

// Cluster support for the multi-process TCP engine (net.RunTCP).
//
// A node process rebuilds its vertex shard from the graph, a factory
// name and the options blob encoded here; rng.Rand.Child is a pure
// function of the parent state and the index, so its nodes draw the RNG
// streams an in-process run's nodes draw. The coordinator builds only a
// board (node.go): after every round each node process ships, per node
// whose state changed, a blob of the node's window of its own board,
// which the coordinator loads (board.Apply) before the fold reads it.

// Factory names are versioned: any change to node construction, the
// options blob, or the state blob must bump them so mixed-version
// clusters fail the factory lookup instead of diverging silently.
const (
	edgeFactoryName   = "dima/edge/v4"
	strongFactoryName = "dima/strong/v4"
)

func init() {
	net.RegisterNodeFactory(edgeFactoryName, edgeClusterFactory)
	net.RegisterNodeFactory(strongFactoryName, strongClusterFactory)
}

// The two factories differ in the items of their board and the nodes
// they build on it.
var (
	edgeClusterFactory   = clusterFactory(0, edgeNodes)
	strongClusterFactory = clusterFactory(1, strongNodes)
)

func edgeNodes(b *board, o *Options) []net.Node { return asNodes(newECNodes(b, o)) }

func strongNodes(b *board, o *Options) []net.Node {
	return asNodes(newSCNodes(graph.NewSymmetric(b.g), b, o))
}

// clusterFactory is the node factory of node processes: build's nodes
// on a board of [lo, hi), whose construction colors count as sent.
func clusterFactory(arcs uint, build func(b *board, o *Options) []net.Node) net.NodeFactory {
	return func(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
		opt, err := decodeClusterOptions(spec)
		if err != nil {
			return nil, err
		}
		b := newBoard(g, lo, hi, arcs, opt)
		b.sent = slices.Clone(b.colors)
		return build(b, opt), nil
	}
}

// runCluster runs a valid cluster configuration on the TCP engine with
// the algorithm's factory, loading the node processes' state into b.
func (o *Options) runCluster(factory string, b *board, cfg net.Config) (net.Result, error) {
	if o.Engine != nil {
		return net.Result{}, fmt.Errorf("core: Options.Engine and Options.Cluster are mutually exclusive")
	}
	if o.Hook != nil {
		return net.Result{}, fmt.Errorf("core: automaton hooks cannot cross process boundaries; unset Options.Hook for cluster runs")
	}
	return net.RunTCP(o.Cluster, net.NodeSpec{Factory: factory, Spec: appendClusterOptions(nil, o), State: b}, b.g, cfg)
}

// Option flag bits of the cluster blob.
const (
	cofRandomColorRule = 1 << 0 // ColorRule == RandomAvailable
	cofNoOverhear      = 1 << 1 // DisableOverhearFilter
	cofNoConfirm       = 1 << 2 // UnsafeNoConfirm
	cofRecovery        = 1 << 3 // Recovery.Enabled
	cofTelemetry       = 1 << 4 // Metrics != nil (nodes keep event records)
)

// appendClusterOptions encodes the Options fields that influence node
// behavior: the seed and the behavior flags. Engine-
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
	return append(buf, flags)
}

// decodeClusterOptions rebuilds the Options a node process constructs
// its shard with. Strict: unknown flags and trailing bytes are errors.
func decodeClusterOptions(spec []byte) (*Options, error) {
	d := msg.NewDec("core", spec)
	o := &Options{}
	o.Seed = d.Uvarint("seed")
	flags := d.Byte("option flags")
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
		// The nodes keep their event records for the per-round state
		// blobs; the round fold is the coordinator's job.
		o.Metrics = discardSink{}
	}
	return o, nil
}

// discardSink makes opt.Metrics non-nil on node processes — switching
// the nodes' event records on — without emitting anything locally.
type discardSink struct{}

func (discardSink) EmitRound(metrics.RoundStats) {}

// The per-round state blob. Every coloring passes through
// nodeEvents.assign and every revert records evRevert, so the colors of
// a node whose record is neither dirty nor recolored did not change
// since its last blob. For the others a node process diffs the colors
// against the ones it last shipped (colorNode.sent, which only
// clusterFactory allocates) and sends
//
//	uvarint k, then k (uvarint slot, uvarint color+1) pairs
//	a byte: 1 when the events follow, 0 when the record is not dirty
//	the events: the run totals, then, on nodes with an event record,
//	both slots: the event counts, uvarint m and m (item, color) pairs
//
// every number a uvarint. Mid-negotiation state (pending invitations,
// acknowledgement clocks) never crosses: the coordinator steps nothing.

// AppendChanges appends the blob of what changed since the previous call
// — since construction on the first — and nothing when nothing did. Only
// nodes clusterFactory built have a copy to diff against.
func (n *colorNode) AppendChanges(buf []byte) []byte {
	e := &n.ev
	if !e.dirty && !e.recolored {
		return buf
	}
	changed := 0
	for i, c := range n.colors {
		if c != n.sent[i] {
			changed++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(changed))
	for i, c := range n.colors {
		if c != n.sent[i] {
			buf = binary.AppendUvarint(buf, uint64(i))
			buf = binary.AppendUvarint(buf, uint64(c+1))
			n.sent[i] = c
		}
	}
	events := e.dirty
	e.dirty, e.recolored = false, false
	if !events {
		return append(buf, 0)
	}
	return appendEvents(append(buf, 1), e)
}

// appendEvents encodes a node's event record: the run totals, then both
// slots of the per-round record if the node keeps one.
func appendEvents(buf []byte, e *nodeEvents) []byte {
	for _, v := range e.total {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	if e.rec == nil {
		return buf
	}
	for _, r := range e.rec {
		for _, v := range r.n {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		buf = binary.AppendUvarint(buf, uint64(len(r.assigns)))
		for _, a := range r.assigns {
			buf = binary.AppendUvarint(buf, uint64(a.item))
			buf = binary.AppendUvarint(buf, uint64(a.color))
		}
	}
	return buf
}

// maxCount bounds every count in a state or options blob, so each
// decodes to a non-negative int.
const maxCount = 1 << 62

// Done reports whether every node of the board is done as constructed,
// which is exactly when no vertex has items: net.RunTCP's initial
// all-done check, made before any node process starts.
func (b *board) Done() bool { return b.c.total() == 0 }

// Apply loads a blob AppendChanges made on vertex u's node, which
// net.RunTCP checked lies in the sending shard. Strict: a slot out of
// range, a color outside [-1, MaxInt32], an assignment of an item that
// is not u's, and trailing bytes are errors, so a hostile blob cannot
// make the assembly or the round fold index out of range; and both
// count colors in a palette, so the largest color a blob may carry
// costs them O(1) memory.
func (b *board) Apply(u int, data []byte) error {
	d := msg.NewDec("core", data)
	colors := b.colorsOf(u)
	// Each pair costs at least two bytes.
	k := d.Count("color count", 2)
	for i := 0; i < k && d.Err == nil; i++ {
		s := d.Int("slot", maxCount)
		c := d.Int("color+1", math.MaxInt32+1) - 1
		if d.Err == nil && s >= len(colors) {
			d.Fail("slot %d out of range for %d slots", s, len(colors))
		}
		if d.Err == nil {
			colors[s] = int32(c)
		}
	}
	if flag := d.Byte("events flag"); flag != 1 {
		if flag > 1 {
			d.Fail("events flag %d", flag)
		}
		return d.Finish("node state")
	}
	total := &b.totals[u-b.c.lo]
	for k := range total {
		total[k] = d.Int("event total", maxCount)
	}
	for i := 0; b.recs != nil && i < 2; i++ {
		r := &b.recs[u-b.c.lo][i]
		for k := range r.n {
			r.n[k] = int32(d.Int("round event count", math.MaxInt32))
		}
		// Each assignment costs at least two bytes.
		r.assigns = r.assigns[:0]
		m := d.Count("assignment count", 2)
		for j := 0; j < m && d.Err == nil; j++ {
			a := assignment{item: d.Int("assignment item", maxCount), color: d.Int("assignment color", math.MaxInt32)}
			if d.Err == nil && !b.owns(u, a.item) {
				d.Fail("assignment of item %d color %d does not belong to this node", a.item, a.color)
			}
			r.assigns = append(r.assigns, a)
		}
	}
	return d.Finish("node state")
}
