package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/net"
)

// Cluster support for the multi-process TCP engine (net.RunTCP).
//
// A node process rebuilds its vertex shard from three inputs the
// coordinator ships in the welcome frame: the graph, a factory name,
// and the options blob encoded here. Construction must be byte-
// identical on both sides — rng.Rand.Derive is a pure function of the
// parent state and the index, so remote newECNode/newSCNode calls get
// exactly the RNG streams the coordinator's twins got. After the run
// the remote nodes' harvestable state (the fields colorEdges and
// ColorStrongCtx read during assembly) is restored into the twins via
// the StateNode methods below.

// Factory names are versioned: any change to node construction, the
// options blob, or the state encoding must bump them so mixed-version
// clusters fail the factory lookup instead of diverging silently.
const (
	edgeFactoryName   = "dima/edge/v1"
	strongFactoryName = "dima/strong/v1"
)

func init() {
	net.RegisterNodeFactory(edgeFactoryName, edgeClusterFactory)
	net.RegisterNodeFactory(strongFactoryName, strongClusterFactory)
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
	cofParticipation   = 1 << 4 // CollectParticipation
	cofTelemetry       = 1 << 5 // Metrics != nil (nodes keep event logs)
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
	if o.CollectParticipation {
		flags |= cofParticipation
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
	d := stateDec{buf: spec}
	o := &Options{}
	o.Seed = d.uvarint("seed")
	flags := d.byte("option flags")
	o.Recovery.TimeoutRounds = d.count("recovery timeout")
	o.Recovery.RetryBudget = d.count("recovery budget")
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after options blob", len(d.buf))
	}
	if flags&^byte(cofRandomColorRule|cofNoOverhear|cofNoConfirm|cofRecovery|cofParticipation|cofTelemetry) != 0 {
		return nil, fmt.Errorf("core: unknown option flag bits %#x", flags)
	}
	if flags&cofRandomColorRule != 0 {
		o.ColorRule = RandomAvailable
	}
	o.DisableOverhearFilter = flags&cofNoOverhear != 0
	o.UnsafeNoConfirm = flags&cofNoConfirm != 0
	o.Recovery.Enabled = flags&cofRecovery != 0
	o.CollectParticipation = flags&cofParticipation != 0
	if flags&cofTelemetry != 0 {
		// The node keeps its telemetry event log (obs == true) for the
		// harvest; per-round engine stats are the coordinator's job.
		o.Metrics = discardSink{}
	}
	return o, nil
}

// discardSink makes opt.Metrics non-nil on node processes — switching
// the nodes' event logging on — without emitting anything locally.
type discardSink struct{}

func (discardSink) EmitRound(metrics.RoundStats) {}

func edgeClusterFactory(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
	opt, err := decodeClusterOptions(spec)
	if err != nil {
		return nil, err
	}
	ecs := newECNodes(g, lo, hi, opt)
	nodes := make([]net.Node, len(ecs))
	for i := range ecs {
		nodes[i] = &ecs[i]
	}
	return nodes, nil
}

func strongClusterFactory(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
	opt, err := decodeClusterOptions(spec)
	if err != nil {
		return nil, err
	}
	scs := newSCNodes(graph.NewSymmetric(g), lo, hi, opt)
	nodes := make([]net.Node, len(scs))
	for i := range scs {
		nodes[i] = &scs[i]
	}
	return nodes, nil
}

// State encodings. Only the fields the post-run assembly reads survive
// the harvest: the color map, the defensive/recovery counters, the
// participation log, and the telemetry event log. Mid-negotiation state
// (pending invitations, acknowledgement clocks) dies with the process —
// by the time a harvest happens the run is over at a round barrier, and
// assembly never looks at it.

func (n *ecNode) AppendState(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(n.defensiveRejects))
	buf = appendRecCounters(buf, &n.recC)
	buf = appendColors(buf, n.colors, func(i int) int { return int(n.inc[i]) })
	buf = appendBoolLog(buf, n.paired)
	return appendTelemetryLog(buf, &n.tel)
}

func (n *ecNode) RestoreState(data []byte) error {
	d := stateDec{buf: data}
	n.defensiveRejects = d.count("defensive rejects")
	d.recCounters(&n.recC)
	d.colors("edge", func(e int) int { return n.slot(graph.EdgeID(e)) }, n.colors)
	n.paired = d.boolLog("participation log")
	d.telemetryLog(&n.tel)
	return d.finish("edge node state")
}

func (n *scNode) AppendState(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(n.defensiveRejects))
	buf = binary.AppendUvarint(buf, uint64(n.conflictsDropped))
	buf = appendRecCounters(buf, &n.recC)
	buf = appendColors(buf, n.colors, func(s int) int { return int(n.arcAt(s)) })
	buf = appendBoolLog(buf, n.paired)
	return appendTelemetryLog(buf, &n.tel)
}

func (n *scNode) RestoreState(data []byte) error {
	d := stateDec{buf: data}
	n.defensiveRejects = d.count("defensive rejects")
	n.conflictsDropped = d.count("conflicts dropped")
	d.recCounters(&n.recC)
	d.colors("arc", func(a int) int { return n.slot(graph.ArcID(a)) }, n.colors)
	n.paired = d.boolLog("participation log")
	d.telemetryLog(&n.tel)
	return d.finish("strong node state")
}

func appendRecCounters(buf []byte, c *recCounters) []byte {
	buf = binary.AppendUvarint(buf, uint64(c.retransmits))
	buf = binary.AppendUvarint(buf, uint64(c.repairs))
	buf = binary.AppendUvarint(buf, uint64(c.reverts))
	return binary.AppendUvarint(buf, uint64(c.probes))
}

// appendColors encodes a node's colored slots as (id, color) pairs
// sorted by id, where id(s) is the edge or arc id of slot s: the same
// bytes the id → color map this state once was encoded as.
func appendColors(buf []byte, colors []int32, id func(s int) int) []byte {
	type pair struct{ id, color int }
	var pairs []pair
	for s, c := range colors {
		if c >= 0 {
			pairs = append(pairs, pair{id(s), int(c)})
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

func appendBoolLog(buf []byte, log []bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(log)))
	for _, b := range log {
		v := byte(0)
		if b {
			v = 1
		}
		buf = append(buf, v)
	}
	return buf
}

func appendTelemetryLog(buf []byte, t *nodeTelemetry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.rounds)))
	for _, ev := range t.rounds {
		for _, v := range [...]int{ev.active, ev.invited, ev.listened, ev.paired, ev.rejects,
			ev.dropped, ev.retransmits, ev.repairs, ev.reverts, ev.probes} {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.assigns)))
	for _, a := range t.assigns {
		buf = binary.AppendUvarint(buf, uint64(a.round))
		buf = binary.AppendUvarint(buf, uint64(a.item))
		buf = binary.AppendUvarint(buf, uint64(a.color))
	}
	return buf
}

// stateDec is a strict cursor over a state or options blob, latching
// the first error.
type stateDec struct {
	buf []byte
	err error
}

func (d *stateDec) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("core: truncated %s", what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count decodes a non-negative int-sized value.
func (d *stateDec) count(what string) int {
	v := d.uvarint(what)
	if d.err == nil && v > 1<<62 {
		d.err = fmt.Errorf("core: implausible %s %d", what, v)
		return 0
	}
	return int(v)
}

func (d *stateDec) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.err = fmt.Errorf("core: truncated %s", what)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *stateDec) recCounters(c *recCounters) {
	c.retransmits = d.count("retransmit counter")
	c.repairs = d.count("repair counter")
	c.reverts = d.count("revert counter")
	c.probes = d.count("probe counter")
}

// colors decodes appendColors' pairs into a node's slot colors; slot
// maps an edge or arc id to its slot, or -1 when the id is not one of
// the node's.
func (d *stateDec) colors(what string, slot func(id int) int, colors []int32) {
	count := d.count("color count")
	for i := 0; i < count && d.err == nil; i++ {
		id := d.count(what + " id")
		c := d.count(what + " color")
		if d.err != nil {
			return
		}
		s := slot(id)
		if s < 0 || c > math.MaxInt32 {
			d.err = fmt.Errorf("core: %s %d color %d does not belong to this node", what, id, c)
			return
		}
		colors[s] = int32(c)
	}
}

func (d *stateDec) boolLog(what string) []bool {
	count := d.count(what + " length")
	if d.err != nil {
		return nil
	}
	if count > len(d.buf) {
		d.err = fmt.Errorf("core: %s of %d entries exceeds %d remaining bytes", what, count, len(d.buf))
		return nil
	}
	if count == 0 {
		return nil
	}
	log := make([]bool, count)
	for i := range log {
		switch d.buf[i] {
		case 0:
		case 1:
			log[i] = true
		default:
			d.err = fmt.Errorf("core: bad %s byte %#x", what, d.buf[i])
			return nil
		}
	}
	d.buf = d.buf[count:]
	return log
}

func (d *stateDec) telemetryLog(t *nodeTelemetry) {
	rounds := d.count("telemetry round count")
	if d.err != nil {
		return
	}
	// Each round record costs at least 10 bytes on the wire.
	if rounds > len(d.buf)/10+1 {
		d.err = fmt.Errorf("core: implausible telemetry round count %d", rounds)
		return
	}
	if rounds > 0 {
		t.rounds = make([]nodeRoundEvents, rounds)
		for i := range t.rounds {
			ev := &t.rounds[i]
			ev.active = d.count("telemetry counter")
			ev.invited = d.count("telemetry counter")
			ev.listened = d.count("telemetry counter")
			ev.paired = d.count("telemetry counter")
			ev.rejects = d.count("telemetry counter")
			ev.dropped = d.count("telemetry counter")
			ev.retransmits = d.count("telemetry counter")
			ev.repairs = d.count("telemetry counter")
			ev.reverts = d.count("telemetry counter")
			ev.probes = d.count("telemetry counter")
		}
	}
	assigns := d.count("telemetry assign count")
	if d.err != nil {
		return
	}
	if assigns > len(d.buf)/3+1 {
		d.err = fmt.Errorf("core: implausible telemetry assign count %d", assigns)
		return
	}
	if assigns > 0 {
		t.assigns = make([]assignEvent, assigns)
		for i := range t.assigns {
			t.assigns[i].round = d.count("assign round")
			t.assigns[i].item = d.count("assign item")
			t.assigns[i].color = d.count("assign color")
		}
	}
}

func (d *stateDec) finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("core: %d trailing bytes after %s", len(d.buf), what)
	}
	return nil
}
