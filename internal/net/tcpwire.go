package net

import (
	"encoding/binary"
	"fmt"
	"math"

	"dima/internal/graph"
	"dima/internal/msg"
)

// Cluster frame grammar (docs/CLUSTER.md). Every payload decoder here
// is strict: bytes left over after a successful parse are an error, so
// a codec mismatch between coordinator and node builds surfaces as a
// typed failure on the first divergent frame.
const (
	frameHello    msg.FrameKind = 0x01 // node → coord: msg.Hello
	frameWelcome  msg.FrameKind = 0x02 // coord → node: spec + graph + shard bounds
	frameReady    msg.FrameKind = 0x03 // node → coord: nodes constructed
	frameRound    msg.FrameKind = 0x04 // coord → node: round number + (sender, message, drop list) records
	frameOutbox   msg.FrameKind = 0x05 // node → coord: round number + done bit + broadcasts + state changes
	frameShutdown msg.FrameKind = 0x08 // coord → node: run over, exit 0
	frameError    msg.FrameKind = 0x09 // node → coord: fatal node-side error text
)

var frameNames = [...]string{frameHello: "hello", frameWelcome: "welcome", frameReady: "ready",
	frameRound: "round", frameOutbox: "outbox", frameShutdown: "shutdown", frameError: "error"}

func frameKindName(k msg.FrameKind) string {
	if int(k) < len(frameNames) && frameNames[k] != "" {
		return frameNames[k]
	}
	return fmt.Sprintf("frame(%#x)", uint8(k))
}

// AppendGraph appends the binary graph section: uvarint vertex count,
// uvarint edge count, then one (u, v) uvarint pair per edge in edge-id
// order. Graphs with removal holes are rejected by the engines before
// any frame is built, so edge ids are dense. Exported because the
// dimaserve cluster (internal/cluster) ships job graphs in the same
// section format.
func AppendGraph(buf []byte, g *graph.Graph) []byte {
	buf = binary.AppendUvarint(buf, uint64(g.N()))
	buf = binary.AppendUvarint(buf, uint64(g.M()))
	for _, e := range g.Edges() {
		buf = binary.AppendUvarint(buf, uint64(e.U))
		buf = binary.AppendUvarint(buf, uint64(e.V))
	}
	return buf
}

// DecodeGraph parses the binary graph section from the front of buf,
// returning the graph and the unconsumed tail. Edge insertion order is
// the wire order, so edge ids match the sender's exactly.
func DecodeGraph(buf []byte) (*graph.Graph, []byte, error) {
	d := msg.NewDec("net", buf)
	n := d.Int("vertex count", 1<<31)
	// Each edge costs at least two bytes on the wire.
	m := d.Count("edge count", 2)
	if d.Err != nil {
		return nil, nil, d.Err
	}
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u := d.Int("edge endpoint", maxVertex)
		v := d.Int("edge endpoint", maxVertex)
		if d.Err != nil {
			return nil, nil, d.Err
		}
		if u >= n || v >= n {
			return nil, nil, fmt.Errorf("net: edge %d endpoints (%d, %d) out of range for %d vertices", i, u, v, n)
		}
		if _, err := g.AddEdge(u, v); err != nil {
			return nil, nil, fmt.Errorf("net: edge %d: %w", i, err)
		}
	}
	return g, d.Buf, nil
}

// welcome is the coordinator's run description for one node process.
type welcome struct {
	factory string // registered NodeFactory name
	spec    []byte // opaque per-protocol options blob
	shards  int    // total shard count
	lo, hi  int    // this process's vertex range [lo, hi)
	g       *graph.Graph
}

func (w welcome) append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(w.factory)))
	buf = append(buf, w.factory...)
	buf = binary.AppendUvarint(buf, uint64(len(w.spec)))
	buf = append(buf, w.spec...)
	buf = binary.AppendUvarint(buf, uint64(w.shards))
	buf = binary.AppendUvarint(buf, uint64(w.lo))
	buf = binary.AppendUvarint(buf, uint64(w.hi))
	return AppendGraph(buf, w.g)
}

func decodeWelcome(buf []byte) (welcome, error) {
	var w welcome
	d := msg.NewDec("net", buf)
	w.factory = string(d.Bytes("factory name"))
	w.spec = append([]byte(nil), d.Bytes("spec blob")...)
	w.shards = d.Int("shard count", maxVertex)
	w.lo = d.Int("shard lo", maxVertex)
	w.hi = d.Int("shard hi", maxVertex)
	if d.Err != nil {
		return w, d.Err
	}
	g, rest, err := DecodeGraph(d.Buf)
	if err != nil {
		return w, err
	}
	d.Buf = rest
	if err := d.Finish("welcome frame"); err != nil {
		return w, err
	}
	w.g = g
	if w.shards < 1 || w.hi < w.lo || w.hi > g.N() {
		return w, fmt.Errorf("net: welcome shard range [%d, %d) of %d invalid for %d vertices",
			w.lo, w.hi, w.shards, g.N())
	}
	return w, nil
}

// maxVertex bounds every vertex id a round or outbox frame may carry:
// engines index int32 arrays by vertex.
const maxVertex = 1<<31 - 1

// appendRound appends a round frame payload, the wire form of b, one
// destination shard's batch of a router: uvarint round, uvarint record
// count, then per record, in ascending sender order, the uvarint
// sender vertex (its message's From), the message encoding, uvarint
// drop count and the dropped receivers as uvarints. A record stands
// for every delivery of the broadcast to the sender's neighbors in the
// destination shard; its drops are the ones the fault injector
// dropped, in adjacency order. The record's segment is not sent: the
// receiving node finds it in its own copy of the graph.
func appendRound(buf []byte, round int, b *recordBatch) []byte {
	buf = binary.AppendUvarint(buf, uint64(round))
	buf = binary.AppendUvarint(buf, uint64(len(b.recs)))
	for i, r := range b.recs {
		buf = binary.AppendUvarint(buf, uint64(r.m.From))
		buf = r.m.Append(buf)
		var drops []int32
		if len(b.spans) > 0 {
			drops = b.drops[b.spans[i].lo:b.spans[i].hi]
		}
		buf = binary.AppendUvarint(buf, uint64(len(drops)))
		for _, v := range drops {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return buf
}

// decodeRound parses a round frame strictly into b, reusing its
// storage, and returns the round. The records' segments are left unset,
// and every record gets a drop span, empty or not. Vertex ids are
// only range-checked against maxVertex here: whether they fit the graph
// and shard is the receiving node's check.
func decodeRound(buf []byte, b *recordBatch) (round int, err error) {
	b.recs, b.spans, b.drops = b.recs[:0], b.spans[:0], b.drops[:0]
	d := msg.NewDec("net", buf)
	round = d.Int("round", math.MaxInt32)
	count := d.Count("record count", 1)
	for i := 0; i < count && d.Err == nil; i++ {
		from := d.Int("record sender", maxVertex)
		if d.Err != nil {
			break
		}
		m, used, err := msg.Decode(d.Buf)
		if err != nil {
			return 0, fmt.Errorf("net: record %d of %d: %w", i, count, err)
		}
		if int(m.From) != from {
			return 0, fmt.Errorf("net: record from vertex %d carries a message from %d", from, m.From)
		}
		d.Buf = d.Buf[used:]
		nd := d.Count("drop count", 1)
		sp := dropSpan{lo: int32(len(b.drops))}
		for j := 0; j < nd; j++ {
			b.drops = append(b.drops, int32(d.Int("dropped vertex", maxVertex)))
		}
		sp.hi = int32(len(b.drops))
		b.recs = append(b.recs, shardDelivery{m: m})
		b.spans = append(b.spans, sp)
	}
	if err := d.Finish("round frame"); err != nil {
		return 0, err
	}
	return round, nil
}

// outboxFlagDone marks a shard whose every node reported Done after
// stepping this round.
const outboxFlagDone = 1 << 0

// appendOutbox appends an outbox frame payload: uvarint round, a flags
// byte, uvarint broadcast count, then (uvarint sender vertex, message)
// pairs in the order the senders were stepped (ascending vertex id),
// where the sender is the message's From, then the state section:
// uvarint entry count and states, which holds that many entries
// encoded by appendState in ascending vertex order.
func appendOutbox(buf []byte, round int, done bool, bs []msg.Message, nstates int, states []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(round))
	var flags byte
	if done {
		flags |= outboxFlagDone
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(bs)))
	for _, m := range bs {
		buf = binary.AppendUvarint(buf, uint64(m.From))
		buf = m.Append(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(nstates))
	return append(buf, states...)
}

// appendState appends one state-section entry: uvarint vertex, uvarint
// blob length, then the blob the vertex's StateNode.AppendChanges made.
func appendState(buf []byte, vertex int, blob []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(vertex))
	buf = binary.AppendUvarint(buf, uint64(len(blob)))
	return append(buf, blob...)
}

// nodeState is one state-section entry: a vertex and its node's blob,
// which aliases the frame buffer.
type nodeState struct {
	vertex int
	blob   []byte
}

// outbox is one decoded outbox frame. decode reuses its slices, so one
// value serves every round; it appends paints to a slab only the caller
// resets.
type outbox struct {
	round  int
	done   bool
	bs     []msg.Message
	states []nodeState
	paints []msg.Paint
}

// decode parses an outbox frame strictly. Vertex ids are only
// range-checked against maxVertex here, broadcasts for ascending
// sender order and a message From equal to the sender, and state
// entries for ascending order: whether they lie in the sending shard
// is the coordinator's check.
func (ob *outbox) decode(buf []byte) error {
	d := msg.NewDec("net", buf)
	ob.bs, ob.states = ob.bs[:0], ob.states[:0]
	ob.round = d.Int("round", math.MaxInt32)
	flags := d.Byte("flags")
	if flags&^byte(outboxFlagDone) != 0 {
		d.Fail("unknown outbox flag bits %#x", flags)
	}
	ob.done = flags&outboxFlagDone != 0
	count := d.Count("broadcast count", 1)
	for i := 0; i < count && d.Err == nil; i++ {
		from := d.Int("sender vertex", maxVertex)
		if d.Err != nil {
			break
		}
		m, used, err := msg.DecodeAppend(d.Buf, &ob.paints)
		if err != nil {
			return fmt.Errorf("net: broadcast %d of %d: %w", i, count, err)
		}
		if int(m.From) != from {
			return fmt.Errorf("net: broadcast from vertex %d carries a message from %d", from, m.From)
		}
		if i > 0 && m.From < ob.bs[i-1].From {
			return fmt.Errorf("net: broadcast from vertex %d after vertex %d", from, ob.bs[i-1].From)
		}
		ob.bs = append(ob.bs, m)
		d.Buf = d.Buf[used:]
	}
	// Each entry costs at least two bytes: its vertex and blob length.
	count = d.Count("state count", 2)
	for i := 0; i < count && d.Err == nil; i++ {
		st := nodeState{vertex: d.Int("state vertex", maxVertex), blob: d.Bytes("state blob")}
		if d.Err == nil && i > 0 && st.vertex <= ob.states[i-1].vertex {
			d.Fail("state of vertex %d after vertex %d", st.vertex, ob.states[i-1].vertex)
		}
		ob.states = append(ob.states, st)
	}
	return d.Finish("outbox frame")
}
