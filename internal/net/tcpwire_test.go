package net

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/rng"
)

// wireSeeds are the messages the round and outbox fuzz corpora start
// from: a bare invitation and a retransmitted update carrying paints.
var wireSeeds = func() []msg.Message {
	up := msg.Message{Kind: msg.KindUpdate, From: 5, To: msg.Broadcast, Edge: 40, Color: 1, Seq: 3}
	up.SetPaints([]msg.Paint{{Edge: 40, Color: 1}, {Edge: 41, Color: 7}})
	return []msg.Message{{Kind: msg.KindInvite, From: 3, To: msg.Broadcast, Edge: 9, Color: 2}, up}
}()

// int32Edges are the values on either side of the int32 range: 2^31-1
// and -2^31 decode, 2^31 and -2^31-1 must be rejected.
var int32Edges = []int64{math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1}

// boundaryMessage hand-encodes an update from vertex 3 whose To, Edge,
// Color and one paint all hold v, which Message.Append cannot produce
// outside int32.
func boundaryMessage(v int64) []byte {
	m := binary.AppendVarint([]byte{byte(msg.KindUpdate)}, 3) // From
	for range 3 {
		m = binary.AppendVarint(m, v) // To, Edge, Color
	}
	m = append(m, 0, 1) // no flags, one paint
	return binary.AppendVarint(binary.AppendVarint(m, v), v)
}

// rawRound wraps one record from vertex 3, given as its message bytes,
// in a round frame of round 0 without drops.
func rawRound(m []byte) []byte {
	frame := binary.AppendUvarint(nil, 0)  // round
	frame = binary.AppendUvarint(frame, 1) // one record
	frame = binary.AppendUvarint(frame, 3) // from vertex 3
	return binary.AppendUvarint(append(frame, m...), 0)
}

// rawOutbox wraps one broadcast from vertex 3, given as its message
// bytes, in an outbox frame of round 4 without states.
func rawOutbox(m []byte) []byte {
	frame := binary.AppendUvarint(nil, 4)  // round
	frame = append(frame, 0)               // flags
	frame = binary.AppendUvarint(frame, 1) // one broadcast
	frame = binary.AppendUvarint(frame, 3) // from vertex 3
	return binary.AppendUvarint(append(frame, m...), 0)
}

// TestFramesRejectWideInts: a message field or paint outside int32 in a
// round frame's record or an outbox frame's broadcast is a decode
// error, never a silent truncation; the int32 extremes decode exactly.
func TestFramesRejectWideInts(t *testing.T) {
	for _, v := range int32Edges {
		m := boundaryMessage(v)
		var b recordBatch
		_, rerr := decodeRound(rawRound(m), &b)
		var ob outbox
		oerr := ob.decode(rawOutbox(m))
		if v != int64(int32(v)) {
			if rerr == nil || oerr == nil || !strings.Contains(rerr.Error(), "outside int32") {
				t.Errorf("%d: round frame %v, outbox frame %v; want both rejected", v, rerr, oerr)
			}
			continue
		}
		if rerr != nil || oerr != nil {
			t.Fatalf("%d: round frame %v, outbox frame %v", v, rerr, oerr)
		}
		for _, got := range []msg.Message{b.recs[0].m, ob.bs[0]} {
			p := got.Paints()
			if int64(got.To) != v || int64(got.Edge) != v || int64(got.Color) != v ||
				len(p) != 1 || int64(p[0].Edge) != v || int64(p[0].Color) != v {
				t.Fatalf("%d decoded as %v", v, got)
			}
		}
	}
}

func FuzzDecodeRound(f *testing.F) {
	// A lossy batch: the second record's receivers 1 and 4 dropped.
	b := recordBatch{
		recs:  []shardDelivery{{m: wireSeeds[0]}, {m: wireSeeds[1]}},
		spans: []dropSpan{{0, 0}, {0, 2}},
		drops: []int32{1, 4},
	}
	two := appendRound(nil, 7, &b)
	three := append([]byte(nil), two...)
	three[1] = 3 // the record count: a third record is missing
	f.Add(appendRound(nil, 0, &recordBatch{}))
	f.Add(two)
	f.Add(three)
	f.Add([]byte{0x80})
	for _, v := range int32Edges {
		f.Add(rawRound(boundaryMessage(v)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b recordBatch
		round, err := decodeRound(data, &b)
		if err != nil {
			return
		}
		trailing := append(append([]byte(nil), data...), 0)
		if _, err := decodeRound(trailing, &recordBatch{}); err == nil {
			t.Fatal("trailing byte accepted")
		}
		enc := appendRound(nil, round, &b)
		var b2 recordBatch
		round2, err := decodeRound(enc, &b2)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if round2 != round || len(b2.recs) != len(b.recs) || !slices.Equal(b2.spans, b.spans) || !slices.Equal(b2.drops, b.drops) {
			t.Fatalf("round trip changed the frame:\n%d %+v\n%d %+v", round, b, round2, b2)
		}
		for i := range b.recs {
			if !msg.Equal(b2.recs[i].m, b.recs[i].m) {
				t.Fatalf("record %d changed: %v -> %v", i, b.recs[i].m, b2.recs[i].m)
			}
		}
		if !bytes.Equal(appendRound(nil, round2, &b2), enc) {
			t.Fatal("a decoded frame re-encodes to other bytes")
		}
	})
}

func FuzzDecodeOutbox(f *testing.F) {
	states := appendState(appendState(nil, 3, []byte{0, 1, 2}), 5, []byte{1, 0, 1, 0})
	f.Add(appendOutbox(nil, 0, false, nil, 0, nil))
	f.Add(appendOutbox(nil, 4, true, wireSeeds, 0, nil))
	f.Add(appendOutbox(nil, 4, false, wireSeeds[:1], 2, states))
	f.Add([]byte{1, 2, 1})
	for _, v := range int32Edges {
		f.Add(rawOutbox(boundaryMessage(v)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ob outbox
		if ob.decode(data) != nil {
			return
		}
		trailing := append(append([]byte(nil), data...), 0)
		if (&outbox{}).decode(trailing) == nil {
			t.Fatal("trailing byte accepted")
		}
		var body []byte
		for _, st := range ob.states {
			body = appendState(body, st.vertex, st.blob)
		}
		enc := appendOutbox(nil, ob.round, ob.done, ob.bs, len(ob.states), body)
		var ob2 outbox
		if err := ob2.decode(enc); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if ob2.round != ob.round || ob2.done != ob.done || len(ob2.bs) != len(ob.bs) {
			t.Fatalf("round trip changed the header: %d %v %d -> %d %v %d",
				ob.round, ob.done, len(ob.bs), ob2.round, ob2.done, len(ob2.bs))
		}
		for i := range ob.bs {
			if !msg.Equal(ob2.bs[i], ob.bs[i]) {
				t.Fatalf("broadcast %d changed: %+v -> %+v", i, ob.bs[i], ob2.bs[i])
			}
		}
		if len(ob2.states) != len(ob.states) {
			t.Fatalf("round trip changed the state count: %d -> %d", len(ob.states), len(ob2.states))
		}
		for i, st := range ob.states {
			if ob2.states[i].vertex != st.vertex || !bytes.Equal(ob2.states[i].blob, st.blob) {
				t.Fatalf("state entry %d changed: %+v -> %+v", i, st, ob2.states[i])
			}
		}
	})
}

// recordingNode passes Step through and keeps what its node broadcast
// in one chosen round.
type recordingNode struct {
	Node
	round int
	out   *[]msg.Message
}

func (r recordingNode) Step(round int, inbox []msg.Message) []msg.Message {
	ms := r.Node.Step(round, inbox)
	if round == r.round {
		*r.out = append(*r.out, ms...)
	}
	return ms
}

// recordRound runs the replay protocol on g under RunSync and returns
// the broadcasts of the given round in ascending sender order.
func recordRound(tb testing.TB, g *graph.Graph, round int) []msg.Message {
	tb.Helper()
	var out []msg.Message
	nodes := replayNodes(g.N(), round+2, 5)
	for i, n := range nodes {
		nodes[i] = recordingNode{Node: n, round: round, out: &out}
	}
	if _, err := RunSync(g, nodes, Config{MaxRounds: round + 1}); err != nil {
		tb.Fatal(err)
	}
	return out
}

// coordRouter returns the router RunTCP's coordinator builds for k node
// processes.
func coordRouter(g *graph.Graph, k int, fault FaultInjector) *router {
	_, owner := shardBounds(g.N(), k)
	segs := segmentsOf(g, owner, k)
	return &router{g: g, owner: owner, segs: &segs, fault: fault, out: make([]recordBatch, k)}
}

// routeFrames routes bs, sent in round, through r and returns every
// shard's round frame and the number of deliveries that survived.
func routeFrames(r *router, round int, bs []msg.Message) (frames [][]byte, delivered int64) {
	for _, m := range bs {
		delivered += r.route(round, int(m.From), m)
	}
	for s := range r.out {
		frames = append(frames, appendRound(nil, round, &r.out[s]))
	}
	r.reset()
	return frames, delivered
}

// recordedRound returns the graph, round and broadcasts the round-frame
// tests route: round 2 of the replay protocol on an ER graph, n = 1,500,
// degree 8.
func recordedRound(t *testing.T) (*graph.Graph, int, []msg.Message) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(3), 1500, 8)
	if err != nil {
		t.Fatal(err)
	}
	const round = 2
	return g, round, recordRound(t, g, round)
}

// TestRoundFrameRecords routes one recorded round through the TCP
// router, encodes and decodes every shard's frame, and fills the node
// arenas. Records must number one per (broadcast, destination shard
// holding a surviving receiver) — one per broadcast at 1 shard — and
// every inbox must hold exactly the surviving messages in ascending
// sender order, the order RunSync appends in. Each shard's node inbox
// is kept across the fault settings, so one arena takes a faulty fill,
// a larger reliable one and a smaller faulty one again: stale offsets
// or index scratch from an earlier fill would show.
func TestRoundFrameRecords(t *testing.T) {
	g, round, bs := recordedRound(t)
	if len(bs) != g.N() {
		t.Fatalf("recorded %d broadcasts, want one per vertex (%d)", len(bs), g.N())
	}
	arenas := map[int][]*nodeInbox{}
	faulty := DropRate{Seed: 5, P: 0.3}
	for _, fault := range []FaultInjector{faulty, nil, faulty} {
		for _, k := range []int{1, 3, 4} {
			bounds, owner := shardBounds(g.N(), k)
			if arenas[k] == nil {
				arenas[k] = make([]*nodeInbox, k)
				for s := range arenas[k] {
					arenas[k][s] = newNodeInbox(g, bounds[s], bounds[s+1])
				}
			}
			wantRecs := 0
			wantInbox := make([][]msg.Message, g.N())
			var wantDelivered int64
			for _, b := range bs {
				alive := map[int32]bool{}
				for _, v := range g.Neighbors(int(b.From)) {
					if fault != nil && fault.Drop(round, b, v) {
						continue
					}
					alive[owner[v]] = true
					m := b // as delivered: stamped with its arrival port
					m.Port = int32(slices.Index(g.Neighbors(v), int(b.From)))
					wantInbox[v] = append(wantInbox[v], m)
					wantDelivered++
				}
				wantRecs += len(alive)
			}
			if fault == nil && k == 1 {
				isolated := 0
				for _, b := range bs {
					if g.Degree(int(b.From)) == 0 {
						isolated++
					}
				}
				if wantRecs != len(bs)-isolated {
					t.Fatalf("1 shard: expected %d records for %d broadcasts", wantRecs, len(bs))
				}
			}
			frames, delivered := routeFrames(coordRouter(g, k, fault), round, bs)
			if delivered != wantDelivered {
				t.Errorf("fault=%v k=%d: route counted %d deliveries, want %d", fault != nil, k, delivered, wantDelivered)
			}
			gotRecs := 0
			for s := 0; s < k; s++ {
				ni := arenas[k][s]
				got, err := ni.receive(frames[s])
				if err != nil || got != round {
					t.Fatalf("shard %d receive: round %d, %v", s, got, err)
				}
				gotRecs += len(ni.batch[0].recs)
				for v := bounds[s]; v < bounds[s+1]; v++ {
					in := ni.arena.inbox(v - bounds[s])
					if len(in) != len(wantInbox[v]) || (len(in) > 0 && !reflect.DeepEqual(in, wantInbox[v])) {
						t.Fatalf("fault=%v k=%d: vertex %d inbox %v, want %v", fault != nil, k, v, in, wantInbox[v])
					}
				}
			}
			if gotRecs != wantRecs {
				t.Errorf("fault=%v k=%d: %d records for %d broadcasts, want %d", fault != nil, k, gotRecs, len(bs), wantRecs)
			}
		}
	}
}

// TestRoundFrameGolden pins the bytes of every round frame the
// coordinator sends for TestRoundFrameRecords' recorded round, reliable
// and lossy, at 1 and 3 node processes, by SHA-256. The coordinator
// re-encodes each message the node processes sent; these hashes were
// recorded when it forwarded the nodes' message bytes verbatim.
func TestRoundFrameGolden(t *testing.T) {
	g, round, bs := recordedRound(t)
	golden := map[string][]string{
		"reliable/k=1": {"6ef8990d4acc0c39d8108fd47b0bf50c7a3fa538c6059ffc1a51a5374efcf57c"},
		"reliable/k=3": {
			"1cc5307bb012751ec9ffa8369f7a141f4831300b2513fb5680e23e2353a90100",
			"1b7347fb0976cbab4fe184928262ded9cfc40c7a61a6b56c93fd89d394efa246",
			"c1ea7eefd511055885aef6cadd4f3666dbb82927cf72b5dce2c3a4dacd8b5dd5",
		},
		"lossy/k=1": {"e25fbb2c1e8f22d312aff22b49ca3aaa6df7229875a0dc7af74c8ae8dc53777f"},
		"lossy/k=3": {
			"b41a2e0c58d6ce571d5448be8d09cc406d6a2ecf5ee83e928b86e64aa588adcd",
			"0a94754dca0f1c379639a06b2db8738608ffe722582cdf3e40a2ba66705fd394",
			"e0b776d86cb8152c520f5d0561c4f0a518fcc45f64ddabcd9f92fc39b4e52f75",
		},
	}
	for name, fault := range map[string]FaultInjector{"reliable": nil, "lossy": DropRate{Seed: 5, P: 0.3}} {
		for _, k := range []int{1, 3} {
			key := fmt.Sprintf("%s/k=%d", name, k)
			frames, _ := routeFrames(coordRouter(g, k, fault), round, bs)
			for s, frame := range frames {
				if got := fmt.Sprintf("%x", sha256.Sum256(frame)); got != golden[key][s] {
					t.Errorf("%s shard %d: frame of %d bytes hashes to %s, want %s", key, s, len(frame), got, golden[key][s])
				}
			}
		}
	}
}

// BenchmarkRoundFrame measures the round-frame layer of RunTCP on one
// recorded round of an ER n = 12,500, degree-8 run: the coordinator's
// routing and encoding of every shard's frame, and each node's decode
// and arena fill, reliable and with 5% of deliveries dropped. It
// reports ns and wire bytes per surviving delivery.
func BenchmarkRoundFrame(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(11), 12_500, 8)
	if err != nil {
		b.Fatal(err)
	}
	bs := recordRound(b, g, 3)
	cases := []struct {
		name  string
		k     int
		fault FaultInjector
	}{
		{"shards=1", 1, nil},
		{"shards=4", 4, nil},
		{"shards=1/drop=0.05", 1, DropRate{Seed: 5, P: 0.05}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			bounds, _ := shardBounds(g.N(), c.k)
			r := coordRouter(g, c.k, c.fault)
			nis := make([]*nodeInbox, c.k)
			for s := range nis {
				nis[s] = newNodeInbox(g, bounds[s], bounds[s+1])
			}
			var buf []byte
			var wire, delivered int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range bs {
					delivered += r.route(0, int(x.From), x)
				}
				for s := 0; s < c.k; s++ {
					buf = appendRound(buf[:0], 0, &r.out[s])
					wire += int64(len(buf))
					if _, err := nis[s].receive(buf); err != nil {
						b.Fatal(err)
					}
				}
				r.reset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(delivered), "ns/delivery")
			b.ReportMetric(float64(wire)/float64(delivered), "wire-B/delivery")
		})
	}
}
