package net

import (
	"bytes"
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
		_, recs, _, rerr := decodeRound(appendRound(nil, 0, 1, appendRecord(nil, 3, m, nil)), nil, nil)
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
		for _, got := range []msg.Message{recs[0].m, ob.bs[0].m} {
			p := got.Paints()
			if int64(got.To) != v || int64(got.Edge) != v || int64(got.Color) != v ||
				len(p) != 1 || int64(p[0].Edge) != v || int64(p[0].Color) != v {
				t.Fatalf("%d decoded as %v", v, got)
			}
		}
	}
}

func FuzzDecodeRound(f *testing.F) {
	body := appendRecord(nil, 3, wireSeeds[0].Append(nil), nil)
	body = appendRecord(body, 5, wireSeeds[1].Append(nil), []int32{1, 4})
	f.Add(appendRound(nil, 0, 0, nil))
	f.Add(appendRound(nil, 7, 2, body))
	f.Add(appendRound(nil, 7, 3, body))
	f.Add([]byte{0x80})
	for _, v := range int32Edges {
		f.Add(appendRound(nil, 7, 1, appendRecord(nil, 3, boundaryMessage(v), nil)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		round, recs, drops, err := decodeRound(data, nil, nil)
		if err != nil {
			return
		}
		trailing := append(append([]byte(nil), data...), 0)
		if _, _, _, err := decodeRound(trailing, nil, nil); err == nil {
			t.Fatal("trailing byte accepted")
		}
		var body []byte
		for _, r := range recs {
			body = appendRecord(body, r.from, r.m.Append(nil), drops[r.drops.lo:r.drops.hi])
		}
		enc := appendRound(nil, round, len(recs), body)
		round2, recs2, drops2, err := decodeRound(enc, nil, nil)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if round2 != round || len(recs2) != len(recs) || !reflect.DeepEqual(drops2, drops) {
			t.Fatalf("round trip changed the frame:\n%d %+v %v\n%d %+v %v", round, recs, drops, round2, recs2, drops2)
		}
		for i := range recs {
			if recs2[i].from != recs[i].from || recs2[i].drops != recs[i].drops || !msg.Equal(recs2[i].m, recs[i].m) {
				t.Fatalf("record %d changed: %+v -> %+v", i, recs[i], recs2[i])
			}
		}
	})
}

func FuzzDecodeOutbox(f *testing.F) {
	states := appendState(appendState(nil, 3, []byte{0, 1, 2}), 5, []byte{1, 0, 1, 0})
	f.Add(appendOutbox(nil, 0, false, nil, 0, nil))
	f.Add(appendOutbox(nil, 4, true, []broadcast{{from: 3, m: wireSeeds[0]}, {from: 5, m: wireSeeds[1]}}, 0, nil))
	f.Add(appendOutbox(nil, 4, false, []broadcast{{from: 3, m: wireSeeds[0]}}, 2, states))
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
			if ob2.bs[i].from != ob.bs[i].from || !msg.Equal(ob2.bs[i].m, ob.bs[i].m) {
				t.Fatalf("broadcast %d changed: %+v -> %+v", i, ob.bs[i], ob2.bs[i])
			}
			if !bytes.Equal(ob2.bs[i].raw, ob2.bs[i].m.Append(nil)) {
				t.Fatalf("broadcast %d: raw bytes are not the message's encoding", i)
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
// in one chosen round, with each message's encoding as outbox.decode
// would hand it to the router.
type recordingNode struct {
	Node
	round int
	out   *[]broadcast
}

func (r recordingNode) Step(round int, inbox []msg.Message) []msg.Message {
	ms := r.Node.Step(round, inbox)
	if round == r.round {
		for _, m := range ms {
			*r.out = append(*r.out, broadcast{from: r.ID(), m: m, raw: m.Append(nil)})
		}
	}
	return ms
}

// recordRound runs the replay protocol on g under RunSync and returns
// the broadcasts of the given round in ascending sender order.
func recordRound(tb testing.TB, g *graph.Graph, round int) []broadcast {
	tb.Helper()
	var out []broadcast
	nodes := replayNodes(g.N(), round+2, 5)
	for i, n := range nodes {
		nodes[i] = recordingNode{Node: n, round: round, out: &out}
	}
	if _, err := RunSync(g, nodes, Config{MaxRounds: round + 1}); err != nil {
		tb.Fatal(err)
	}
	return out
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
	g, err := gen.ErdosRenyiAvgDegree(rng.New(3), 1500, 8)
	if err != nil {
		t.Fatal(err)
	}
	const round = 2
	bs := recordRound(t, g, round)
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
			r := newTCPRouter(g, owner, k, fault)
			wantRecs := 0
			wantInbox := make([][]msg.Message, g.N())
			var wantDelivered int64
			for _, b := range bs {
				alive := map[int32]bool{}
				for _, v := range g.Neighbors(b.from) {
					if fault != nil && fault.Drop(round, b.m, v) {
						continue
					}
					alive[owner[v]] = true
					m := b.m // as delivered: stamped with its arrival port
					m.Port = int32(slices.Index(g.Neighbors(v), b.from))
					wantInbox[v] = append(wantInbox[v], m)
					wantDelivered++
				}
				wantRecs += len(alive)
			}
			if fault == nil && k == 1 {
				isolated := 0
				for _, b := range bs {
					if g.Degree(b.from) == 0 {
						isolated++
					}
				}
				if wantRecs != len(bs)-isolated {
					t.Fatalf("1 shard: expected %d records for %d broadcasts", wantRecs, len(bs))
				}
			}
			var delivered int64
			for _, b := range bs {
				delivered += r.route(round, b)
			}
			if delivered != wantDelivered {
				t.Errorf("fault=%v k=%d: route counted %d deliveries, want %d", fault != nil, k, delivered, wantDelivered)
			}
			gotRecs := 0
			for s := 0; s < k; s++ {
				frame := r.frame(nil, round, s)
				got, recs, _, err := decodeRound(frame, nil, nil)
				if err != nil || got != round {
					t.Fatalf("shard %d frame: round %d, %v", s, got, err)
				}
				gotRecs += len(recs)
				ni := arenas[k][s]
				if _, err := ni.receive(frame); err != nil {
					t.Fatalf("shard %d receive: %v", s, err)
				}
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

// BenchmarkRoundFrame measures the round-frame layer of RunTCP on one
// recorded round of an ER n = 12,500, degree-8 run: the coordinator's
// routing and encoding of every shard's frame, and each node's decode
// and arena fill. It reports ns and wire bytes per delivery.
func BenchmarkRoundFrame(b *testing.B) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(11), 12_500, 8)
	if err != nil {
		b.Fatal(err)
	}
	bs := recordRound(b, g, 3)
	deliveries := 0
	for _, x := range bs {
		deliveries += g.Degree(x.from)
	}
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			bounds, owner := shardBounds(g.N(), k)
			r := newTCPRouter(g, owner, k, nil)
			nis := make([]*nodeInbox, k)
			for s := range nis {
				nis[s] = newNodeInbox(g, bounds[s], bounds[s+1])
			}
			var buf []byte
			wire := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range bs {
					r.route(0, x)
				}
				for s := 0; s < k; s++ {
					buf = r.frame(buf[:0], 0, s)
					wire += len(buf)
					if _, err := nis[s].receive(buf); err != nil {
						b.Fatal(err)
					}
				}
			}
			total := float64(b.N) * float64(deliveries)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/delivery")
			b.ReportMetric(float64(wire)/total, "wire-B/delivery")
		})
	}
}
