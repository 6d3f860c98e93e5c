package net

import (
	"reflect"
	"testing"

	"dima/internal/gen"
	"dima/internal/msg"
	"dima/internal/rng"
)

// The Node contract lets Step return a node-owned outbox that the node
// overwrites at its next Step, with Paints carved from an append-only
// slab the node never rewrites once sent. These tests run a node that
// exploits the contract to the limit — at the start of every Step it
// scribbles garbage over every message of its previous outbox,
// including each message's Paints header — against a twin that
// allocates fresh outboxes and paints. Any engine that reads an outbox
// after the sender's next Step, instead of copying the messages out in
// time, delivers garbage and diverges from the twin.

// outboxNode folds everything it hears into state and derives its next
// outbox from it, so one corrupted delivery changes all later traffic.
type outboxNode struct {
	id     int
	rounds int
	reuse  bool
	state  uint64
	step   int

	out  []msg.Message
	slab []msg.Paint // append-only: paints already sent are never rewritten
	junk []msg.Paint
}

func (n *outboxNode) ID() int    { return n.id }
func (n *outboxNode) Done() bool { return n.step >= n.rounds }

func (n *outboxNode) Step(round int, inbox []msg.Message) []msg.Message {
	if n.reuse {
		prev := n.out[:cap(n.out)]
		for i := range prev {
			prev[i] = msg.Message{Kind: msg.KindAck, From: -3, To: -5, Edge: -7, Color: -9, Seq: 99, Paints: n.junk}
		}
	}
	n.step++
	h := n.state ^ uint64(round)
	for _, m := range inbox {
		h = rng.Mix64(h ^ uint64(m.From)<<32 ^ uint64(m.Kind)<<24 ^ uint64(uint32(m.Color)))
		h = rng.Mix64(h ^ uint64(uint32(m.Edge)) ^ uint64(m.Seq)<<40)
		for _, p := range m.Paints {
			h = rng.Mix64(h ^ uint64(uint32(p.Edge))<<32 ^ uint64(uint32(p.Color)))
		}
	}
	n.state = h
	if n.Done() {
		return nil
	}
	var out []msg.Message
	if n.reuse {
		out = n.out[:0]
	}
	for k := 0; k < int(h%3); k++ {
		h = rng.Mix64(h + uint64(k))
		m := msg.Message{Kind: msg.KindUpdate, From: n.id, To: msg.Broadcast, Edge: int(h % 97), Color: int(h>>8) % 13}
		if np := int(h>>16) % 4; np > 0 {
			m.Paints = n.paints(np, h)
		}
		out = append(out, m)
	}
	if n.reuse {
		n.out = out
	}
	return out
}

// paints returns k paints derived from h: carved from the append-only
// slab by the reusing node, freshly allocated by its twin.
func (n *outboxNode) paints(k int, h uint64) []msg.Paint {
	if n.reuse {
		if len(n.slab)+k > cap(n.slab) {
			n.slab = make([]msg.Paint, 0, 16) // the old chunk stays with its messages
		}
		lo := len(n.slab)
		for i := 0; i < k; i++ {
			n.slab = append(n.slab, msg.Paint{Edge: int(h>>uint(8*i)) % 101, Color: i})
		}
		return n.slab[lo:len(n.slab):len(n.slab)]
	}
	var ps []msg.Paint
	for i := 0; i < k; i++ {
		ps = append(ps, msg.Paint{Edge: int(h>>uint(8*i)) % 101, Color: i})
	}
	return ps
}

type outboxRun struct {
	res     Result
	traffic []RoundTraffic
	states  []uint64
}

func runOutboxNodes(t *testing.T, run Engine, reuse bool, fault FaultInjector) outboxRun {
	t.Helper()
	g, err := gen.ErdosRenyiAvgDegree(rng.New(5), 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]Node, g.N())
	ons := make([]*outboxNode, g.N())
	for u := range nodes {
		ons[u] = &outboxNode{id: u, rounds: 25 + u%7, reuse: reuse, junk: []msg.Paint{{Edge: -1, Color: -1}}}
		nodes[u] = ons[u]
	}
	var r outboxRun
	r.res, err = run(g, nodes, Config{Fault: fault, Observe: func(rt RoundTraffic) { r.traffic = append(r.traffic, rt) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ons {
		r.states = append(r.states, n.state)
	}
	return r
}

func TestOutboxReuseContract(t *testing.T) {
	for _, fc := range []struct {
		name  string
		fault FaultInjector
	}{{"reliable", nil}, {"faulty", DropRate{Seed: 3, P: 0.2}}} {
		want := runOutboxNodes(t, RunSync, false, fc.fault)
		if want.res.Messages == 0 || want.res.Bytes == 0 {
			t.Fatalf("%s: degenerate reference run %+v", fc.name, want.res)
		}
		for name, run := range map[string]Engine{
			"sync": RunSync, "shard-1": shardWith(1), "shard-3": shardWith(3), "shard-oversub": shardWith(oversubscribed()),
		} {
			for _, reuse := range []bool{false, true} {
				got := runOutboxNodes(t, run, reuse, fc.fault)
				if got.res != want.res {
					t.Errorf("%s %s reuse=%v: Result %+v, twin on sync %+v", fc.name, name, reuse, got.res, want.res)
				}
				if !reflect.DeepEqual(got.traffic, want.traffic) {
					t.Errorf("%s %s reuse=%v: RoundTraffic stream differs from the twin on sync", fc.name, name, reuse)
				}
				if !reflect.DeepEqual(got.states, want.states) {
					t.Errorf("%s %s reuse=%v: nodes heard different messages than the twin on sync", fc.name, name, reuse)
				}
			}
		}
	}
}
