package net

import (
	"reflect"
	"testing"

	"dima/internal/gen"
	"dima/internal/msg"
)

// chattyNode broadcasts one invite per round for its first `sends`
// rounds, then an update, then goes quiet — deterministic multi-kind
// traffic for observer tests.
type chattyNode struct {
	id, sends int
	round     int
}

func (c *chattyNode) ID() int { return c.id }

func (c *chattyNode) Step(round int, inbox []msg.Message) []msg.Message {
	c.round = round + 1
	if round < c.sends {
		return []msg.Message{{Kind: msg.KindInvite, From: int32(c.id), To: int32(c.id + 1), Edge: int32(c.id), Color: int32(round)}}
	}
	if round == c.sends {
		m := msg.Message{Kind: msg.KindUpdate, From: int32(c.id), To: msg.Broadcast, Edge: -1, Color: -1}
		m.SetPaints([]msg.Paint{{Edge: int32(c.id), Color: 0}})
		return []msg.Message{m}
	}
	return nil
}

func (c *chattyNode) Done() bool { return c.round > c.sends }

func chattyNodes(n, sends int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &chattyNode{id: i, sends: sends}
	}
	return nodes
}

// collect runs the engine with an observer and returns the stream.
func collect(t *testing.T, run Engine, nodes []Node, cfg Config) ([]RoundTraffic, Result) {
	t.Helper()
	var rts []RoundTraffic
	cfg.Observe = func(rt RoundTraffic) { rts = append(rts, rt) }
	res, err := run(gen.Cycle(len(nodes)), nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rts, res
}

func TestObserverRoundTotalsMatchResult(t *testing.T) {
	for name, run := range engines() {
		rts, res := collect(t, run, chattyNodes(6, 3), Config{MaxRounds: 10})
		if !res.Terminated {
			t.Fatalf("%s: not terminated: %+v", name, res)
		}
		if len(rts) != res.Rounds {
			t.Fatalf("%s: observed %d rounds, engine ran %d", name, len(rts), res.Rounds)
		}
		var messages, deliveries, bytes int64
		for i, rt := range rts {
			if rt.Round != i {
				t.Fatalf("%s: round %d reported as %d (out of order)", name, i, rt.Round)
			}
			messages += rt.Messages
			deliveries += rt.Deliveries
			bytes += rt.Bytes
			// Kind split must re-sum to the round totals.
			var km, kd, kb int64
			for _, k := range rt.Kinds {
				km += k.Messages
				kd += k.Deliveries
				kb += k.Bytes
			}
			if km != rt.Messages || kd != rt.Deliveries || kb != rt.Bytes {
				t.Fatalf("%s: round %d kind split %d/%d/%d != totals %d/%d/%d",
					name, i, km, kd, kb, rt.Messages, rt.Deliveries, rt.Bytes)
			}
		}
		if messages != res.Messages || deliveries != res.Deliveries || bytes != res.Bytes {
			t.Fatalf("%s: observer sums %d/%d/%d != result %d/%d/%d",
				name, messages, deliveries, bytes, res.Messages, res.Deliveries, res.Bytes)
		}
		// The scripted workload: every node invites in rounds 0..2 and
		// updates in round 3.
		if rts[0].Kinds[msg.KindInvite].Messages != 6 || rts[3].Kinds[msg.KindUpdate].Messages != 6 {
			t.Fatalf("%s: kind attribution wrong: %+v", name, rts)
		}
	}
}

func TestObserverEnginesIdentical(t *testing.T) {
	streams := map[string][]RoundTraffic{}
	for name, run := range engines() {
		rts, _ := collect(t, run, chattyNodes(8, 4), Config{MaxRounds: 12})
		streams[name] = rts
	}
	for name, rts := range streams {
		if !reflect.DeepEqual(rts, streams["sync"]) {
			t.Fatalf("per-round traffic diverges:\nsync: %+v\n%s: %+v", streams["sync"], name, rts)
		}
	}
}

func TestObserverWithFaults(t *testing.T) {
	// Dropping all deliveries to one vertex must show up in the round
	// deliveries but not in messages/bytes, identically on every engine.
	streams := map[string][]RoundTraffic{}
	for name, run := range engines() {
		var rts []RoundTraffic
		res, err := run(gen.Star(4), chattyNodes(4, 2), Config{
			MaxRounds: 8,
			Fault:     dropAll{victim: 0},
			Observe:   func(rt RoundTraffic) { rts = append(rts, rt) },
		})
		if err != nil {
			t.Fatal(err)
		}
		var deliveries int64
		for _, rt := range rts {
			deliveries += rt.Deliveries
		}
		if deliveries != res.Deliveries {
			t.Fatalf("%s: observed deliveries %d != result %d", name, deliveries, res.Deliveries)
		}
		streams[name] = rts
	}
	for name, rts := range streams {
		if !reflect.DeepEqual(rts, streams["sync"]) {
			t.Fatalf("faulted per-round traffic diverges:\nsync: %+v\n%s: %+v", streams["sync"], name, rts)
		}
	}
}
