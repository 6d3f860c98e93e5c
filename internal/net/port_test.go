package net

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/rng"
)

// portGraph returns an ER graph whose neighbor lists are out of
// ascending order and whose edge ids are recycled: a third of its edges
// are removed and added back, which appends each to both endpoints'
// lists, and the rest of each list keeps insertion order.
func portGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyiAvgDegree(rng.New(17), 300, 6)
	if err != nil {
		t.Fatal(err)
	}
	edges := append([]graph.Edge(nil), g.Edges()...)
	for i, e := range edges {
		if i%3 == 0 {
			g.RemoveEdge(e.U, e.V)
		}
	}
	for i := len(edges) - 1; i >= 0; i-- {
		if e := edges[i]; i%3 == 0 {
			g.MustAddEdge(e.V, e.U)
		}
	}
	for u := 0; u < g.N(); u++ {
		if !slices.IsSorted(g.Neighbors(u)) {
			return g
		}
	}
	t.Fatal("every neighbor list is still ascending")
	return nil
}

// portNode broadcasts one or two messages a round for a few rounds and
// checks the arrival port of every message it receives.
type portNode struct {
	id, rounds int
	nbrs       []int
	heard, bad int
	step       int
}

func (n *portNode) ID() int    { return n.id }
func (n *portNode) Done() bool { return n.step >= n.rounds }

func (n *portNode) Step(round int, inbox []msg.Message) []msg.Message {
	n.step++
	for _, m := range inbox {
		n.heard++
		if m.Port < 0 || int(m.Port) >= len(n.nbrs) || n.nbrs[m.Port] != int(m.From) {
			n.bad++
		}
	}
	if n.Done() {
		return nil
	}
	out := []msg.Message{{Kind: msg.KindInvite, From: int32(n.id), To: msg.Broadcast, Edge: int32(round), Port: -7}}
	if (n.id+round)%3 == 0 {
		out = append(out, msg.Message{Kind: msg.KindClaim, From: int32(n.id), To: msg.Broadcast, Edge: -1, Color: 2})
	}
	return out
}

// TestEveryDeliveryCarriesItsPort: on every engine, with and without a
// fault injector, on a graph with out-of-order adjacency, every message
// a node receives satisfies Neighbors(v)[m.Port] == m.From — whatever
// Port its sender left on it.
func TestEveryDeliveryCarriesItsPort(t *testing.T) {
	g := portGraph(t)
	for name, run := range map[string]Engine{"sync": RunSync, "shard-1": shardWith(1), "shard-3": shardWith(3)} {
		for _, fault := range []FaultInjector{nil, DropRate{Seed: 3, P: 0.3}} {
			t.Run(fmt.Sprintf("%s/fault=%v", name, fault != nil), func(t *testing.T) {
				nodes := make([]Node, g.N())
				pns := make([]*portNode, g.N())
				for u := range nodes {
					pns[u] = &portNode{id: u, rounds: 6, nbrs: g.Neighbors(u)}
					nodes[u] = pns[u]
				}
				res, err := run(g, nodes, Config{Fault: fault})
				if err != nil {
					t.Fatal(err)
				}
				heard := 0
				for _, n := range pns {
					if n.bad > 0 {
						t.Fatalf("node %d got %d of %d messages with a wrong port", n.id, n.bad, n.heard)
					}
					heard += n.heard
				}
				if int64(heard) != res.Deliveries || heard == 0 {
					t.Fatalf("nodes heard %d messages, engine delivered %d", heard, res.Deliveries)
				}
			})
		}
	}
}

// TestNodeInboxStampsPorts is the TCP engine's share: a recorded round
// routed by the coordinator into round frames, decoded by 1 and 3 node
// processes' inboxes, on the same out-of-order graph, reliable and
// lossy.
func TestNodeInboxStampsPorts(t *testing.T) {
	g := portGraph(t)
	const round = 2
	bs := recordRound(t, g, round)
	for _, fault := range []FaultInjector{nil, DropRate{Seed: 3, P: 0.3}} {
		for _, k := range []int{1, 3} {
			bounds, _ := shardBounds(g.N(), k)
			frames, want := routeFrames(coordRouter(g, k, fault), round, bs)
			var heard int64
			for s := 0; s < k; s++ {
				ni := newNodeInbox(g, bounds[s], bounds[s+1])
				if _, err := ni.receive(frames[s]); err != nil {
					t.Fatal(err)
				}
				for v := bounds[s]; v < bounds[s+1]; v++ {
					for _, m := range ni.arena.inbox(v - bounds[s]) {
						heard++
						if g.Neighbors(v)[m.Port] != int(m.From) {
							t.Fatalf("fault=%v k=%d: vertex %d got %v on port %d, which is %d",
								fault != nil, k, v, m, m.Port, g.Neighbors(v)[m.Port])
						}
					}
				}
			}
			if heard != want || heard == 0 {
				t.Fatalf("fault=%v k=%d: inboxes hold %d messages, router counted %d", fault != nil, k, heard, want)
			}
		}
	}
}

// TestDeliveryRecordWidth pins the width of the record RunShard buffers
// per (broadcast, destination shard): a message plus its segment.
func TestDeliveryRecordWidth(t *testing.T) {
	if sz := unsafe.Sizeof(shardDelivery{}); sz > 48 {
		t.Fatalf("shardDelivery is %d bytes, want at most 48", sz)
	}
}
