package core

import (
	"testing"

	"dima/internal/graph"
	"dima/internal/msg"
)

// TestSlotUnsortedAdjacency covers the item → slot lookups on neighbor
// lists in insertion order that is not ascending, as RemoveEdge and
// AddEdge leave them: at (through a message's arrival port) and itemAt
// agree with a scan of the incidence list, for edges and for both arcs
// of each edge, and at and the board's owns reject items that are not
// the node's.
func TestSlotUnsortedAdjacency(t *testing.T) {
	g := graph.New(8)
	for _, e := range [][2]int{{0, 5}, {0, 2}, {0, 7}, {0, 1}, {3, 2}, {6, 4}} {
		g.MustAddEdge(e[0], e[1])
	}
	for _, arcs := range []uint{0, 1} {
		sk := newSkeleton(newBoard(g, 0, g.N(), arcs, &Options{}), 1, &Options{})
		for u := 0; u < g.N(); u++ {
			n := sk.node(u, nil)
			deg := len(n.inc)
			for item := -1; item < (g.M()+1)<<arcs; item++ {
				want := -1
				for i, e := range n.inc {
					if int(e) != item>>arcs || item < 0 {
						continue
					}
					want = i
					// Arc 2e runs from U to V: it is in at V, and arc 2e+1 at U.
					if arcs == 1 && (item&1 == 1) == (n.nbrs[i] > u) {
						want += deg
					}
				}
				if got := sk.owns(u, item); got != (want >= 0) {
					t.Fatalf("arcs %d, u=%d: owns(%d) = %v, want %v", arcs, u, item, got, want >= 0)
				}
				for p := range n.inc {
					w := want
					if want >= 0 && want%deg != p {
						w = -1
					}
					if got := n.at(int32(item), int32(p)); got != w {
						t.Fatalf("arcs %d, u=%d: at(%d, port %d) = %d, want %d", arcs, u, item, p, got, w)
					}
				}
				if want >= 0 && n.itemAt(want) != item {
					t.Fatalf("arcs %d, u=%d: itemAt(%d) = %d, want %d", arcs, u, want, n.itemAt(want), item)
				}
			}
		}
	}
}

// TestPaintSlabNeverRewritesSent pins the slab's contract: paints handed
// out by take keep their values through later adds, removals and chunk
// replacement, and cannot be appended into.
func TestPaintSlabNeverRewritesSent(t *testing.T) {
	s := paintSlab{buf: make([]msg.Paint, 0, 3)}
	s.add(msg.Paint{Edge: 1, Color: 1})
	s.add(msg.Paint{Edge: 2, Color: 2})
	sent := s.take()
	if len(sent) != 2 || cap(sent) != 2 {
		t.Fatalf("take = %v (cap %d), want 2 paints capped at 2", sent, cap(sent))
	}
	s.add(msg.Paint{Edge: 3, Color: 3})
	s.add(msg.Paint{Edge: 4, Color: 4}) // the chunk is full: a fresh one holds 3 and 4
	s.add(msg.Paint{Edge: 5, Color: 5})
	s.remove(1)
	if got := s.pending(); len(got) != 2 || got[0].Edge != 3 || got[1].Edge != 5 {
		t.Fatalf("pending = %v, want edges 3 and 5", got)
	}
	if sent[0] != (msg.Paint{Edge: 1, Color: 1}) || sent[1] != (msg.Paint{Edge: 2, Color: 2}) {
		t.Fatalf("sent paints rewritten: %v", sent)
	}
	more := s.take()
	if len(more) != 2 || len(s.pending()) != 0 {
		t.Fatalf("second take = %v, pending %v", more, s.pending())
	}
}
