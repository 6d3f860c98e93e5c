package core

import (
	"testing"

	"dima/internal/graph"
	"dima/internal/msg"
)

// TestAdjacencyIndexUnsorted covers the slot lookup on neighbor lists in
// insertion order that is not ascending, where the lookup goes through
// the sorted order table.
func TestAdjacencyIndexUnsorted(t *testing.T) {
	g := graph.New(8)
	for _, e := range [][2]int{{0, 5}, {0, 2}, {0, 7}, {0, 1}, {3, 2}, {6, 4}} {
		g.MustAddEdge(e[0], e[1])
	}
	c := newIncidence(g, 0, g.N())
	if c.order == nil {
		t.Fatal("unsorted neighbor lists got no order table")
	}
	for u := 0; u < g.N(); u++ {
		a := c.adjacency(g, u)
		nbr := map[int]int{}
		for i, v := range g.Neighbors(u) {
			nbr[v] = i
		}
		for v := -1; v <= g.N(); v++ {
			i, ok := a.index(v)
			want, isNbr := nbr[v]
			if ok != isNbr || (ok && i != want) {
				t.Fatalf("u=%d: index(%d) = %d,%v; want %d,%v", u, v, i, ok, want, isNbr)
			}
		}
	}
	// Ascending lists need no table.
	p := graph.New(4)
	p.MustAddEdge(0, 1)
	p.MustAddEdge(1, 2)
	p.MustAddEdge(2, 3)
	if c := newIncidence(p, 0, p.N()); c.order != nil {
		t.Fatal("ascending neighbor lists built an order table")
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
