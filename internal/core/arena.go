package core

import (
	"slices"

	"dima/internal/graph"
	"dima/internal/msg"
)

// Flat node state. Both algorithms keep their per-neighbor state in
// slices indexed by incidence position — slot i of vertex u belongs to
// Neighbors(u)[i] and IncidentEdges(u)[i] — instead of maps keyed by
// vertex or edge id. The slices are windows of run-wide arrays laid out
// like a CSR: one allocation per array per run instead of a few per
// vertex, and no per-round allocation once the run is under way.

// incidence is the run-wide CSR layout of the vertex range [lo, hi):
// vertex u's window in every per-incidence array is
// [off[u-lo], off[u-lo+1]). order holds, per window, the slot numbers
// sorted by neighbor id; it is nil when every neighbor list in the
// range is already ascending (as gen's generators build them), in which
// case slot k is also the k-th smallest neighbor.
type incidence struct {
	lo    int
	off   []int
	order []int32
}

func newIncidence(g *graph.Graph, lo, hi int) incidence {
	inc := incidence{lo: lo, off: make([]int, hi-lo+1)}
	sorted := true
	for u := lo; u < hi; u++ {
		nb := g.Neighbors(u)
		inc.off[u-lo+1] = inc.off[u-lo] + len(nb)
		sorted = sorted && slices.IsSorted(nb)
	}
	if !sorted {
		inc.order = make([]int32, inc.total())
		for u := lo; u < hi; u++ {
			nb := g.Neighbors(u)
			w := inc.order[inc.off[u-lo]:inc.off[u-lo+1]]
			for i := range w {
				w[i] = int32(i)
			}
			slices.SortFunc(w, func(a, b int32) int { return nb[a] - nb[b] })
		}
	}
	return inc
}

// total is the summed degree of the range: the length of every
// per-incidence array.
func (c *incidence) total() int { return c.off[len(c.off)-1] }

// span returns vertex u's window bounds.
func (c *incidence) span(u int) (int, int) { return c.off[u-c.lo], c.off[u-c.lo+1] }

// adjacency returns vertex u's neighbor lookup.
func (c *incidence) adjacency(g *graph.Graph, u int) adjacency {
	a := adjacency{nbrs: g.Neighbors(u)}
	if c.order != nil {
		lo, hi := c.span(u)
		a.order = c.order[lo:hi:hi]
	}
	return a
}

// window carves vertex u's window out of a run-wide array, capped so an
// append past the window reallocates instead of spilling into the next
// vertex's.
func window[T any](arr []T, c *incidence, u int) []T {
	lo, hi := c.span(u)
	return arr[lo:hi:hi]
}

// adjacency maps a neighbor vertex id to its slot by binary search over
// the neighbor list (through order when the list is not ascending): the
// map-free replacement for a per-node neighbor → index table.
type adjacency struct {
	nbrs  []int
	order []int32
}

func (a *adjacency) at(k int) int {
	if a.order == nil {
		return a.nbrs[k]
	}
	return a.nbrs[a.order[k]]
}

// index returns the slot of neighbor v, or ok == false if v is not a
// neighbor.
func (a *adjacency) index(v int) (int, bool) {
	lo, hi := 0, len(a.nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.at(mid) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(a.nbrs) || a.at(lo) != v {
		return -1, false
	}
	if a.order == nil {
		return lo, true
	}
	return int(a.order[lo]), true
}

// paintSlab is a node's append-only arena for the Paints of its Update
// broadcasts. A sent Update's Paints alias the slab — receivers' inboxes
// and the engines hold copies of the message — so paints already sent
// are never rewritten: only the unsent tail buf[sent:] changes. The
// first chunk is a window of a run-wide array; a full chunk is replaced
// by a fresh one holding the unsent tail, and the old chunk is left to
// the messages that still reference it.
type paintSlab struct {
	buf  []msg.Paint
	sent int
}

// add appends p to the unsent tail.
func (s *paintSlab) add(p msg.Paint) {
	if len(s.buf) == cap(s.buf) {
		fresh := make([]msg.Paint, 0, max(2*cap(s.buf), 8))
		s.buf = append(fresh, s.buf[s.sent:]...)
		s.sent = 0
	}
	s.buf = append(s.buf, p)
}

// pending returns the paints not yet sent.
func (s *paintSlab) pending() []msg.Paint { return s.buf[s.sent:] }

// take marks the pending paints sent and returns them with their
// capacity clipped, so no holder of the message can append into the
// slab.
func (s *paintSlab) take() []msg.Paint {
	p := s.buf[s.sent:len(s.buf):len(s.buf)]
	s.sent = len(s.buf)
	return p
}

// remove deletes pending paint i (an index into pending()).
func (s *paintSlab) remove(i int) {
	j := s.sent + i
	s.buf = append(s.buf[:j], s.buf[j+1:]...)
}
