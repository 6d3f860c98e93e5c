package graph

import "fmt"

// ArcID identifies a directed edge (arc) within a Digraph.
type ArcID int

// Arc is a directed edge.
type Arc struct {
	From, To int
}

func (a Arc) String() string { return fmt.Sprintf("%d->%d", a.From, a.To) }

// Reverse returns the arc with endpoints swapped.
func (a Arc) Reverse() Arc { return Arc{a.To, a.From} }

// Digraph is a symmetric digraph: for every arc (u,v) the reverse arc
// (v,u) is also present. It is the input model of Algorithm 2 (DiMa2Ed),
// which colors each direction of a bidirectional link independently —
// the natural model of directed channel assignment in an ad-hoc network.
//
// A Digraph wraps the underlying undirected Graph: arc 2e is the
// low-to-high direction of undirected edge e, arc 2e+1 its reverse.
type Digraph struct {
	under *Graph
}

// NewSymmetric returns the symmetric digraph over the undirected graph g.
// The digraph shares g's storage; g must not be modified afterwards.
func NewSymmetric(g *Graph) *Digraph {
	return &Digraph{under: g}
}

// Under returns the underlying undirected graph.
func (d *Digraph) Under() *Graph { return d.under }

// N returns the number of vertices.
func (d *Digraph) N() int { return d.under.n }

// A returns the number of arcs (twice the number of undirected edges).
func (d *Digraph) A() int { return 2 * d.under.M() }

// ArcAt returns the endpoints of arc id.
func (d *Digraph) ArcAt(id ArcID) Arc {
	e := d.under.edges[id/2]
	if id%2 == 0 {
		return Arc{e.U, e.V}
	}
	return Arc{e.V, e.U}
}

// ArcIDOf returns the id of arc (from, to).
func (d *Digraph) ArcIDOf(from, to int) (ArcID, bool) {
	eid, ok := d.under.EdgeIDOf(from, to)
	if !ok {
		return -1, false
	}
	e := d.under.edges[eid]
	if e.U == from {
		return ArcID(2 * eid), true
	}
	return ArcID(2*eid + 1), true
}

// ReverseOf returns the id of the reverse arc of id.
func (d *Digraph) ReverseOf(id ArcID) ArcID { return id ^ 1 }

// EdgeOf returns the undirected edge underlying arc id.
func (d *Digraph) EdgeOf(id ArcID) EdgeID { return EdgeID(id / 2) }

// OutArcs returns the ids of arcs leaving u, aligned with
// Under().Neighbors(u).
func (d *Digraph) OutArcs(u int) []ArcID {
	inc := d.under.inc[u]
	out := make([]ArcID, len(inc))
	for i, eid := range inc {
		e := d.under.edges[eid]
		if e.U == u {
			out[i] = ArcID(2 * eid)
		} else {
			out[i] = ArcID(2*eid + 1)
		}
	}
	return out
}

// InArcs returns the ids of arcs entering u, aligned with
// Under().Neighbors(u).
func (d *Digraph) InArcs(u int) []ArcID {
	out := d.OutArcs(u)
	for i := range out {
		out[i] ^= 1
	}
	return out
}

// MaxDegree returns Δ of the underlying undirected graph, the parameter
// the paper's round bounds are stated in.
func (d *Digraph) MaxDegree() int { return d.under.MaxDegree() }

// ArcsConflict reports whether two distinct arcs conflict under the
// paper's Definition 2: a strong directed edge coloring must give
// different colors to any two arcs whose endpoint sets intersect or are
// joined by an edge of the graph. In particular an arc conflicts with its
// own reverse.
func (d *Digraph) ArcsConflict(a, b ArcID) bool {
	if a == b {
		return false
	}
	if a/2 == b/2 {
		return true // an arc and its reverse share both endpoints
	}
	return d.under.EdgesWithinDistance1(EdgeID(a/2), EdgeID(b/2))
}
