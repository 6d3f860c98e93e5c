// Package graph provides the graph substrate for the dima simulator:
// simple undirected graphs with stable edge identifiers, and symmetric
// digraphs derived from them for the strong (distance-2) edge coloring
// algorithm.
//
// Vertices are dense integers [0, N). Each undirected edge carries a
// stable EdgeID assigned in insertion order; the strong-coloring
// algorithm works on arcs (directed edges), each with a stable ArcID.
// All query methods are read-only and safe for concurrent use once the
// graph has been built.
package graph

import (
	"fmt"
	"sort"
)

// EdgeID identifies an undirected edge within a Graph.
type EdgeID int

// Edge is an undirected edge with normalized endpoints U < V.
type Edge struct {
	U, V int
}

// Norm returns e with endpoints ordered so that U < V.
func (e Edge) Norm() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Other returns the endpoint of e that is not w. It panics if w is not an
// endpoint of e.
func (e Edge) Other(w int) int {
	switch w {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d not an endpoint of %v", w, e))
}

func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is a simple undirected graph. Build it with New and AddEdge;
// once handed to an engine it is immutable by convention and safe for
// concurrent reads. RemoveEdge supports the dynamic-recoloring workload:
// a removed edge leaves a hole at its id, and the id is recycled by the
// next AddEdge, so edge ids stay dense under balanced churn and every
// id-indexed side table (colors, weights) keeps its meaning across
// mutations. Graphs that never see a removal have no holes and
// EdgeIDBound() == M(), the historical invariant.
type Graph struct {
	n     int
	adj   [][]int    // adj[u] = sorted-by-insertion neighbor list
	inc   [][]EdgeID // inc[u][i] = id of edge (u, adj[u][i])
	edges []Edge     // edges[id] = normalized endpoints, or edgeHole
	free  []EdgeID   // removed ids awaiting recycling (LIFO)
	index map[Edge]EdgeID

	// Degree bookkeeping, maintained on every mutation so MaxDegree is
	// O(1): degCount[d] counts vertices of degree d, maxDeg is the
	// largest d with degCount[d] > 0 (0 for an empty graph). A dynamic
	// recolorer reads the current Δ on every batch, so Δ must track
	// deletions as cheaply as insertions.
	degCount []int
	maxDeg   int
}

// edgeHole marks a removed edge's slot in the edge list.
var edgeHole = Edge{-1, -1}

// New returns an empty graph on n vertices. It panics if n < 0.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{
		n:        n,
		adj:      make([][]int, n),
		inc:      make([][]EdgeID, n),
		index:    make(map[Edge]EdgeID),
		degCount: []int{n},
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of (live) edges.
func (g *Graph) M() int { return len(g.edges) - len(g.free) }

// EdgeIDBound returns one past the largest edge id ever assigned — the
// length any slice indexed by EdgeID must have. Equal to M() unless
// edges have been removed without their ids being recycled yet.
func (g *Graph) EdgeIDBound() int { return len(g.edges) }

// Live reports whether id names a present edge (in range and not a
// removal hole).
func (g *Graph) Live(id EdgeID) bool {
	return id >= 0 && int(id) < len(g.edges) && g.edges[id] != edgeHole
}

// AddEdge inserts the undirected edge {u, v} and returns its id.
// Self-loops, duplicate edges, and out-of-range endpoints are errors.
func (g *Graph) AddEdge(u, v int) (EdgeID, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return -1, fmt.Errorf("graph: self-loop at %d", u)
	}
	e := Edge{u, v}.Norm()
	if _, dup := g.index[e]; dup {
		return -1, fmt.Errorf("graph: duplicate edge %v", e)
	}
	var id EdgeID
	if k := len(g.free); k > 0 {
		id = g.free[k-1]
		g.free = g.free[:k-1]
		g.edges[id] = e
	} else {
		id = EdgeID(len(g.edges))
		g.edges = append(g.edges, e)
	}
	g.index[e] = id
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.inc[u] = append(g.inc[u], id)
	g.inc[v] = append(g.inc[v], id)
	g.degreeUp(len(g.adj[u]))
	g.degreeUp(len(g.adj[v]))
	return id, nil
}

// degreeUp moves one vertex from degree d-1 to d in the degree counts.
func (g *Graph) degreeUp(d int) {
	g.degCount[d-1]--
	if d == len(g.degCount) {
		g.degCount = append(g.degCount, 0)
	}
	g.degCount[d]++
	if d > g.maxDeg {
		g.maxDeg = d
	}
}

// degreeDown moves one vertex from degree d+1 to d, shrinking maxDeg
// when the top degree class empties. The walk down is amortized O(1):
// maxDeg only decreases past degrees some degreeUp paid to reach.
func (g *Graph) degreeDown(d int) {
	g.degCount[d+1]--
	g.degCount[d]++
	for g.maxDeg > 0 && g.degCount[g.maxDeg] == 0 {
		g.maxDeg--
	}
}

// RemoveEdge deletes the undirected edge {u, v} and returns the id it
// occupied. The id becomes a hole (Live reports false, EdgeAt returns
// {-1,-1}) until the next AddEdge recycles it; adjacency and incidence
// lists of both endpoints are maintained by swap-removal, so neighbor
// order is not preserved across a removal.
func (g *Graph) RemoveEdge(u, v int) (EdgeID, error) {
	id, ok := g.EdgeIDOf(u, v)
	if !ok {
		return -1, fmt.Errorf("graph: no edge (%d,%d) to remove", u, v)
	}
	e := g.edges[id]
	delete(g.index, e)
	g.edges[id] = edgeHole
	g.free = append(g.free, id)
	g.detach(e.U, id)
	g.detach(e.V, id)
	g.degreeDown(len(g.adj[e.U]))
	g.degreeDown(len(g.adj[e.V]))
	return id, nil
}

// detach swap-removes edge id from u's adjacency and incidence lists.
func (g *Graph) detach(u int, id EdgeID) {
	inc := g.inc[u]
	for i, x := range inc {
		if x == id {
			last := len(inc) - 1
			g.adj[u][i] = g.adj[u][last]
			inc[i] = inc[last]
			g.adj[u] = g.adj[u][:last]
			g.inc[u] = inc[:last]
			return
		}
	}
	panic(fmt.Sprintf("graph: edge %d missing from vertex %d incidence", id, u))
}

// MustAddEdge is AddEdge that panics on error; for tests and generators
// whose construction logic guarantees validity.
func (g *Graph) MustAddEdge(u, v int) EdgeID {
	id, err := g.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return id
}

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	_, ok := g.index[Edge{u, v}.Norm()]
	return ok
}

// EdgeIDOf returns the id of edge {u, v}.
func (g *Graph) EdgeIDOf(u, v int) (EdgeID, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return -1, false
	}
	id, ok := g.index[Edge{u, v}.Norm()]
	return id, ok
}

// EdgeAt returns the endpoints of edge id ({-1,-1} for a removal hole).
func (g *Graph) EdgeAt(id EdgeID) Edge {
	return g.edges[id]
}

// Edges returns the edge list indexed by EdgeID. After removals the
// slice contains {-1,-1} holes; iterate with Live or skip negative
// endpoints. The caller must not modify the returned slice.
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns u's neighbor list in insertion order. The caller must
// not modify the returned slice.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// IncidentEdges returns the ids of edges incident to u, aligned with
// Neighbors(u): IncidentEdges(u)[i] is the edge to Neighbors(u)[i].
func (g *Graph) IncidentEdges(u int) []EdgeID { return g.inc[u] }

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegree returns Δ, the maximum degree, in O(1): the degree counts
// are maintained incrementally by AddEdge and RemoveEdge, so Δ tracks
// deletions as well as insertions. Zero for an empty graph.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// AvgDegree returns the average degree 2M/N; zero for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(g.n)
}

// Clone returns a deep copy of g, preserving edge ids, removal holes,
// and the id-recycling free list, so a clone of a mutated graph keeps
// every id-indexed side table valid.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:        g.n,
		adj:      make([][]int, g.n),
		inc:      make([][]EdgeID, g.n),
		edges:    append([]Edge(nil), g.edges...),
		free:     append([]EdgeID(nil), g.free...),
		index:    make(map[Edge]EdgeID, len(g.index)),
		degCount: append([]int(nil), g.degCount...),
		maxDeg:   g.maxDeg,
	}
	for u := 0; u < g.n; u++ {
		c.adj[u] = append([]int(nil), g.adj[u]...)
		c.inc[u] = append([]EdgeID(nil), g.inc[u]...)
	}
	for e, id := range g.index {
		c.index[e] = id
	}
	return c
}

// Compacted returns a fresh graph containing g's live edges with dense
// ids in increasing old-id order, plus the old id of each new edge
// (ids[newID] == oldID). For graphs without holes the mapping is the
// identity. Use it to hand a mutated graph to code that expects the
// historical dense-id invariant (cold recoloring runs, text export).
func (g *Graph) Compacted() (*Graph, []EdgeID) {
	c := New(g.n)
	ids := make([]EdgeID, 0, g.M())
	for id, e := range g.edges {
		if e == edgeHole {
			continue
		}
		c.MustAddEdge(e.U, e.V)
		ids = append(ids, EdgeID(id))
	}
	return c, ids
}

// Compact removes the removal holes from g's edge-id space in place:
// live edges are renumbered densely in increasing old-id order, the
// free list empties, and afterwards EdgeIDBound() == M(). It returns
// the id map (ids[newID] == oldID) so callers can remap id-indexed
// side tables (colorings, weights) through it. Unlike Compacted, the
// graph handle itself stays valid — adjacency, degrees, and every
// query keep working on the same *Graph — which is what lets a
// long-running recolorer reclaim id space without republishing its
// graph to readers. For a hole-free graph it is a cheap no-op
// returning nil.
func (g *Graph) Compact() []EdgeID {
	if len(g.free) == 0 {
		return nil
	}
	oldToNew := make([]EdgeID, len(g.edges))
	ids := make([]EdgeID, 0, g.M())
	dense := make([]Edge, 0, g.M())
	for id, e := range g.edges {
		if e == edgeHole {
			oldToNew[id] = -1
			continue
		}
		oldToNew[id] = EdgeID(len(dense))
		ids = append(ids, EdgeID(id))
		dense = append(dense, e)
	}
	g.edges = dense
	g.free = nil
	for e, id := range g.index {
		g.index[e] = oldToNew[id]
	}
	for u := 0; u < g.n; u++ {
		inc := g.inc[u]
		for i, id := range inc {
			inc[i] = oldToNew[id]
		}
	}
	return ids
}

// SortedNeighbors returns a sorted copy of u's neighbor list; useful for
// deterministic iteration in tests and reports.
func (g *Graph) SortedNeighbors(u int) []int {
	s := append([]int(nil), g.adj[u]...)
	sort.Ints(s)
	return s
}

// Validate checks internal consistency (degree sums, index round-trips).
// It returns nil for graphs built through AddEdge; it exists to guard
// deserialized graphs and as a property-test anchor.
func (g *Graph) Validate() error {
	degSum := 0
	for u := 0; u < g.n; u++ {
		if len(g.adj[u]) != len(g.inc[u]) {
			return fmt.Errorf("graph: vertex %d adjacency/incidence length mismatch", u)
		}
		degSum += len(g.adj[u])
		for i, v := range g.adj[u] {
			id := g.inc[u][i]
			if int(id) < 0 || int(id) >= len(g.edges) {
				return fmt.Errorf("graph: vertex %d has invalid incident edge id %d", u, id)
			}
			e := g.edges[id]
			if e != (Edge{u, v}.Norm()) {
				return fmt.Errorf("graph: incidence mismatch at %d: edge %d is %v, want {%d,%d}", u, id, e, u, v)
			}
		}
	}
	if degSum != 2*g.M() {
		return fmt.Errorf("graph: degree sum %d != 2M %d", degSum, 2*g.M())
	}
	wantDeg := make([]int, g.maxDeg+1)
	for u := 0; u < g.n; u++ {
		d := len(g.adj[u])
		if d > g.maxDeg {
			return fmt.Errorf("graph: vertex %d degree %d exceeds tracked Δ %d", u, d, g.maxDeg)
		}
		wantDeg[d]++
	}
	if g.n > 0 && g.maxDeg > 0 && wantDeg[g.maxDeg] == 0 {
		return fmt.Errorf("graph: tracked Δ %d has no vertex", g.maxDeg)
	}
	for d, want := range wantDeg {
		got := 0
		if d < len(g.degCount) {
			got = g.degCount[d]
		}
		if got != want {
			return fmt.Errorf("graph: degree count[%d] = %d, want %d", d, got, want)
		}
	}
	holes := make(map[EdgeID]bool, len(g.free))
	for _, id := range g.free {
		if int(id) < 0 || int(id) >= len(g.edges) || g.edges[id] != edgeHole {
			return fmt.Errorf("graph: free list names live or out-of-range edge %d", id)
		}
		if holes[id] {
			return fmt.Errorf("graph: edge id %d freed twice", id)
		}
		holes[id] = true
	}
	for id, e := range g.edges {
		if e == edgeHole {
			if !holes[EdgeID(id)] {
				return fmt.Errorf("graph: hole at edge %d missing from free list", id)
			}
			continue
		}
		if got, ok := g.index[e]; !ok || got != EdgeID(id) {
			return fmt.Errorf("graph: index round-trip failed for edge %d %v", id, e)
		}
		if e.U >= e.V {
			return fmt.Errorf("graph: edge %d %v not normalized", id, e)
		}
	}
	return nil
}

// EdgesAdjacent reports whether two distinct edges share an endpoint.
func (g *Graph) EdgesAdjacent(a, b EdgeID) bool {
	if a == b {
		return false
	}
	ea, eb := g.edges[a], g.edges[b]
	return ea.U == eb.U || ea.U == eb.V || ea.V == eb.U || ea.V == eb.V
}

// EdgesWithinDistance1 reports whether two distinct edges are adjacent or
// joined by a third edge — the conflict relation of strong edge coloring
// (a proper coloring of the square of the line graph).
func (g *Graph) EdgesWithinDistance1(a, b EdgeID) bool {
	if a == b {
		return false
	}
	if g.EdgesAdjacent(a, b) {
		return true
	}
	ea, eb := g.edges[a], g.edges[b]
	return g.HasEdge(ea.U, eb.U) || g.HasEdge(ea.U, eb.V) ||
		g.HasEdge(ea.V, eb.U) || g.HasEdge(ea.V, eb.V)
}
