package graph

// Ports is a graph's port table: Ports[e] holds edge e's incidence
// position at each endpoint — [0] in its U's lists, [1] in its V's — so
// Neighbors(U)[Ports[e][0]] == V and IncidentEdges(U)[Ports[e][0]] == e,
// and likewise at V. It is the port-numbering model's arrival port: a
// message u sends over edge e arrives at v on port Port(e, u, v). Eight
// bytes per edge id; removal holes keep zero entries. A table describes
// the graph it was built from and goes stale on the next mutation.
type Ports [][2]int32

// NewPorts builds g's port table in one O(n + m) pass.
func NewPorts(g *Graph) Ports {
	p := make(Ports, len(g.edges))
	for u, inc := range g.inc {
		for i, e := range inc {
			end := 0
			if g.adj[u][i] < u {
				end = 1 // u is e's V
			}
			p[e][end] = int32(i)
		}
	}
	return p
}

// Port returns the incidence position of edge e at vertex to, whose
// other endpoint is from: the port a message from sent over e arrives
// on at to.
func (p Ports) Port(e EdgeID, from, to int) int32 {
	if to > from {
		return p[e][1]
	}
	return p[e][0]
}
