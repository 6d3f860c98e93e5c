package graph

import (
	"testing"
	"testing/quick"

	"dima/internal/rng"
)

func path3() *Graph {
	g := New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	return g
}

func triangle() *Graph {
	g := New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("New(5): N=%d M=%d", g.N(), g.M())
	}
	if g.MaxDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatal("empty graph degree stats nonzero")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	id, err := g.AddEdge(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("first edge id = %d", id)
	}
	if e := g.EdgeAt(id); e != (Edge{0, 2}) {
		t.Fatalf("edge not normalized: %v", e)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Fatal("HasEdge not symmetric")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("phantom edge")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 1 || g.Degree(1) != 0 {
		t.Fatal("degrees wrong after one edge")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.AddEdge(-1, 1); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if _, err := g.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	g.MustAddEdge(0, 1)
	if _, err := g.AddEdge(1, 0); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d after rejections, want 1", g.M())
	}
}

func TestEdgeIDOf(t *testing.T) {
	g := path3()
	id, ok := g.EdgeIDOf(2, 1)
	if !ok || id != 1 {
		t.Fatalf("EdgeIDOf(2,1) = %d,%v", id, ok)
	}
	if _, ok := g.EdgeIDOf(0, 2); ok {
		t.Fatal("EdgeIDOf found nonexistent edge")
	}
	if _, ok := g.EdgeIDOf(0, 0); ok {
		t.Fatal("EdgeIDOf accepted self-loop query")
	}
	if _, ok := g.EdgeIDOf(-1, 5); ok {
		t.Fatal("EdgeIDOf accepted out-of-range query")
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{3, 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

func TestIncidentEdgesAlignment(t *testing.T) {
	g := New(4)
	g.MustAddEdge(1, 0)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(1, 3)
	nbrs := g.Neighbors(1)
	ids := g.IncidentEdges(1)
	if len(nbrs) != 3 || len(ids) != 3 {
		t.Fatalf("lengths: %d nbrs, %d ids", len(nbrs), len(ids))
	}
	for i, v := range nbrs {
		e := g.EdgeAt(ids[i])
		if e != (Edge{1, v}.Norm()) {
			t.Fatalf("incidence misaligned at %d: %v vs neighbor %d", i, e, v)
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := New(4) // star K_{1,3}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	if g.MaxDegree() != 3 {
		t.Fatalf("star Δ = %d, want 3", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Fatalf("AvgDegree = %v, want 1.5", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := path3()
	c := g.Clone()
	c.MustAddEdge(0, 2)
	if g.M() != 2 || c.M() != 3 {
		t.Fatalf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedNeighbors(t *testing.T) {
	g := New(4)
	g.MustAddEdge(3, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(2, 1)
	s := g.SortedNeighbors(2)
	want := []int{0, 1, 3}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("SortedNeighbors = %v", s)
		}
	}
}

func TestValidate(t *testing.T) {
	g := triangle()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the edge list: swap endpoints so normalization breaks.
	g.edges[0] = Edge{1, 0}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted graph")
	}
}

func TestEdgesAdjacent(t *testing.T) {
	g := New(5)
	a := g.MustAddEdge(0, 1)
	b := g.MustAddEdge(1, 2)
	c := g.MustAddEdge(3, 4)
	if !g.EdgesAdjacent(a, b) {
		t.Fatal("(0,1) and (1,2) should be adjacent")
	}
	if g.EdgesAdjacent(a, c) {
		t.Fatal("(0,1) and (3,4) should not be adjacent")
	}
	if g.EdgesAdjacent(a, a) {
		t.Fatal("edge adjacent to itself")
	}
}

func TestEdgesWithinDistance1(t *testing.T) {
	// Path 0-1-2-3-4: edges e0=(0,1) e1=(1,2) e2=(2,3) e3=(3,4).
	g := New(5)
	e0 := g.MustAddEdge(0, 1)
	e1 := g.MustAddEdge(1, 2)
	e2 := g.MustAddEdge(2, 3)
	e3 := g.MustAddEdge(3, 4)
	if !g.EdgesWithinDistance1(e0, e1) {
		t.Fatal("adjacent edges must be within distance 1")
	}
	if !g.EdgesWithinDistance1(e0, e2) {
		t.Fatal("edges joined by e1 must be within distance 1")
	}
	if g.EdgesWithinDistance1(e0, e3) {
		t.Fatal("edges two apart must not conflict")
	}
	if g.EdgesWithinDistance1(e1, e1) {
		t.Fatal("edge conflicts with itself")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(4, 5)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components: %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 3 {
		t.Fatalf("isolated vertex component %v", comps[1])
	}
	if len(comps[2]) != 2 || comps[2][0] != 4 {
		t.Fatalf("last component %v", comps[2])
	}
}

func TestIsConnected(t *testing.T) {
	if !New(0).IsConnected() || !New(1).IsConnected() {
		t.Fatal("trivial graphs must be connected")
	}
	if New(2).IsConnected() {
		t.Fatal("two isolated vertices reported connected")
	}
	if !path3().IsConnected() {
		t.Fatal("path reported disconnected")
	}
}

func TestBFSDistances(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	d := g.BFSDistances(0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("BFSDistances = %v, want %v", d, want)
		}
	}
}

func TestTriangles(t *testing.T) {
	if n := triangle().Triangles(); n != 1 {
		t.Fatalf("triangle count %d, want 1", n)
	}
	if n := path3().Triangles(); n != 0 {
		t.Fatalf("path triangle count %d, want 0", n)
	}
	// K4 has 4 triangles.
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.MustAddEdge(u, v)
		}
	}
	if n := g.Triangles(); n != 4 {
		t.Fatalf("K4 triangle count %d, want 4", n)
	}
}

// randomGraph builds a random simple graph for property tests.
func randomGraph(seed uint64, n, m int) *Graph {
	r := rng.New(seed)
	g := New(n)
	for g.M() < m {
		u, v := r.Intn(n), r.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v)
	}
	return g
}

func TestQuickValidateRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		n := 5 + int(seed%30)
		maxM := n * (n - 1) / 2
		m := int(seed/7) % (maxM + 1)
		g := randomGraph(seed, n, m)
		return g.Validate() == nil && g.M() == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDegreeSum(t *testing.T) {
	f := func(seed uint64) bool {
		n := 4 + int(seed%20)
		g := randomGraph(seed, n, n)
		sum := 0
		for u := 0; u < g.N(); u++ {
			sum += g.Degree(u)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEdgeIDRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		n := 4 + int(seed%20)
		g := randomGraph(seed, n, n)
		for id, e := range g.Edges() {
			got, ok := g.EdgeIDOf(e.U, e.V)
			if !ok || got != EdgeID(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	if c := triangle().ClusteringCoefficient(); c != 1 {
		t.Fatalf("triangle clustering %v, want 1", c)
	}
	if c := path3().ClusteringCoefficient(); c != 0 {
		t.Fatalf("path clustering %v, want 0", c)
	}
	if c := New(5).ClusteringCoefficient(); c != 0 {
		t.Fatalf("empty clustering %v, want 0", c)
	}
	// K4: every triple closes.
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.MustAddEdge(u, v)
		}
	}
	if c := g.ClusteringCoefficient(); c != 1 {
		t.Fatalf("K4 clustering %v, want 1", c)
	}
}
