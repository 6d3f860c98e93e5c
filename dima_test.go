package dima

import "testing"

func TestFacadeEdgeColoring(t *testing.T) {
	g, err := ErdosRenyi(NewRand(1), 80, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ColorEdges(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("did not terminate")
	}
	if v := VerifyEdgeColoring(g, res.Colors); len(v) != 0 {
		t.Fatalf("invalid: %v", v[0])
	}
	if d := g.MaxDegree(); res.NumColors > 2*d-1 {
		t.Fatalf("%d colors > 2Δ-1", res.NumColors)
	}
}

func TestFacadeStrongColoring(t *testing.T) {
	g, err := Geometric(NewRand(3), 40, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	d := NewSymmetric(g)
	res, err := ColorStrong(d, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v := VerifyStrongColoring(d, res.Colors); len(v) != 0 {
		t.Fatalf("invalid: %v", v[0])
	}
}

func TestFacadeShardEngine(t *testing.T) {
	g, err := SmallWorld(NewRand(5), 40, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ColorEdges(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ColorEdges(g, Options{Seed: 6, Engine: Shard, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.Colors {
		if a.Colors[e] != b.Colors[e] {
			t.Fatal("engines diverged through the facade")
		}
	}
}

func TestFacadeMatching(t *testing.T) {
	g, err := ScaleFree(NewRand(7), 60, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaximalMatching(g, MatchOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) == 0 {
		t.Fatal("empty matching")
	}
	cover := res.VertexCover(g)
	if len(cover) != 2*len(res.Edges) {
		t.Fatal("cover size mismatch")
	}
}

func TestFacadeBaselines(t *testing.T) {
	g, err := ErdosRenyi(NewRand(9), 60, 6)
	if err != nil {
		t.Fatal(err)
	}
	if v := VerifyEdgeColoring(g, GreedySequential(g)); len(v) != 0 {
		t.Fatalf("greedy baseline invalid: %v", v[0])
	}
	vz, err := VizingSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	if v := VerifyEdgeColoring(g, vz); len(v) != 0 {
		t.Fatalf("vizing baseline invalid: %v", v[0])
	}
	d := NewSymmetric(g)
	if v := VerifyStrongColoring(d, GreedyStrongSequential(d)); len(v) != 0 {
		t.Fatalf("strong baseline invalid: %v", v[0])
	}
}

func TestFacadeGraphConstruction(t *testing.T) {
	g := NewGraph(3)
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate accepted")
	}
	res, err := ColorEdges(g, Options{})
	if err != nil || res.NumColors != 1 {
		t.Fatalf("tiny run: %v %+v", err, res)
	}
}

func TestFacadeSimpleColor(t *testing.T) {
	g, err := ErdosRenyi(NewRand(11), 80, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimpleColor(g, SimpleOptions{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("did not terminate")
	}
	if v := VerifyEdgeColoring(g, res.Colors); len(v) != 0 {
		t.Fatalf("invalid: %v", v[0])
	}
	if res.Rounds >= g.MaxDegree()*2 {
		t.Fatalf("simple baseline took %d rounds at Δ=%d", res.Rounds, g.MaxDegree())
	}
}

func TestFacadeMakespan(t *testing.T) {
	g, err := ErdosRenyi(NewRand(13), 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ColorEdges(g, Options{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := Makespan(g, res.CommRounds, UniformLatency(2))
	if err != nil {
		t.Fatal(err)
	}
	if uniform != float64(2*res.CommRounds) {
		t.Fatalf("uniform makespan %v, want %d", uniform, 2*res.CommRounds)
	}
	random, err := Makespan(g, res.CommRounds, RandomLatency{Seed: 1, Min: 1, Max: 3})
	if err != nil {
		t.Fatal(err)
	}
	if random < float64(res.CommRounds) || random > float64(3*res.CommRounds) {
		t.Fatalf("random makespan %v outside bounds", random)
	}
}

func TestFacadeSimpleStrongColor(t *testing.T) {
	g, err := ErdosRenyi(NewRand(15), 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := NewSymmetric(g)
	res, err := SimpleStrongColor(d, SimpleOptions{Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("did not terminate")
	}
	if v := VerifyStrongColoring(d, res.Colors); len(v) != 0 {
		t.Fatalf("invalid: %v", v[0])
	}
	if lb := StrongLowerBound(d); res.NumColors < lb {
		t.Fatalf("%d channels below bound %d", res.NumColors, lb)
	}
}

// counterPairing is a minimal custom protocol through the public
// framework surface: each node counts the pairings it joins.
type counterPairing struct {
	id    int
	g     *Graph
	count int
	quota int
}

func (p *counterPairing) Live() bool             { return p.quota > 0 && p.g.Degree(p.id) > 0 }
func (p *counterPairing) Absorb(inbox []Message) { p.quota-- }
func (p *counterPairing) Exchange() []Message    { return nil }
func (p *counterPairing) Complete(resp Message)  { p.count++ }
func (p *counterPairing) Invite(r *Rand) (Message, bool) {
	nbrs := p.g.Neighbors(p.id)
	return Message{From: int32(p.id), To: int32(nbrs[r.Intn(len(nbrs))]), Edge: -1, Color: -1}, true
}
func (p *counterPairing) Respond(mine, _ []Message, r *Rand) (Message, bool) {
	m := mine[r.Intn(len(mine))]
	p.count++
	return Message{To: m.From, Edge: -1, Color: -1}, true
}

func TestFacadeCustomProtocol(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	base := NewRand(5)
	pairings := make([]*counterPairing, g.N())
	nodes := make([]ProtocolNode, g.N())
	for u := 0; u < g.N(); u++ {
		pairings[u] = &counterPairing{id: u, g: g, quota: 20}
		nodes[u] = NewDriver(u, base.Derive(uint64(u)), pairings[u])
	}
	res, err := RunProtocol(g, nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("custom protocol did not terminate")
	}
	total := 0
	for _, p := range pairings {
		total += p.count
	}
	if total == 0 || total%2 != 0 {
		t.Fatalf("pairing count %d (want positive and even)", total)
	}
}

func TestFacadeRecolor(t *testing.T) {
	r := NewRand(9)
	g, err := ErdosRenyi(r, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ColorEdges(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Find a fresh pair and a live edge to mutate.
	var iu, iv int
	for iu, iv = 0, 1; g.HasEdge(iu, iv); iv++ {
	}
	e := g.EdgeAt(0)
	b := &MutationBatch{Seq: 1, Muts: []Mutation{
		{Op: OpInsert, U: iu, V: iv},
		{Op: OpDelete, U: e.U, V: e.V},
	}}
	rc, rep, err := Recolor(g.Clone(), append([]int(nil), res.Colors...), b, RecolorOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted != 1 || rep.Deleted != 1 {
		t.Fatalf("report %+v", rep)
	}
	if v := VerifyEdgeColoring(rc.Graph(), rc.Colors()); len(v) != 0 {
		t.Fatalf("mutated coloring invalid: %v", v[0])
	}
	// The recolorer stays usable for further batches.
	if _, err := rc.Apply(&MutationBatch{Seq: 2, Muts: []Mutation{
		{Op: OpInsert, U: e.U, V: e.V},
	}}); err != nil {
		t.Fatal(err)
	}
	if v := VerifyEdgeColoring(rc.Graph(), rc.Colors()); len(v) != 0 {
		t.Fatalf("second batch invalid: %v", v[0])
	}
}

func TestFacadeVerifyStrongEdgeColoring(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if v := VerifyStrongEdgeColoring(g, []int{0, 0}); len(v) == 0 {
		t.Fatal("adjacent reuse accepted as strong")
	}
	if v := VerifyStrongEdgeColoring(g, []int{0, 1}); len(v) != 0 {
		t.Fatalf("strong coloring rejected: %v", v)
	}
}
