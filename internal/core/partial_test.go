package core

import (
	"context"
	"testing"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/verify"
)

func mustGNM(t *testing.T, n, m int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyiGNM(rng.New(seed), n, m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestConstrainedNilMatchesPlain pins the refactoring contract: a nil
// forbidden slice must reproduce ColorEdgesCtx byte for byte.
func TestConstrainedNilMatchesPlain(t *testing.T) {
	g := mustGNM(t, 60, 180, 5)
	opt := Options{Seed: 11}
	plain, err := ColorEdges(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	con, err := ColorEdgesConstrained(context.Background(), g, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Colors) != len(con.Colors) {
		t.Fatalf("lengths diverge: %d vs %d", len(plain.Colors), len(con.Colors))
	}
	for e := range plain.Colors {
		if plain.Colors[e] != con.Colors[e] {
			t.Fatalf("edge %d: %d vs %d", e, plain.Colors[e], con.Colors[e])
		}
	}
	if plain.CompRounds != con.CompRounds || plain.Messages != con.Messages {
		t.Fatalf("metrics diverge: %d/%d rounds, %d/%d messages",
			plain.CompRounds, con.CompRounds, plain.Messages, con.Messages)
	}
}

// TestConstrainedRespectsForbidden colors a graph under per-vertex
// forbidden sets and checks that no edge uses a forbidden color at
// either endpoint while the coloring stays proper.
func TestConstrainedRespectsForbidden(t *testing.T) {
	for _, eng := range []struct {
		name string
		e    net.Engine
	}{{"sync", net.RunSync}, {"shard-3", shardWorkers(3)}, {"shard", net.RunShard}} {
		t.Run(eng.name, func(t *testing.T) {
			g := mustGNM(t, 40, 120, 3)
			forbidden := make([]*ColorSet, g.N())
			for u := 0; u < g.N(); u++ {
				if u%3 == 0 {
					s := &ColorSet{}
					s.Add(0)
					s.Add(u % 5)
					forbidden[u] = s
				}
			}
			res, err := ColorEdgesConstrained(context.Background(), g, forbidden,
				Options{Seed: 7, Engine: eng.e, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Terminated {
				t.Fatal("run did not terminate")
			}
			if v := verify.EdgeColoring(g, res.Colors); len(v) > 0 {
				t.Fatalf("improper coloring: %v", v[0])
			}
			for id, c := range res.Colors {
				e := g.EdgeAt(graph.EdgeID(id))
				for _, u := range []int{e.U, e.V} {
					if forbidden[u] != nil && forbidden[u].Has(c) {
						t.Fatalf("edge %v uses color %d forbidden at vertex %d", e, c, u)
					}
				}
			}
		})
	}
}

// TestConstrainedSurvivesRecoveryRevert exercises the rebuildUsedSelf
// path: under injected loss plus recovery, reverts rebuild the live list
// and must not drop the forbidden seed.
func TestConstrainedSurvivesRecoveryRevert(t *testing.T) {
	g := mustGNM(t, 50, 150, 9)
	forbidden := make([]*ColorSet, g.N())
	for u := 0; u < g.N(); u++ {
		s := &ColorSet{}
		s.Add(1)
		forbidden[u] = s
	}
	opt := Options{Seed: 21, MaxCompRounds: 4000}
	opt.Recovery.Enabled = true
	opt.Fault = net.DropRate{Seed: 77, P: 0.05}
	res, err := ColorEdgesConstrained(context.Background(), g, forbidden, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Skip("lossy run hit the round bound; nothing to check")
	}
	for id, c := range res.Colors {
		if c == 1 {
			t.Fatalf("edge %v uses globally forbidden color 1", g.EdgeAt(graph.EdgeID(id)))
		}
	}
	if v := verify.EdgeColoring(g, res.Colors); len(v) > 0 {
		t.Fatalf("improper coloring: %v", v[0])
	}
}

// TestConstrainedArityAndHoles checks the argument validation: wrong
// forbidden arity and graphs with removal holes are rejected.
func TestConstrainedArityAndHoles(t *testing.T) {
	g := mustGNM(t, 10, 20, 1)
	if _, err := ColorEdgesConstrained(context.Background(), g, make([]*ColorSet, 3), Options{}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	e := g.EdgeAt(0)
	if _, err := g.RemoveEdge(e.U, e.V); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(e.U, e.V) // recycle: dense again, must be accepted
	if _, err := ColorEdges(g, Options{}); err != nil {
		t.Fatalf("dense graph after recycling rejected: %v", err)
	}
	e0 := g.EdgeAt(1)
	g.RemoveEdge(e0.U, e0.V)
	if _, err := ColorEdges(g, Options{}); err == nil {
		t.Fatal("holey graph accepted")
	}
}
