// Package baseline implements centralized comparison algorithms for the
// distributed colorings: greedy first-fit edge coloring, the
// Misra–Gries Δ+1 edge coloring, greedy strong (distance-2) coloring,
// and an idealized round-synchronous matching colorer that serves as a
// lower-bound reference for the distributed algorithms' round counts.
package baseline

import (
	"fmt"

	"dima/internal/graph"
	"dima/internal/rng"
)

// GreedyEdgeColoring colors the edges of g in the given order with the
// lowest color free at both endpoints. order may be nil for edge-id
// order; otherwise it must be a permutation of [0, M). Uses at most
// 2Δ-1 colors.
func GreedyEdgeColoring(g *graph.Graph, order []int) ([]int, error) {
	m := g.M()
	if order == nil {
		order = make([]int, m)
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != m {
		return nil, fmt.Errorf("baseline: order length %d != M %d", len(order), m)
	}
	used := make([]map[int]bool, g.N())
	for u := range used {
		used[u] = make(map[int]bool, g.Degree(u))
	}
	colors := make([]int, m)
	for i := range colors {
		colors[i] = -1
	}
	seen := make([]bool, m)
	for _, e := range order {
		if e < 0 || e >= m || seen[e] {
			return nil, fmt.Errorf("baseline: order is not a permutation (at %d)", e)
		}
		seen[e] = true
		ed := g.EdgeAt(graph.EdgeID(e))
		c := 0
		for used[ed.U][c] || used[ed.V][c] {
			c++
		}
		colors[e] = c
		used[ed.U][c] = true
		used[ed.V][c] = true
	}
	return colors, nil
}

// GreedyStrongColoring colors the arcs of d in arc-id order with the
// lowest color free across each arc's distance-1 conflict set
// (Definition 2). It is the centralized quality baseline for DiMa2Ed.
func GreedyStrongColoring(d *graph.Digraph) []int {
	colors := make([]int, d.A())
	for i := range colors {
		colors[i] = -1
	}
	g := d.Under()
	for a := graph.ArcID(0); int(a) < d.A(); a++ {
		forbidden := make(map[int]bool)
		arc := d.ArcAt(a)
		// Conflicting arcs are exactly those with an endpoint in the
		// closed neighborhoods of a's endpoints.
		for _, end := range []int{arc.From, arc.To} {
			for _, w := range append([]int{end}, g.Neighbors(end)...) {
				for _, b := range d.OutArcs(w) {
					for _, bb := range []graph.ArcID{b, d.ReverseOf(b)} {
						if bb != a && colors[bb] >= 0 && d.ArcsConflict(a, bb) {
							forbidden[colors[bb]] = true
						}
					}
				}
			}
		}
		c := 0
		for forbidden[c] {
			c++
		}
		colors[a] = c
	}
	return colors
}

// MatchingRoundsResult reports the outcome of the idealized centralized
// matcher.
type MatchingRoundsResult struct {
	// Colors is the per-edge coloring produced.
	Colors []int
	// Rounds is the number of matching rounds until all edges colored.
	Rounds int
	// MatchingSizes records the size of the matching in each round.
	MatchingSizes []int
}

// CentralizedMatchingColoring simulates the idealized version of
// Algorithm 1: in each round a random *maximal* matching over the still
// uncolored edges is selected centrally (no failed invitations, no
// wasted coin tosses) and every matched edge takes the lowest color free
// at both endpoints. Its round count lower-bounds what the distributed
// protocol can achieve and its palette obeys the same 2Δ-1 analysis —
// the reference line for the Figure 3–5 round plots.
func CentralizedMatchingColoring(g *graph.Graph, r *rng.Rand) MatchingRoundsResult {
	m := g.M()
	colors := make([]int, m)
	uncolored := make([]graph.EdgeID, m)
	for i := range colors {
		colors[i] = -1
		uncolored[i] = graph.EdgeID(i)
	}
	used := make([]map[int]bool, g.N())
	for u := range used {
		used[u] = make(map[int]bool, g.Degree(u))
	}
	res := MatchingRoundsResult{Colors: colors}
	for len(uncolored) > 0 {
		res.Rounds++
		// Random greedy maximal matching over the uncolored edges.
		r.Shuffle(len(uncolored), func(i, j int) {
			uncolored[i], uncolored[j] = uncolored[j], uncolored[i]
		})
		busy := make(map[int]bool)
		matched := 0
		var rest []graph.EdgeID
		for _, e := range uncolored {
			ed := g.EdgeAt(e)
			if busy[ed.U] || busy[ed.V] {
				rest = append(rest, e)
				continue
			}
			busy[ed.U], busy[ed.V] = true, true
			matched++
			c := 0
			for used[ed.U][c] || used[ed.V][c] {
				c++
			}
			colors[e] = c
			used[ed.U][c] = true
			used[ed.V][c] = true
		}
		res.MatchingSizes = append(res.MatchingSizes, matched)
		uncolored = rest
	}
	return res
}
