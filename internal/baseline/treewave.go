package baseline

import (
	"fmt"

	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
)

// TreeWaveResult reports a TreeWave run.
type TreeWaveResult struct {
	// Colors is indexed by graph.EdgeID.
	Colors []int
	// Rounds is the number of communication rounds (the forest depth).
	Rounds     int
	Messages   int64
	Terminated bool
}

// TreeWave is the deterministic distributed edge coloring for forests
// that plays the role of the paper's ref [4] (Gandham, Dawande, Prakash:
// deterministic Δ+1 edge coloring for acyclic graphs): a wave starts at
// each tree's root (the minimum-id vertex, chosen during setup); every
// node, once it knows its parent edge's color, colors its child edges
// with the smallest colors different from the parent's and passes the
// wave down. It uses at most Δ+1 colors and exactly depth(forest)
// communication rounds — deterministic, in contrast to DiMa's
// probabilistic Θ(Δ) rounds.
//
// The input must be a forest; cycles are rejected.
func TreeWave(g *graph.Graph, engine net.Engine) (*TreeWaveResult, error) {
	if g.M() >= g.N() && g.N() > 0 {
		return nil, fmt.Errorf("baseline: graph with %d vertices and %d edges cannot be a forest", g.N(), g.M())
	}
	// Roots: the minimum vertex of each component (computed during
	// setup, as a real deployment would elect leaders).
	isRoot := make([]bool, g.N())
	for _, comp := range g.Components() {
		isRoot[comp[0]] = true // components list vertices ascending
	}
	nodes := make([]net.Node, g.N())
	tns := make([]*treeNode, g.N())
	for u := 0; u < g.N(); u++ {
		tns[u] = &treeNode{
			id: u, g: g, root: isRoot[u],
			colors: map[graph.EdgeID]int{}, parentColor: -1, parent: -1,
		}
		nodes[u] = tns[u]
	}
	if engine == nil {
		engine = net.RunSync
	}
	netRes, err := engine(g, nodes, net.Config{MaxRounds: g.N() + 2})
	if err != nil {
		return nil, err
	}
	res := &TreeWaveResult{
		Colors:     make([]int, g.M()),
		Rounds:     netRes.Rounds,
		Messages:   netRes.Messages,
		Terminated: netRes.Terminated,
	}
	for i := range res.Colors {
		res.Colors[i] = -1
	}
	for _, n := range tns {
		for e, c := range n.colors {
			if res.Colors[e] == -1 {
				res.Colors[e] = c
			} else if res.Colors[e] != c {
				return nil, fmt.Errorf("baseline: tree wave endpoint disagreement on edge %v", g.EdgeAt(e))
			}
		}
	}
	if res.Terminated {
		for e, c := range res.Colors {
			if c < 0 {
				return nil, fmt.Errorf("baseline: tree wave left edge %v uncolored", g.EdgeAt(graph.EdgeID(e)))
			}
		}
	}
	return res, nil
}

type treeNode struct {
	id   int
	g    *graph.Graph
	root bool

	colors      map[graph.EdgeID]int
	parentColor int // -1 until known
	parent      int // -1 for roots
	assigned    bool
	done        bool
}

func (n *treeNode) ID() int { return n.id }

func (n *treeNode) Done() bool { return n.done }

func (n *treeNode) Step(round int, inbox []msg.Message) []msg.Message {
	if n.done {
		return nil
	}
	if !n.root && !n.assigned {
		// Wait for the parent's assignment.
		for _, m := range inbox {
			if m.Kind == msg.KindUpdate && int(m.To) == n.id {
				e := graph.EdgeID(m.Edge)
				n.colors[e] = int(m.Color)
				n.parentColor = int(m.Color)
				n.parent = int(m.From)
				break
			}
		}
		if n.parent < 0 {
			return nil // wave has not reached this node yet
		}
	}
	// Assign the smallest colors != parentColor to all child edges, in
	// neighbor order, and push the wave down.
	n.assigned = true
	n.done = true
	var out []msg.Message
	next := 0
	for i, v := range n.g.Neighbors(n.id) {
		if v == n.parent {
			continue
		}
		if next == n.parentColor {
			next++
		}
		e := n.g.IncidentEdges(n.id)[i]
		n.colors[e] = next
		out = append(out, msg.Message{
			Kind: msg.KindUpdate, From: int32(n.id), To: int32(v), Edge: int32(e), Color: int32(next),
		})
		next++
	}
	return out
}
