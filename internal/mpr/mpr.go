// Package mpr implements the "simple distributed edge-coloring
// algorithm" the paper cites as prior work (ref [10]: Marathe,
// Panconesi, Risinger, J. Exp. Algorithmics 2004) as a message-passing
// protocol on the same network substrate as the DiMa algorithms, so the
// two families can be compared head to head.
//
// Each edge is owned by its lower-id endpoint. Every round, the owner of
// each uncolored edge picks a tentative color uniformly at random from a
// fixed palette minus the colors already used at either endpoint; a
// tentative pick survives only if no adjacent edge picked the same color
// this round (each vertex vetoes the collisions it sees). With the
// palette fixed at 2Δ-1, an available color always exists and each pick
// survives with constant probability, so the algorithm finishes in
// O(log m) rounds with high probability — faster than DiMa's Θ(Δ) but
// spending colors across the whole 2Δ-1 palette rather than Δ or Δ+1.
//
// Unlike the DiMa algorithms, the palette requires global knowledge of
// Δ — an informational advantage this implementation grants the
// baseline (computed centrally before the run).
package mpr

import (
	"fmt"

	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
)

const phases = 3 // tentative, veto, commit+update

// Options configures a run; the zero value is usable.
type Options struct {
	// Seed drives all random choices.
	Seed uint64
	// Engine executes the protocol (nil = net.RunSync).
	Engine net.Engine
	// Palette is the number of colors; 0 means 2Δ-1 (the smallest value
	// that guarantees an available color for every edge at all times).
	// Values below 2Δ-1 are rejected.
	Palette int
	// MaxRounds bounds computation rounds (0 = 100,000).
	MaxRounds int
}

// Result reports a run.
type Result struct {
	// Colors is indexed by graph.EdgeID.
	Colors []int
	// NumColors is the number of distinct colors used.
	NumColors int
	// Rounds counts computation rounds (3 communication rounds each).
	Rounds     int
	CommRounds int
	Messages   int64
	Terminated bool
}

// Color runs the algorithm on g.
func Color(g *graph.Graph, opt Options) (*Result, error) {
	delta := g.MaxDegree()
	palette := opt.Palette
	if palette == 0 {
		palette = 2*delta - 1
		if palette < 1 {
			palette = 1
		}
	}
	if delta > 0 && palette < 2*delta-1 {
		return nil, fmt.Errorf("mpr: palette %d below 2Δ-1 = %d cannot guarantee progress",
			palette, 2*delta-1)
	}
	base := rng.New(opt.Seed)
	nodes := make([]net.Node, g.N())
	mprs := make([]*mprNode, g.N())
	for u := 0; u < g.N(); u++ {
		mprs[u] = newNode(g, u, palette, base.Derive(uint64(u)))
		nodes[u] = mprs[u]
	}
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 100_000
	}
	eng := opt.Engine
	if eng == nil {
		eng = net.RunSync
	}
	netRes, err := eng(g, nodes, net.Config{MaxRounds: phases * maxRounds})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Colors:     make([]int, g.M()),
		CommRounds: netRes.Rounds,
		Rounds:     (netRes.Rounds + phases - 1) / phases,
		Messages:   netRes.Messages,
		Terminated: netRes.Terminated,
	}
	for i := range res.Colors {
		res.Colors[i] = -1
	}
	for _, n := range mprs {
		for e, c := range n.colors {
			if res.Colors[e] == -1 {
				res.Colors[e] = c
			} else if res.Colors[e] != c {
				return nil, fmt.Errorf("mpr: edge %v colored %d and %d", g.EdgeAt(e), res.Colors[e], c)
			}
		}
	}
	seen := map[int]bool{}
	for _, c := range res.Colors {
		if c >= 0 {
			seen[c] = true
		}
	}
	res.NumColors = len(seen)
	return res, nil
}

type mprNode struct {
	id      int
	g       *graph.Graph
	palette int
	r       *rng.Rand

	colors   map[graph.EdgeID]int
	owned    []graph.EdgeID // owned (lower endpoint) uncolored edges
	incident int            // uncolored incident edges (owned or not)
	usedSelf map[int]bool
	usedNbr  []map[int]bool
	nbrIndex map[int]int

	tentative  map[graph.EdgeID]int  // this round's picks for owned edges
	selfVetoed map[graph.EdgeID]bool // own vetoes (local broadcast is not self-delivered)
	relay      []msg.Paint           // partner finalizations to rebroadcast
	flushed    bool
}

func newNode(g *graph.Graph, u, palette int, r *rng.Rand) *mprNode {
	n := &mprNode{
		id:       u,
		g:        g,
		palette:  palette,
		r:        r,
		colors:   make(map[graph.EdgeID]int, g.Degree(u)),
		incident: g.Degree(u),
		usedSelf: make(map[int]bool),
		usedNbr:  make([]map[int]bool, g.Degree(u)),
		nbrIndex: make(map[int]int, g.Degree(u)),
	}
	for i, v := range g.Neighbors(u) {
		n.usedNbr[i] = make(map[int]bool)
		n.nbrIndex[v] = i
		if u < v {
			e, _ := g.EdgeIDOf(u, v)
			n.owned = append(n.owned, e)
		}
	}
	return n
}

func (n *mprNode) ID() int { return n.id }

func (n *mprNode) Done() bool {
	return n.incident == 0 && len(n.relay) == 0 && n.flushed
}

func (n *mprNode) Step(round int, inbox []msg.Message) []msg.Message {
	switch round % phases {
	case 0:
		return n.phaseTentative(inbox)
	case 1:
		return n.phaseVeto(inbox)
	default:
		return n.phaseCommit(inbox)
	}
}

// phaseTentative applies finalization updates from the previous round
// and broadcasts a tentative pick for every owned uncolored edge.
func (n *mprNode) phaseTentative(inbox []msg.Message) []msg.Message {
	for _, m := range inbox {
		if m.Kind != msg.KindUpdate {
			continue
		}
		for _, p := range m.Paints() {
			n.applyFinal(graph.EdgeID(p.Edge), int(p.Color), int(m.From))
		}
	}
	if n.incident == 0 {
		n.flushed = len(n.relay) == 0
	}
	var out []msg.Message
	n.tentative = make(map[graph.EdgeID]int, len(n.owned))
	for _, e := range n.owned {
		v := n.g.EdgeAt(e).Other(n.id)
		var avail []int
		nv := n.usedNbr[n.nbrIndex[v]]
		for c := 0; c < n.palette; c++ {
			if !n.usedSelf[c] && !nv[c] {
				avail = append(avail, c)
			}
		}
		if len(avail) == 0 {
			// Impossible with palette >= 2Δ-1; skip the round defensively.
			continue
		}
		c := avail[n.r.Intn(len(avail))]
		n.tentative[e] = c
		out = append(out, msg.Message{
			Kind: msg.KindClaim, From: int32(n.id), To: msg.Broadcast, Edge: int32(e), Color: int32(c),
		})
	}
	return out
}

// phaseVeto inspects the tentative picks visible at this vertex (picks
// for its incident edges, including its own) and vetoes every pick whose
// color collides at this vertex or is already used here.
func (n *mprNode) phaseVeto(inbox []msg.Message) []msg.Message {
	type pick struct {
		edge  graph.EdgeID
		color int
	}
	var picks []pick
	for e, c := range n.tentative {
		picks = append(picks, pick{e, c})
	}
	for _, m := range inbox {
		if m.Kind != msg.KindClaim {
			continue
		}
		e := graph.EdgeID(m.Edge)
		ed := n.g.EdgeAt(e)
		if ed.U != n.id && ed.V != n.id {
			continue // a pick for an edge not incident here; ignore
		}
		picks = append(picks, pick{e, int(m.Color)})
	}
	// Sort for determinism across engines (inbox is sorted, but merged
	// with own picks from map iteration).
	for i := 1; i < len(picks); i++ {
		for j := i; j > 0 && picks[j].edge < picks[j-1].edge; j-- {
			picks[j], picks[j-1] = picks[j-1], picks[j]
		}
	}
	colorCount := map[int]int{}
	for _, p := range picks {
		colorCount[p.color]++
	}
	n.selfVetoed = make(map[graph.EdgeID]bool)
	var out []msg.Message
	for _, p := range picks {
		if colorCount[p.color] > 1 || n.usedSelf[p.color] {
			n.selfVetoed[p.edge] = true
			out = append(out, msg.Message{
				Kind: msg.KindDecide, From: int32(n.id), To: msg.Broadcast,
				Edge: int32(p.edge), Color: int32(p.color), Keep: false,
			})
		}
	}
	return out
}

// phaseCommit finalizes surviving picks and broadcasts the new colors,
// together with relays of partner finalizations learned last round.
func (n *mprNode) phaseCommit(inbox []msg.Message) []msg.Message {
	vetoed := map[graph.EdgeID]bool{}
	for _, m := range inbox {
		if m.Kind == msg.KindDecide && !m.Keep {
			vetoed[graph.EdgeID(m.Edge)] = true
		}
	}
	// Iterate tentative picks in edge order: applyFinal reorders the
	// owned-edge list, so map-order iteration would leak scheduling
	// nondeterminism into later random draws.
	keys := make([]graph.EdgeID, 0, len(n.tentative))
	for e := range n.tentative {
		keys = append(keys, e)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var paints []msg.Paint
	for _, e := range keys {
		if vetoed[e] || n.selfVetoed[e] {
			continue
		}
		c := n.tentative[e]
		n.applyFinal(e, c, n.id)
		paints = append(paints, msg.Paint{Edge: int32(e), Color: int32(c)})
	}
	n.tentative = nil
	// Relay partner finalizations so the partner's neighbors learn them.
	paints = append(paints, n.relay...)
	n.relay = nil
	if len(paints) == 0 {
		return nil
	}
	// Deterministic order for engine equivalence.
	for i := 1; i < len(paints); i++ {
		for j := i; j > 0 && paints[j].Edge < paints[j-1].Edge; j-- {
			paints[j], paints[j-1] = paints[j-1], paints[j]
		}
	}
	m := msg.Message{Kind: msg.KindUpdate, From: int32(n.id), To: msg.Broadcast, Edge: -1, Color: -1}
	m.SetPaints(paints)
	return []msg.Message{m}
}

// applyFinal records a finalized (edge, color), updating whichever of
// this node's views the edge touches. from identifies the broadcaster.
func (n *mprNode) applyFinal(e graph.EdgeID, c, from int) {
	ed := n.g.EdgeAt(e)
	switch {
	case ed.U == n.id || ed.V == n.id:
		if _, dup := n.colors[e]; dup {
			return
		}
		n.colors[e] = c
		n.usedSelf[c] = true
		n.incident--
		other := ed.Other(n.id)
		if i, ok := n.nbrIndex[other]; ok {
			n.usedNbr[i][c] = true
		}
		for i, id := range n.owned {
			if id == e {
				n.owned[i] = n.owned[len(n.owned)-1]
				n.owned = n.owned[:len(n.owned)-1]
				break
			}
		}
		if from != n.id {
			// Learned from the owner: relay to this side's neighborhood.
			n.relay = append(n.relay, msg.Paint{Edge: int32(e), Color: int32(c)})
		}
	default:
		// An edge incident to the broadcasting neighbor but not to us:
		// update that neighbor's used-color view.
		if i, ok := n.nbrIndex[from]; ok {
			n.usedNbr[i][c] = true
		}
	}
}
