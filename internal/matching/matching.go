// Package matching implements the original application of the paper's
// matching-discovery automaton (their ref [3]): a distributed maximal
// matching — uniform or greedy-by-weight — and the 2-approximate vertex
// cover it induces.
//
// It is also the reference implementation of the automaton.Pairing
// interface: the whole protocol is the ~120 lines of problem logic in
// this file, with the coin toss, state machine, and message pattern
// supplied by automaton.Driver. New problems extend the framework the
// same way, as the paper's conclusion anticipates.
package matching

import (
	"fmt"

	"dima/internal/automaton"
	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
)

// Options configures a run; the zero value is usable.
type Options struct {
	// Seed drives all random choices.
	Seed uint64
	// Engine executes the protocol (nil = net.RunSync).
	Engine net.Engine
	// MaxCompRounds bounds computation rounds (0 = 100,000).
	MaxCompRounds int
	// Hook observes automaton transitions.
	Hook automaton.Hook
	// Fault optionally drops deliveries (nil = reliable).
	Fault net.FaultInjector
	// Recovery enables the automaton's loss-recovery extension: unmatched
	// inviters retransmit unanswered invitations and matched nodes answer
	// them from committed state, so the matching completes under the
	// fault injectors of package net. Off (the zero value), behavior is
	// identical to the reliable-delivery protocol.
	Recovery automaton.Recovery
	// Weights, when non-nil (indexed by graph.EdgeID, all finite), turns
	// the protocol greedy-by-weight: inviters invite on their heaviest
	// live edge and listeners accept their heaviest invitation, so the
	// matching chases weight the way Preis-style local algorithms do —
	// a further demonstration that the automaton carries problem
	// variants beyond the paper's. Each node only ever reads the weights
	// of its own incident edges, so the information stays local.
	Weights []float64
}

// Result reports a maximal-matching run.
type Result struct {
	// Edges is the matching, as edge ids in ascending order.
	Edges []graph.EdgeID
	// Weight is the total weight of the matching (edge count when no
	// weights were supplied).
	Weight float64
	// CompRounds and CommRounds count automaton cycles and message
	// rounds (3 per cycle).
	CompRounds, CommRounds int
	Messages               int64
	Terminated             bool
}

// VertexCover returns the classic 2-approximate vertex cover induced by
// the matching: both endpoints of every matched edge.
func (r *Result) VertexCover(g *graph.Graph) []int {
	cover := make([]int, 0, 2*len(r.Edges))
	for _, e := range r.Edges {
		ed := g.EdgeAt(e)
		cover = append(cover, ed.U, ed.V)
	}
	return cover
}

// MaximalMatching runs the matching-discovery automaton until every node
// is matched or has no unmatched neighbors; the paired edges then form a
// maximal matching of g.
func MaximalMatching(g *graph.Graph, opt Options) (*Result, error) {
	if opt.Weights != nil && len(opt.Weights) != g.M() {
		return nil, fmt.Errorf("matching: %d weights for %d edges", len(opt.Weights), g.M())
	}
	base := rng.New(opt.Seed)
	nodes := make([]net.Node, g.N())
	pairings := make([]*mmPairing, g.N())
	for u := 0; u < g.N(); u++ {
		pairings[u] = newPairing(g, u, opt.Weights)
		nodes[u] = automaton.NewDriver(u, base.Derive(uint64(u)), pairings[u], opt.Hook).
			WithRecovery(opt.Recovery)
	}
	maxComp := opt.MaxCompRounds
	if maxComp <= 0 {
		maxComp = 100_000
	}
	eng := opt.Engine
	if eng == nil {
		eng = net.RunSync
	}
	netRes, err := eng(g, nodes, net.Config{
		MaxRounds: automaton.DriverPhases * maxComp,
		Fault:     opt.Fault,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		CommRounds: netRes.Rounds,
		CompRounds: (netRes.Rounds + automaton.DriverPhases - 1) / automaton.DriverPhases,
		Messages:   netRes.Messages,
		Terminated: netRes.Terminated,
	}
	// Assemble matched edges; both endpoints must agree.
	count := make(map[graph.EdgeID]int)
	for _, p := range pairings {
		if p.matchedEdge >= 0 {
			count[p.matchedEdge]++
		}
	}
	for e, c := range count {
		if c != 2 {
			return nil, fmt.Errorf("matching: edge %v matched by %d endpoints", g.EdgeAt(e), c)
		}
		res.Edges = append(res.Edges, e)
	}
	sortEdgeIDs(res.Edges)
	// Sum weights in sorted order: float addition is order sensitive and
	// the map iteration above is not deterministic.
	for _, e := range res.Edges {
		if opt.Weights != nil {
			res.Weight += opt.Weights[e]
		} else {
			res.Weight++
		}
	}
	return res, nil
}

func sortEdgeIDs(s []graph.EdgeID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// mmPairing is the problem half of the protocol: what to invite on, what
// to accept, what to announce. Everything else lives in automaton.Driver.
type mmPairing struct {
	id      int
	g       *graph.Graph
	weights []float64 // nil for the unweighted protocol

	matchedEdge graph.EdgeID // -1 until matched
	announced   bool
	liveNbrs    map[int]bool // unmatched neighbors
}

func newPairing(g *graph.Graph, u int, weights []float64) *mmPairing {
	p := &mmPairing{
		id:          u,
		g:           g,
		weights:     weights,
		matchedEdge: -1,
		liveNbrs:    make(map[int]bool, g.Degree(u)),
	}
	for _, v := range g.Neighbors(u) {
		p.liveNbrs[v] = true
	}
	return p
}

// Live implements automaton.Pairing: work remains while unmatched with
// unmatched neighbors.
func (p *mmPairing) Live() bool {
	return p.matchedEdge < 0 && len(p.liveNbrs) > 0
}

// Absorb folds in matched-announcements from the previous exchange.
func (p *mmPairing) Absorb(inbox []msg.Message) {
	for _, m := range inbox {
		if m.Kind == msg.KindUpdate {
			delete(p.liveNbrs, int(m.From))
		}
	}
}

// Invite picks the neighbor to invite: uniform among live neighbors
// (unweighted), or across the heaviest live edge (weighted; lowest edge
// id on ties). The scan walks the adjacency list so the choice is
// deterministic for a given seed.
func (p *mmPairing) Invite(r *rng.Rand) (msg.Message, bool) {
	var target int
	if p.weights == nil {
		pick := r.Intn(len(p.liveNbrs))
		i := 0
		found := false
		for _, v := range p.g.Neighbors(p.id) {
			if p.liveNbrs[v] {
				if i == pick {
					target, found = v, true
					break
				}
				i++
			}
		}
		if !found {
			panic("matching: live neighbor scan exhausted")
		}
	} else {
		bestEdge := graph.EdgeID(-1)
		for i, v := range p.g.Neighbors(p.id) {
			if !p.liveNbrs[v] {
				continue
			}
			e := p.g.IncidentEdges(p.id)[i]
			if bestEdge < 0 || p.weights[e] > p.weights[bestEdge] ||
				(p.weights[e] == p.weights[bestEdge] && e < bestEdge) {
				target, bestEdge = v, e
			}
		}
	}
	e, _ := p.g.EdgeIDOf(p.id, target)
	return msg.Message{From: int32(p.id), To: int32(target), Edge: int32(e), Color: -1}, true
}

// Respond accepts one invitation — uniform, or the heaviest when
// weighted (lowest edge id on ties; the inbox arrives sorted).
func (p *mmPairing) Respond(mine, _ []msg.Message, r *rng.Rand) (msg.Message, bool) {
	var m msg.Message
	if p.weights == nil {
		m = mine[r.Intn(len(mine))]
	} else {
		m = mine[0]
		for _, cand := range mine[1:] {
			if p.weights[cand.Edge] > p.weights[m.Edge] {
				m = cand
			}
		}
	}
	p.matchedEdge = graph.EdgeID(m.Edge)
	return msg.Message{To: m.From, Edge: m.Edge, Color: -1}, true
}

// Complete records the acceptance of this node's own invitation.
func (p *mmPairing) Complete(response msg.Message) {
	p.matchedEdge = graph.EdgeID(response.Edge)
}

// Reaffirm implements automaton.Reaffirmer: a matched node answers late
// or retransmitted invitations from its committed state. An invitation
// for the edge it matched means its Response was lost — re-send it; an
// invitation for another edge means its match announcement was lost —
// re-announce, so the inviter stops waiting and renegotiates elsewhere.
func (p *mmPairing) Reaffirm(invite msg.Message) (msg.Message, bool) {
	if p.matchedEdge < 0 {
		return msg.Message{}, false
	}
	if int32(p.matchedEdge) == invite.Edge {
		return msg.Message{Kind: msg.KindResponse, To: invite.From, Edge: invite.Edge, Color: -1}, true
	}
	return msg.Message{Kind: msg.KindUpdate, To: msg.Broadcast, Edge: int32(p.matchedEdge), Color: -1}, true
}

// Exchange announces a fresh match to the neighborhood, once.
func (p *mmPairing) Exchange() []msg.Message {
	if p.matchedEdge < 0 || p.announced {
		return nil
	}
	p.announced = true
	return []msg.Message{{
		Kind: msg.KindUpdate, From: int32(p.id), To: msg.Broadcast, Edge: int32(p.matchedEdge), Color: -1,
	}}
}
