package core

import (
	"context"
	"fmt"

	"dima/internal/automaton"
	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
)

// ecPhases is the number of communication rounds per computation round
// of Algorithm 1: invitations, responses, and the exchange broadcast.
const ecPhases = 3

// ColorEdges runs Algorithm 1, the distributed matching-based edge
// coloring, on g and returns the per-edge colors plus run metrics.
//
// Each vertex is an independent automaton instance. Per computation
// round: every active node flips a coin (C) to invite or listen; an
// inviter picks a random uncolored incident edge and proposes the lowest
// color available to both endpoints (I), then waits (W); a listener
// collects invitations addressed to it (L), accepts one at random (R);
// pair members assign the color (U) and broadcast it to their neighbors
// (E). Edges colored in one round form a matching, so no two adjacent
// edges can be assigned in the same round, which is the correctness core
// of the paper's Proposition 2.
func ColorEdges(g *graph.Graph, opt Options) (*Result, error) {
	return ColorEdgesCtx(context.Background(), g, opt)
}

// ColorEdgesCtx is ColorEdges bounded by ctx: when ctx is canceled the
// engine abandons the run at the next communication-round barrier and
// the returned Result carries the partial coloring with Aborted set
// (Terminated false, unassigned entries -1). Rounds executed before the
// cancellation are byte-identical to an uncanceled run with the same
// options, on every engine.
func ColorEdgesCtx(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	return colorEdges(ctx, g, nil, opt)
}

// colorEdges is the shared engine behind ColorEdgesCtx and
// ColorEdgesConstrained. forbidden, when non-nil, holds one color set
// per vertex (entries may be nil) that the vertex must treat as already
// used by itself; nil forbidden reproduces ColorEdgesCtx byte for byte.
func colorEdges(ctx context.Context, g *graph.Graph, forbidden []*ColorSet, opt Options) (*Result, error) {
	if g.EdgeIDBound() != g.M() {
		return nil, fmt.Errorf("core: graph has removal holes (%d ids, %d edges); compact before coloring",
			g.EdgeIDBound(), g.M())
	}
	// The forbidden sets do not travel in the cluster options blob.
	if forbidden != nil && opt.Cluster != nil {
		return nil, fmt.Errorf("core: constrained coloring is not supported on the tcp engine")
	}
	b := newBoard(g, 0, g.N(), 0, &opt)
	return opt.color(ctx, b, func() []net.Node {
		ecs := newECNodes(b, &opt)
		for u := 0; forbidden != nil && u < len(ecs); u++ {
			ecs[u].seedForbidden(forbidden)
		}
		return asNodes(ecs)
	}, edgeFactoryName, ecPhases, g.M())
}

// ecNode is one vertex of Algorithm 1: the shared automaton node, whose
// items are the vertex's edges, plus the live and dead color lists of
// the paper's line 1.11.
type ecNode struct {
	colorNode

	usedSelf ColorSet   // colors on own colored edges (live complement)
	usedNbr  []ColorSet // usedNbr[i]: colors used by Neighbors(u)[i] (the dead list)
	forbid   *ColorSet  // externally forbidden colors (ColorEdgesConstrained), folded into usedSelf

	// Recovery state (Options.Recovery; see recovery.go). pendingAck
	// holds responder-side assignments awaiting the partner's paint
	// broadcast; retransQ holds Responses queued for the next respond
	// phase; attempts counts failed invitations per edge so stale
	// proposals widen their color window instead of looping forever.
	// All three stay nil when recovery is off.
	pendingAck map[graph.EdgeID]*ecPending
	retransQ   []msg.Message
	attempts   map[graph.EdgeID]int
}

// newECNodes builds the nodes of board b's vertices with their
// per-vertex state carved from run-wide arrays.
func newECNodes(b *board, opt *Options) []ecNode {
	sk := newSkeleton(b, 1, opt)
	total := sk.c.total()
	usedNbr := make([]ColorSet, total)
	paints := make([]msg.Paint, total)
	nodes := make([]ecNode, len(b.totals))
	for i := range nodes {
		u, n := sk.c.lo+i, &nodes[i]
		*n = ecNode{
			colorNode: sk.node(u, window(paints, &sk.c, u)[:0]),
			usedNbr:   window(usedNbr, &sk.c, u),
		}
		if opt.Recovery.Enabled {
			n.pendingAck = make(map[graph.EdgeID]*ecPending)
			n.attempts = make(map[graph.EdgeID]int)
		}
	}
	return nodes
}

// seedForbidden folds externally forbidden colors (per vertex) into the
// node's live and dead lists before the run starts: forbidden[u] acts as
// colors already on u's own edges, and each neighbor's forbidden set as
// colors already broadcast by that neighbor. The set is kept on the node
// so recovery's rebuildUsedSelf cannot drop it.
func (n *ecNode) seedForbidden(forbidden []*ColorSet) {
	if f := forbidden[n.id]; f != nil && f.Max() >= 0 {
		n.forbid = f.Clone()
		n.usedSelf.AddSet(n.forbid)
	}
	for i, v := range n.nbrs {
		n.usedNbr[i].AddSet(forbidden[v])
	}
}

func (n *ecNode) Step(round int, inbox []msg.Message) []msg.Message {
	phase, out := n.begin(round, ecPhases)
	switch {
	case n.Done():
		if n.recOn() {
			out = n.stepDone(phase, inbox, out)
		}
	case phase == 0:
		out = n.phaseChooseInvite(inbox, out)
	case phase == 1:
		out = n.phaseRespond(inbox, out)
	default:
		out = n.phaseUpdateExchange(inbox, out)
	}
	n.out = out
	return out
}

// stepDone services recovery traffic after the node finished: a finished
// node is the authority for its colored edges, so it keeps answering
// invitations for them, and a negative acknowledgement (its partner
// could not adopt a one-sided assignment) reverts the edge and
// resurrects the node as a listener for the rest of the current cycle.
func (n *ecNode) stepDone(phase int, inbox, out []msg.Message) []msg.Message {
	if phase == 2 {
		return out // acknowledgements and invitations never land here
	}
	before := len(n.open)
	n.absorbAcks(inbox)
	if len(n.open) > before {
		n.mach.Restart([...]automaton.State{automaton.Listen, automaton.Respond}[phase])
	}
	if phase == 1 {
		return n.answerCommitted(inbox, out)
	}
	return out
}

// phaseChooseInvite applies neighbor updates from the previous exchange,
// runs the C state's coin toss, and broadcasts an invitation if the node
// became an inviter. Under recovery it first settles acknowledgements:
// incoming acks, partner paints that implicitly acknowledge or repair an
// assignment, and the aging of its own unacknowledged assignments.
func (n *ecNode) phaseChooseInvite(inbox, out []msg.Message) []msg.Message {
	if n.recOn() {
		n.absorbAcks(inbox)
	}
	for _, m := range inbox {
		if m.Kind != msg.KindUpdate {
			continue
		}
		for _, p := range m.Paints() {
			n.usedNbr[m.Port].Add(int(p.Color))
		}
		if n.recOn() {
			out = n.absorbPaints(m, out)
		}
	}
	if n.recOn() {
		n.ageAcks()
		if len(n.open) == 0 {
			// All own edges colored; the node only lingers for
			// outstanding acknowledgements. Listen until they settle.
			n.mach.MustTransition(automaton.Listen)
			return out
		}
	}
	i, ok := n.toss()
	if !ok {
		return out
	}
	// Inviter: random uncolored edge, lowest available color (lines
	// 1.10–1.12).
	e := n.inc[i]
	c := n.proposeColor(e, &n.usedNbr[i])
	if n.recOn() {
		n.attempts[e]++
	}
	return n.invite(out, i, c)
}

// absorbPaints handles the recovery significance of one neighbor's paint
// broadcast: a paint naming a shared edge is the implicit acknowledgement
// of this node's assignment — or, if this node has the edge uncolored,
// the partner's authoritative assignment to adopt (a lost Response left
// this side behind). An unadoptable color is answered with a negative
// acknowledgement so the partner reverts.
func (n *ecNode) absorbPaints(m msg.Message, out []msg.Message) []msg.Message {
	for _, p := range m.Paints() {
		e, s := graph.EdgeID(p.Edge), n.at(p.Edge, m.Port)
		if s < 0 {
			continue
		}
		if pa, ok := n.pendingAck[e]; ok && pa.partner == m.From {
			delete(n.pendingAck, e)
		}
		if n.colors[s] >= 0 {
			continue
		}
		if n.usedSelf.Has(int(p.Color)) {
			out = append(out, ackMsg(n.id, m.From, p.Edge, p.Color, false))
			continue
		}
		n.assign(s, p.Color)
		n.ev.add(evRepair, n.curRound)
	}
	return out
}

// ageAcks advances the acknowledgement clocks of this node's one-sided
// assignments, queueing a Response retransmission for each that timed
// out, and abandoning those whose retry budget is spent (the edge stays
// colored here; the partner's own re-invitations can still repair it).
func (n *ecNode) ageAcks() {
	if len(n.pendingAck) == 0 {
		return
	}
	for _, e := range sortedEdgeKeys(n.pendingAck) {
		pa := n.pendingAck[e]
		pa.age++
		if pa.age < n.opt.Recovery.Timeout() {
			continue
		}
		if pa.tries >= n.opt.Recovery.Budget() {
			delete(n.pendingAck, e)
			continue
		}
		pa.tries++
		pa.age = 0
		n.retransQ = append(n.retransQ, msg.Message{
			Kind: msg.KindResponse, From: n.id, To: pa.partner,
			Edge: int32(e), Color: pa.color, Seq: uint32(pa.tries),
		})
		n.ev.add(evRetransmit, n.curRound)
	}
}

// proposeColor picks the color to propose for edge e given the target
// neighbor's dead list, per the configured rule. Under recovery,
// repeatedly failed invitations widen a uniform-random window (as
// Algorithm 2 does) because lost updates can leave the inviter unable to
// see why its lowest-free proposal keeps being rejected.
func (n *ecNode) proposeColor(e graph.EdgeID, target *ColorSet) int {
	widen := 0
	if n.recOn() {
		widen = n.attempts[e] / 4
	}
	if widen == 0 && n.opt.ColorRule != RandomAvailable {
		return LowestFree(&n.usedSelf, target)
	}
	bound := MaxOf(&n.usedSelf, target) + 2 + widen
	k := n.r.Intn(CountFreeBelow(bound, &n.usedSelf, target)) // nonzero: bound exceeds max used
	return NthFreeBelow(bound, k, &n.usedSelf, target)
}

// phaseRespond handles the L→R side (accept one invitation) and the I→W
// side (inviters idle while their proposal is in flight). Under recovery
// it first settles negative acknowledgements from the previous choose
// phase, drains queued retransmissions, and answers invitations for
// already-committed edges with their authoritative color.
func (n *ecNode) phaseRespond(inbox, out []msg.Message) []msg.Message {
	if n.recOn() {
		n.absorbAcks(inbox)
		out = append(out, n.retransQ...)
		n.retransQ = nil
	}
	if n.mach.State() == automaton.Invite {
		n.mach.MustTransition(automaton.Wait)
		return out
	}
	n.mach.MustTransition(automaton.Respond)
	if n.recOn() {
		// An inviter renegotiating an edge this node already committed
		// lost its earlier Response (or its acceptance was lost): answer
		// with the committed color so the inviter adopts it.
		out = n.answerCommitted(inbox, out)
	}
	// Defensive validation: an invitation is acceptable only if its
	// color is unused here and its edge is still uncolored. The protocol
	// invariants guarantee this under reliable delivery (the inviter
	// proposed from current one-hop knowledge); under injected faults
	// stale invitations are rejected here.
	valid := 0
	for _, m := range inbox {
		if !automaton.IsInviteFor(m, int(n.id)) {
			continue
		}
		if n.recOn() {
			if s := n.at(m.Edge, m.Port); s >= 0 && n.colors[s] >= 0 {
				continue // answered above
			}
		}
		if n.acceptable(m) {
			valid++
		} else {
			n.ev.add(evReject, n.curRound)
		}
	}
	if valid == 0 {
		return out
	}
	// R state: accept one invitation uniformly at random (line 1.21)
	// and assign the color immediately (line 1.23). The chosen one is
	// found again by a second pass, so the phase needs no buffer.
	k := n.r.Intn(valid)
	var m msg.Message
	for _, m = range inbox {
		if automaton.IsInviteFor(m, int(n.id)) && n.acceptable(m) {
			if k == 0 {
				break
			}
			k--
		}
	}
	n.assign(int(m.Port), m.Color)
	if n.recOn() {
		n.pendingAck[graph.EdgeID(m.Edge)] = &ecPending{color: m.Color, partner: m.From}
	}
	return append(out, msg.Message{
		Kind: msg.KindResponse, From: n.id, To: m.From, Edge: m.Edge, Color: m.Color,
	})
}

// acceptable reports whether invitation m may be accepted: its color is
// unused here and its edge — the edge of its port — still uncolored.
func (n *ecNode) acceptable(m msg.Message) bool {
	s := n.at(m.Edge, m.Port)
	return !n.usedSelf.Has(int(m.Color)) && s >= 0 && n.colors[s] < 0
}

// phaseUpdateExchange closes the round: inviters apply an acceptance if
// one arrived (W→U), everyone broadcasts newly used colors (U→E), and
// the machine loops to C or stops at D. Under recovery the response
// handling generalizes from the one expected reply to any Response for
// an incident edge (adopting, acknowledging, or refusing it), and the
// node stays live while assignments await acknowledgement.
func (n *ecNode) phaseUpdateExchange(inbox, out []msg.Message) []msg.Message {
	wasWait := n.mach.State() == automaton.Wait
	switch n.mach.State() {
	case automaton.Wait:
		if !n.recOn() {
			if m, ok := automaton.FindResponse(int(n.id), int(n.inviteItem), inbox); ok {
				if m.From == n.inviteTo && m.Color == n.inviteColor {
					n.assign(int(m.Port), m.Color)
				} else {
					// A response for my edge with mismatched partner or
					// color cannot occur under the protocol.
					n.ev.add(evReject, n.curRound)
				}
			}
		}
		n.mach.MustTransition(automaton.Update)
	case automaton.Respond:
		n.mach.MustTransition(automaton.Update)
	default:
		panic(fmt.Sprintf("core: node %d in state %v at update phase", n.id, n.mach.State()))
	}
	n.mach.MustTransition(automaton.Exchange)

	if n.recOn() {
		out = n.recoverResponses(inbox, wasWait, out)
	}
	out = n.appendPaints(out)
	if len(n.open) == 0 && !(n.recOn() && len(n.pendingAck) > 0) {
		n.mach.MustTransition(automaton.Done)
	} else {
		n.mach.MustTransition(automaton.Choose)
	}
	return out
}

// recoverResponses is the recovery generalization of the Wait state's
// response handling: every Response addressed to this node for an
// incident edge is settled — adopted if the edge is uncolored here and
// the color is free, positively acknowledged if it matches the committed
// color (ending the sender's retransmission loop), or refused with a
// negative acknowledgement so the sender reverts. The one response the
// reliable protocol expects (fresh acceptance of this round's invitation)
// is not counted as a repair.
func (n *ecNode) recoverResponses(inbox []msg.Message, wasWait bool, out []msg.Message) []msg.Message {
	for _, m := range inbox {
		if m.Kind != msg.KindResponse || m.To != n.id {
			continue
		}
		s := n.at(m.Edge, m.Port)
		if s < 0 || m.Color < 0 {
			continue
		}
		if c := n.colors[s]; c >= 0 {
			out = append(out, ackMsg(n.id, m.From, m.Edge, m.Color, c == m.Color))
			continue
		}
		if n.usedSelf.Has(int(m.Color)) {
			// Cannot adopt: the color is already on another of this
			// node's edges. Demand a revert.
			out = append(out, ackMsg(n.id, m.From, m.Edge, m.Color, false))
			continue
		}
		n.assign(s, m.Color)
		if !(wasWait && m.Edge == n.inviteItem && m.From == n.inviteTo && m.Color == n.inviteColor) {
			n.ev.add(evRepair, n.curRound)
		}
	}
	return out
}

// absorbAcks applies incoming KindAck messages: a positive ack settles
// the matching pendingAck entry; a negative ack with a color reverts the
// named one-sided assignment; probes (color -1) are an Algorithm 2
// concept and ignored here.
func (n *ecNode) absorbAcks(inbox []msg.Message) {
	for _, m := range inbox {
		if m.Kind != msg.KindAck || m.To != n.id {
			continue
		}
		e, i := graph.EdgeID(m.Edge), n.at(m.Edge, m.Port)
		if i < 0 {
			continue
		}
		if m.Keep {
			if pa, ok := n.pendingAck[e]; ok && pa.partner == m.From && pa.color == m.Color {
				delete(n.pendingAck, e)
			}
			continue
		}
		if m.Color < 0 {
			continue
		}
		n.revert(i, m.Color)
	}
}

// revert undoes this node's one-sided assignment of color c to the edge
// of slot i after the partner refused it. Stale reverts (the edge has
// moved on to a different color, or was never colored here) are
// ignored.
func (n *ecNode) revert(i int, c int32) {
	e := n.inc[i]
	if n.colors[i] != c {
		return
	}
	n.colors[i] = -1
	delete(n.pendingAck, e)
	n.open = append(n.open, int32(i))
	n.rebuildUsedSelf()
	for k, p := range n.paints.pending() {
		if graph.EdgeID(p.Edge) == e {
			n.paints.remove(k)
			break
		}
	}
	n.ev.add(evRevert, n.curRound)
}

// rebuildUsedSelf recomputes the live-complement set from scratch;
// ColorSet has no removal, and reverts are rare enough that a rebuild is
// simpler than reference counting.
func (n *ecNode) rebuildUsedSelf() {
	n.usedSelf = ColorSet{}
	n.usedSelf.AddSet(n.forbid)
	for _, c := range n.colors {
		if c >= 0 {
			n.usedSelf.Add(int(c))
		}
	}
}

// assign colors the edge of slot i with c, updating the live/dead
// bookkeeping and queueing the exchange broadcast.
func (n *ecNode) assign(i int, c int32) {
	e := n.inc[i]
	n.ev.assign(n.curRound, int(e), int(c))
	n.colors[i] = c
	n.usedSelf.Add(int(c))
	if n.recOn() {
		delete(n.attempts, e)
	}
	n.usedNbr[i].Add(int(c)) // the partner uses c now too
	n.dropOpen(i)
	n.paints.add(msg.Paint{Edge: int32(e), Color: c})
}
