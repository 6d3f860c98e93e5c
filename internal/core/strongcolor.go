package core

import (
	"context"
	"fmt"

	"dima/internal/automaton"
	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
)

// scPhases is the number of communication rounds per computation round
// of Algorithm 2: invitations, responses, and the two exchange
// sub-rounds (tentative claims, keep/drop decisions).
const scPhases = 4

// ColorStrong runs Algorithm 2 (DiMa2Ed), the distributed strong
// (distance-2) directed edge coloring, on the symmetric digraph d.
//
// One negotiation colors one arc: an inviter u picks a random uncolored
// outgoing arc (u,v) and a channel available in its closed neighborhood;
// the responder v accepts only if the channel is also available in v's
// closed neighborhood and (per the paper's Procedure 2-b) does not
// collide with overheard invitations. Together the two views cover every
// arc within distance 1 of (u,v) that was colored in earlier rounds.
//
// Same-round collisions are resolved by the claim/confirm exchange (the
// correction described in DESIGN.md): tentative pairs broadcast claims;
// any claimant that hears a conflicting same-color claim of higher
// priority withdraws; endpoints finalize only if both kept. Setting
// Options.UnsafeNoConfirm reverts to the paper's uncorrected behavior.
func ColorStrong(d *graph.Digraph, opt Options) (*Result, error) {
	return ColorStrongCtx(context.Background(), d, opt)
}

// ColorStrongCtx is ColorStrong bounded by ctx: when ctx is canceled
// the engine abandons the run at the next communication-round barrier
// and the returned Result carries the partial coloring with Aborted set
// (Terminated false, unassigned entries -1). Rounds executed before the
// cancellation are byte-identical to an uncanceled run with the same
// options, on every engine.
func ColorStrongCtx(ctx context.Context, d *graph.Digraph, opt Options) (*Result, error) {
	b := newBoard(d.Under(), 0, d.N(), 1, &opt)
	return opt.color(ctx, b, func() []net.Node { return asNodes(newSCNodes(d, b, &opt)) },
		strongFactoryName, scPhases, d.A())
}

// scClaim is a tentative pairing awaiting the confirm exchange.
type scClaim struct {
	arc       graph.ArcID
	slot      int // the arc's slot here
	color     int32
	partner   int32
	keep      bool
	compRound int // computation round the claim formed in (event attribution)
}

// scNode is one vertex of Algorithm 2: the shared automaton node, whose
// items are the arcs into and out of the vertex and whose open slots are
// its uncolored out arcs, plus the closed-neighborhood color knowledge,
// the claim/confirm exchange and its recovery.
type scNode struct {
	colorNode
	d *graph.Digraph

	remaining  int      // incident arcs (in+out) still uncolored
	colorsNbr  ColorSet // colors on arcs incident to any neighbor
	colorsSelf ColorSet // colors on arcs incident to u itself

	// Dead-list relay: the E state exchanges each node's *color list* —
	// the channels no longer usable for it, which already aggregates its
	// one-hop knowledge. Relaying the list gives each inviter a view of
	// the responder's forbidden set through one-hop messages only
	// (Algorithm 2 lines 2.23–2.24 and Procedure 2-c). Newly dead colors
	// wait as the unsent tail of the paint slab until the next exchange.
	deadNbr   []ColorSet // deadNbr[i]: colors Neighbors(u)[i] announced as dead for itself
	announced ColorSet   // colors this node has already announced dead

	// attempts[i] counts failed invitations on the out arc of slot i. The
	// responder may hold forbidden colors the inviter cannot see (used by
	// the responder's other neighbors), so a fixed lowest-free proposal
	// can be rejected forever. After a failure the proposal is drawn
	// uniformly from a window that grows with the attempt count, which
	// makes every arc colorable with probability 1. Procedure 2-a only
	// requires "an open channel", so this selection rule is a faithful
	// refinement (see DESIGN.md).
	attempts []int32

	claim     *scClaim // tentative pairing this round (points at claimSlot), nil if none
	claimSlot scClaim

	// Recovery state (Options.Recovery; see recovery.go). reaffirmQ holds
	// keep-Decides re-announcing committed colors (after an adoption, or
	// to flush out the losing side of a late-detected conflict), drained
	// at the decide phase so they arrive with the regular knowledge
	// traffic.
	reaffirmQ []msg.Message
}

// scOutboxCap is the outbox window each node starts with: the decide
// phase sends a dead-list delta and a decision.
const scOutboxCap = 2

// scPaintWindow is the first paint-slab chunk of a degree-deg vertex
// whose neighbors' degrees sum to nbrDeg. A vertex announces every
// color on an arc within its closed neighborhood as dead exactly once;
// there are at most 2(deg + nbrDeg) such arcs, and on random graphs
// about half as many distinct colors. The cap keeps a hub's leaves from
// reserving the hub's whole neighborhood; a full chunk is replaced by a
// fresh one of twice the size.
func scPaintWindow(deg, nbrDeg int) int {
	return min(deg+nbrDeg, 16*deg)
}

// scSetWords is how many words beyond the inline one each of a node's
// color sets reserves up front. Strong colorings of random graphs use
// about 6.5Δ colors, so sets sized for 8Δ rarely grow past their
// reservation. The reservation stops at 256 colors: it costs every set
// of the run, and on high-degree graphs sets grow on demand instead.
func scSetWords(maxDeg int) int {
	return min(3, max(0, (8*maxDeg+63)/64-1))
}

// newSCNodes builds the nodes of board b's vertices of the symmetric
// digraph d, whose underlying graph is b's, with per-vertex state carved
// from run-wide arrays.
func newSCNodes(d *graph.Digraph, b *board, opt *Options) []scNode {
	g, lo, hi := b.g, b.c.lo, b.c.lo+len(b.totals)
	sk := newSkeleton(b, scOutboxCap, opt)
	total := sk.c.total()
	attempts := make([]int32, total)
	deadNbr := make([]ColorSet, total)
	paintTotal := 0
	for u := lo; u < hi; u++ {
		paintTotal += scPaintWindow(g.Degree(u), nbrDegrees(g, u))
	}
	paints := make([]msg.Paint, paintTotal)
	sw := scSetWords(g.MaxDegree())
	words := make([]uint64, sw*(total+3*(hi-lo)))
	reserve := func(s *ColorSet) {
		s.hi, words = words[:0:sw], words[sw:]
	}
	for i := range deadNbr {
		reserve(&deadNbr[i])
	}
	nodes := make([]scNode, hi-lo)
	p := 0
	for u := lo; u < hi; u++ {
		pw := scPaintWindow(g.Degree(u), nbrDegrees(g, u))
		n := &nodes[u-lo]
		*n = scNode{
			colorNode: sk.node(u, paints[p:p:p+pw]),
			d:         d,
			remaining: 2 * g.Degree(u),
			deadNbr:   window(deadNbr, &sk.c, u),
			attempts:  window(attempts, &sk.c, u),
		}
		p += pw
		reserve(&n.colorsSelf)
		reserve(&n.colorsNbr)
		reserve(&n.announced)
	}
	return nodes
}

func (n *scNode) Step(round int, inbox []msg.Message) []msg.Message {
	phase, out := n.begin(round, scPhases)
	switch {
	case n.Done():
		if n.recOn() {
			out = n.stepDone(phase, inbox, out)
		}
	case phase == 0:
		out = n.phaseChooseInvite(inbox, out)
	case phase == 1:
		out = n.phaseRespond(inbox, out)
	case phase == 2:
		out = n.phaseClaim(inbox, out)
	default:
		out = n.phaseDecide(inbox, out)
	}
	n.out = out
	return out
}

// stepDone services recovery traffic after the node finished. A finished
// node stays the authority for its committed arcs: it answers probes and
// re-invitations for them, keeps scanning neighbor announcements for
// late-detected conflicts, and — when a negative acknowledgement or a
// lost conflict reverts one of its arcs — resurrects as a listener so
// the arc renegotiates.
func (n *scNode) stepDone(phase int, inbox, out []msg.Message) []msg.Message {
	before := n.remaining
	switch phase {
	case 0:
		// Neighbor keep-decides and re-announcements: fold into knowledge
		// and check them against this node's committed arcs.
		out = n.scanAnnouncements(inbox, out)
	case 1:
		out = n.processAcks(inbox, out)
		out = n.answerCommitted(inbox, out)
	case 3:
		out = n.processAcks(inbox, out)
		out = n.reannounce(out)
	}
	if n.remaining > before {
		// Back in the cycle at the state a listener holds after this phase.
		n.mach.Restart([...]automaton.State{automaton.Listen, automaton.Respond,
			automaton.Exchange, automaton.Choose}[phase])
	}
	return out
}

// nbrDegrees returns the summed degree of u's neighbors.
func nbrDegrees(g *graph.Graph, u int) int {
	s := 0
	for _, v := range g.Neighbors(u) {
		s += g.Degree(v)
	}
	return s
}

// forbids reports whether channel c is used on an arc within u's closed
// neighborhood — u's half of the distance-1 conflict set of any arc
// incident to u.
func (n *scNode) forbids(c int) bool {
	return n.colorsSelf.Has(c) || n.colorsNbr.Has(c)
}

// phaseChooseInvite finalizes the previous round's claims from the
// decide broadcasts, then runs the coin toss and invitation. Under
// recovery the decide processing can emit negative acknowledgements
// (lost partner decisions, late-detected conflicts), and a node whose
// remaining work is a half-colored incoming arc periodically probes the
// arc's owner for its committed state.
func (n *scNode) phaseChooseInvite(inbox, out []msg.Message) []msg.Message {
	out = n.applyDecides(inbox, out)
	if n.recOn() && n.remaining > 0 && len(n.open) == 0 && n.period() {
		// Every uncolored incoming arc is awaited from its owner. If the
		// owner committed it one-sidedly (a lost decide), no invitation
		// will ever arrive — ask for its status.
		deg := len(n.inc)
		for i, v := range n.nbrs {
			if n.colors[deg+i] >= 0 {
				continue
			}
			out = append(out, ackMsg(n.id, int32(v), int32(n.itemAt(deg+i)), -1, false))
			n.ev.add(evProbe, n.curRound)
		}
	}
	// The machine is in C at every phase-0 entry (the constructor starts
	// there; phaseDecide loops back). A node whose last arc was just
	// finalized idles through one final cycle as a listener and
	// transitions to D at the round's end, matching the paper's E-state
	// rule that finished nodes transfer to Done.
	if n.remaining == 0 {
		n.mach.MustTransition(automaton.Listen)
		return out
	}
	// Coin toss; a node with no uncolored outgoing arcs has nothing to
	// invite on and always listens (its remaining incoming arcs are
	// colored when the respective neighbors invite).
	i, ok := n.toss()
	if !ok {
		return out
	}
	c := n.proposeColor(i)
	n.attempts[i]++
	return n.invite(out, i, c)
}

// period reports whether the current computation round is one of the
// recovery timeout's periodic rounds (probes and re-announcements).
func (n *scNode) period() bool {
	return n.curRound > 0 && n.curRound%automaton.RecoveryTimeout == 0
}

// proposeColor picks the channel to propose for arc a, targeted at
// neighbor v: it must be free in this node's closed neighborhood and, as
// far as the relayed dead lists tell, usable by v. The first attempt
// uses the lowest such channel (keeping the palette compact); each
// fourth failed attempt widens a uniform-random window, guaranteeing
// eventual overlap with the responder's true free set even while relay
// updates are in flight. Under the RandomAvailable rule every attempt is
// randomized.
func (n *scNode) proposeColor(i int32) int {
	dead := &n.deadNbr[i]
	// Most invitation failures are benign (the target was not listening
	// or chose another suitor), and on average an arc needs ~4 attempts
	// even without channel disagreement, so the window widens only every
	// fourth failure. Until then the lowest free channel keeps the
	// palette compact.
	widen := int(n.attempts[i] / 4)
	if widen == 0 && n.opt.ColorRule == LowestFirst {
		return LowestFree(&n.colorsSelf, &n.colorsNbr, dead)
	}
	bound := MaxOf(&n.colorsSelf, &n.colorsNbr, dead) + 2 + widen
	k := n.r.Intn(CountFreeBelow(bound, &n.colorsSelf, &n.colorsNbr, dead)) // nonzero: bound exceeds max used
	return NthFreeBelow(bound, k, &n.colorsSelf, &n.colorsNbr, dead)
}

// applyDecides processes the keep/drop broadcasts of the previous
// round's confirm exchange: finalizes the node's own claim if both
// endpoints kept it, and folds neighbors' kept claims into the one-hop
// color knowledge. Under recovery it additionally emits negative
// acknowledgements — when the partner's decision was lost (it may have
// finalized one-sidedly), when a rival kept decision whose claim
// broadcast this node never heard outranks the claim, and when a
// neighbor announcement reveals a conflict with an already-committed arc
// (conflictCheck).
func (n *scNode) applyDecides(inbox, out []msg.Message) []msg.Message {
	var partnerKeep, partnerSeen, rivalWins bool
	for _, m := range inbox {
		if m.Kind == msg.KindUpdate {
			// A neighbor's dead-list delta: channels no longer usable
			// for it (relayed one-hop knowledge). Under recovery, paints
			// naming an arc re-announce a committed color.
			out = n.absorbDead(m, n.recOn(), out)
			continue
		}
		if m.Kind != msg.KindDecide {
			continue
		}
		if n.claim != nil && m.From == n.claim.partner && graph.ArcID(m.Edge) == n.claim.arc {
			partnerKeep, partnerSeen = m.Keep, true
		}
		// One-hop knowledge: a neighbor that kept a claim is treated as
		// using that color. If its partner dropped the claim this
		// over-approximates, which can only make future proposals more
		// conservative — never incorrect (see DESIGN.md).
		if m.Keep {
			n.addColorAt(int(m.Color))
			if n.recOn() {
				out = n.conflictCheck(graph.ArcID(m.Edge), int(m.Color), out)
			}
			if n.recOn() && n.claim != nil && n.claim.keep &&
				m.Color == n.claim.color && graph.ArcID(m.Edge) != n.claim.arc &&
				m.Edge >= 0 && int(m.Edge) < n.d.A() &&
				n.d.ArcsConflict(n.claim.arc, graph.ArcID(m.Edge)) {
				// A kept conflicting decision whose claim broadcast this
				// node never heard. Yield if it outranks the claim:
				// re-announced commitments (Seq > 0) always do, fresh
				// same-round claims by the usual claim priority.
				if m.Seq > 0 {
					rivalWins = true
				} else {
					p := claimPriority(n.curRound-1, graph.ArcID(m.Edge))
					my := claimPriority(n.curRound-1, n.claim.arc)
					if p < my || (p == my && graph.ArcID(m.Edge) < n.claim.arc) {
						rivalWins = true
					}
				}
			}
		}
	}
	if n.claim == nil {
		return out
	}
	cl := n.claim
	n.claim = nil
	if !cl.keep {
		n.ev.add(evDrop, cl.compRound)
		return out
	}
	if !partnerSeen || !partnerKeep {
		// Partner withdrew (or, under injected faults, its decision was
		// lost): the arc stays uncolored and is retried.
		n.ev.add(evDrop, cl.compRound)
		if n.recOn() && !partnerSeen {
			// The partner may have heard this node's keep and finalized
			// one-sidedly; demand a revert (a no-op if it also dropped).
			out = append(out, ackMsg(n.id, cl.partner, int32(cl.arc), cl.color, false))
		}
		return out
	}
	if rivalWins {
		n.ev.add(evDrop, cl.compRound)
		out = append(out, ackMsg(n.id, cl.partner, int32(cl.arc), cl.color, false))
		return out
	}
	n.ev.assign(cl.compRound, int(cl.arc), int(cl.color))
	n.finalize(cl.slot, int(cl.color))
	return out
}

// addColorAt records that a neighbor has color c on an incident arc,
// which also kills c for this node.
func (n *scNode) addColorAt(c int) {
	n.colorsNbr.Add(c)
	n.markDead(c)
}

// markDead queues color c for the dead-list exchange if it just became
// unusable for this node.
func (n *scNode) markDead(c int) {
	if !n.announced.Has(c) {
		n.announced.Add(c)
		n.paints.add(msg.Paint{Edge: -1, Color: int32(c)})
	}
}

// finalize records the color of the incident arc of slot s.
func (n *scNode) finalize(s int, c int) {
	if n.colors[s] >= 0 {
		n.ev.add(evReject, n.curRound)
		return
	}
	n.colors[s] = int32(c)
	n.colorsSelf.Add(c)
	n.markDead(c)
	n.remaining--
	if s >= len(n.inc) {
		return // an in arc: no attempts, never open
	}
	n.attempts[s] = 0
	n.dropOpen(s)
}

// phaseRespond: listeners evaluate invitations (Procedure 2-b) and
// respond to at most one; inviters move to W. Under recovery the phase
// opens by settling acknowledgements (reverts, probe answers) and by
// answering invitations for already-committed arcs authoritatively —
// inviters included, since a Waiting node is still the authority for its
// other arcs.
func (n *scNode) phaseRespond(inbox, out []msg.Message) []msg.Message {
	if n.recOn() {
		out = n.processAcks(inbox, out)
		out = n.answerCommitted(inbox, out)
	}
	if n.mach.State() == automaton.Invite {
		n.mach.MustTransition(automaton.Wait)
		return out
	}
	n.mach.MustTransition(automaton.Respond)
	// Acceptable invitations are counted in a first pass, which also
	// counts the defensive rejections, and the randomly chosen one is
	// found again in a second pass, so the phase needs no buffer.
	valid := 0
	for _, m := range inbox {
		if !automaton.IsInviteFor(m, int(n.id)) {
			continue
		}
		if !n.arcOpen(m) {
			if s := n.at(m.Edge, m.Port); n.recOn() && s >= 0 && n.colors[s] >= 0 {
				continue // answered authoritatively above
			}
			n.ev.add(evReject, n.curRound)
			continue
		}
		if n.acceptable(m, inbox) {
			valid++
		}
	}
	if valid == 0 {
		return out
	}
	k := n.r.Intn(valid)
	var m msg.Message
	for _, m = range inbox {
		if automaton.IsInviteFor(m, int(n.id)) && n.arcOpen(m) && n.acceptable(m, inbox) {
			if k == 0 {
				break
			}
			k--
		}
	}
	n.setClaim(scClaim{arc: graph.ArcID(m.Edge), slot: n.at(m.Edge, m.Port), color: m.Color, partner: m.From, keep: true,
		compRound: n.curRound})
	return append(out, msg.Message{
		Kind: msg.KindResponse, From: n.id, To: m.From, Edge: m.Edge, Color: m.Color,
	})
}

// arcOpen reports whether invitation m names an uncolored arc into this
// node from its sender; anything else is a defensive rejection (or,
// under recovery, a re-invitation answered from committed state).
func (n *scNode) arcOpen(m msg.Message) bool {
	s := n.at(m.Edge, m.Port) // in arcs take the slots from deg on
	return s >= len(n.inc) && n.colors[s] < 0
}

// acceptable applies Procedure 2-b to an open invitation m. A proposed
// channel is acceptable only if it is free in this node's closed
// neighborhood — a forbidden channel is a normal rejection, not a
// protocol anomaly: the inviter cannot see colors held by this node's
// other neighbors. Any invitation overheard from a neighbor is connected
// to this node's arcs by the link it arrived on, so a color collision
// with an overheard invitation also disqualifies m.
func (n *scNode) acceptable(m msg.Message, inbox []msg.Message) bool {
	if n.forbids(int(m.Color)) {
		return false
	}
	if !n.opt.DisableOverhearFilter {
		for _, o := range inbox {
			if o.Kind == msg.KindInvite && o.To != n.id && o.Color == m.Color {
				return false
			}
		}
	}
	return true
}

// setClaim records this round's tentative pairing in the node's claim
// slot.
func (n *scNode) setClaim(cl scClaim) {
	n.claimSlot = cl
	n.claim = &n.claimSlot
}

// phaseClaim: inviters look for an acceptance; both members of each
// tentative pair broadcast a claim (first exchange sub-round). Under
// UnsafeNoConfirm pairs finalize immediately, as in the paper, and
// broadcast a plain color update instead.
func (n *scNode) phaseClaim(inbox, out []msg.Message) []msg.Message {
	switch n.mach.State() {
	case automaton.Wait:
		if m, ok := automaton.FindResponse(int(n.id), int(n.inviteItem), inbox); ok {
			if m.From == n.inviteTo && m.Color == n.inviteColor && (!n.recOn() || m.Seq == 0) {
				n.setClaim(scClaim{arc: graph.ArcID(n.inviteItem), slot: n.at(m.Edge, m.Port), color: n.inviteColor,
					partner: n.inviteTo, keep: true, compRound: n.curRound})
			} else if !n.recOn() {
				n.ev.add(evReject, n.curRound)
			}
			// Under recovery a Seq > 0 response is an authoritative
			// re-response, handled by the adoption scan below.
		}
		n.mach.MustTransition(automaton.Update)
	case automaton.Respond:
		n.mach.MustTransition(automaton.Update)
	default:
		panic(fmt.Sprintf("core: node %d in state %v at claim phase", n.id, n.mach.State()))
	}
	n.mach.MustTransition(automaton.Exchange)
	if n.recOn() {
		out = n.adoptResponses(inbox, out)
	}
	if n.claim == nil {
		return out
	}
	if n.opt.UnsafeNoConfirm {
		cl := n.claim
		n.claim = nil
		n.ev.assign(cl.compRound, int(cl.arc), int(cl.color))
		n.finalize(cl.slot, int(cl.color))
		m := msg.Message{Kind: msg.KindUpdate, From: n.id, To: msg.Broadcast, Edge: -1, Color: -1}
		m.SetPaints([]msg.Paint{{Edge: int32(cl.arc), Color: cl.color}})
		return append(out, m)
	}
	return append(out, msg.Message{
		Kind: msg.KindClaim, From: n.id, To: msg.Broadcast,
		Edge: int32(n.claim.arc), Color: n.claim.color,
	})
}

// phaseDecide: second exchange sub-round. Each claimant withdraws if it
// heard a conflicting claim of higher priority; every claim heard from a
// neighbor with the same color conflicts, because the link it was heard
// on connects the two arcs (Definition 2).
func (n *scNode) phaseDecide(inbox, out []msg.Message) []msg.Message {
	defer func() {
		if n.remaining == 0 && n.claim == nil {
			n.mach.MustTransition(automaton.Done)
		} else {
			n.mach.MustTransition(automaton.Choose)
		}
	}()
	if n.recOn() {
		// Negative acknowledgements from the claim phase's adoption scan
		// arrive here; re-announcements queued by adoptions and won
		// conflicts go out with the knowledge traffic, plus the periodic
		// full re-announcement that heals lost-broadcast knowledge gaps.
		out = n.processAcks(inbox, out)
		out = n.reannounce(out)
	}
	if n.opt.UnsafeNoConfirm {
		// Ablation arm: fold finalized updates into one-hop knowledge.
		for _, m := range inbox {
			if m.Kind != msg.KindUpdate {
				continue
			}
			for _, p := range m.Paints() {
				n.addColorAt(int(p.Color))
			}
		}
		return n.appendPaints(out)
	}
	if n.claim == nil {
		return n.appendPaints(out)
	}
	myPrio := claimPriority(n.curRound, n.claim.arc)
	for _, m := range inbox {
		if m.Kind != msg.KindClaim || graph.ArcID(m.Edge) == n.claim.arc || m.Color != n.claim.color {
			continue
		}
		p := claimPriority(n.curRound, graph.ArcID(m.Edge))
		if p < myPrio || (p == myPrio && graph.ArcID(m.Edge) < n.claim.arc) {
			n.claim.keep = false
			break
		}
	}
	// The Decide goes first: KindDecide sorts before KindUpdate, so a
	// reliable outbox leaves this phase in msg.Less order.
	out = append(out, msg.Message{
		Kind: msg.KindDecide, From: n.id, To: msg.Broadcast,
		Edge: int32(n.claim.arc), Color: n.claim.color, Keep: n.claim.keep,
	})
	return n.appendPaints(out)
}

// claimPriority orders same-color claims deterministically; both
// endpoints of each claim and every observer compute the same value from
// the round number and arc id alone. The round term rotates priorities
// so no arc is starved systematically.
func claimPriority(compRound int, a graph.ArcID) uint64 {
	return rng.Mix64(uint64(compRound)<<32 ^ uint64(a))
}

// scanAnnouncements is the finished node's share of applyDecides: fold
// neighbor announcements into one-hop knowledge and check each against
// this node's committed arcs.
func (n *scNode) scanAnnouncements(inbox, out []msg.Message) []msg.Message {
	for _, m := range inbox {
		switch m.Kind {
		case msg.KindUpdate:
			out = n.absorbDead(m, true, out)
		case msg.KindDecide:
			if m.Keep {
				n.addColorAt(int(m.Color))
				out = n.conflictCheck(graph.ArcID(m.Edge), int(m.Color), out)
			}
		}
	}
	return out
}

// absorbDead folds a neighbor's dead-list delta into its dead list —
// the one of the port it arrived on — and, with check, treats each paint
// naming an arc as a re-announced commitment to fold and check.
func (n *scNode) absorbDead(m msg.Message, check bool, out []msg.Message) []msg.Message {
	for _, p := range m.Paints() {
		n.deadNbr[m.Port].Add(int(p.Color))
		if check && p.Edge >= 0 {
			n.addColorAt(int(p.Color))
			out = n.conflictCheck(graph.ArcID(p.Edge), int(p.Color), out)
		}
	}
	return out
}

// conflictCheck tests a neighbor's announced (arc, color) pair against
// this node's committed arcs. A distance-1 collision means a claim or
// decide broadcast was lost before one of the commitments; the statically
// lower-priority arc yields. If this node's arc loses it reverts and
// tells its partner to do the same; if it wins it re-announces the arc so
// the losing side eventually detects the collision and yields.
func (n *scNode) conflictCheck(b graph.ArcID, c int, out []msg.Message) []msg.Message {
	if b < 0 || int(b) >= n.d.A() {
		return out
	}
	for s, cc := range n.colors {
		if cc < 0 || int(cc) != c {
			continue
		}
		a := graph.ArcID(n.itemAt(s))
		if a == b {
			continue
		}
		if !n.d.ArcsConflict(a, b) {
			continue
		}
		if staleWins(a, b) {
			n.reaffirm(a, c)
			continue
		}
		n.revertArc(s, c)
		out = append(out, ackMsg(n.id, int32(n.nbrs[s%len(n.inc)]), int32(a), int32(c), false))
	}
	return out
}

// staleWins orders two committed arcs in a late-detected conflict. The
// priority is a pure function of the arc ids, so all four endpoints —
// whenever and in whatever order they detect the collision — agree on
// the survivor without coordination.
func staleWins(a, b graph.ArcID) bool {
	pa, pb := rng.Mix64(uint64(a)), rng.Mix64(uint64(b))
	return pa < pb || (pa == pb && a < b)
}

// processAcks applies incoming KindAck traffic: a negative ack with a
// color reverts the named one-sided commitment; a probe (color -1) is
// answered from committed state with an authoritative Seq-1 Response.
func (n *scNode) processAcks(inbox, out []msg.Message) []msg.Message {
	for _, m := range inbox {
		if m.Kind != msg.KindAck || m.To != n.id || m.Keep {
			continue
		}
		s := n.at(m.Edge, m.Port)
		if s < 0 {
			continue
		}
		if m.Color >= 0 {
			n.revertArc(s, int(m.Color))
			continue
		}
		if c := n.colors[s]; c >= 0 {
			out = append(out, msg.Message{
				Kind: msg.KindResponse, From: n.id, To: m.From,
				Edge: m.Edge, Color: c, Seq: 1,
			})
			n.ev.add(evRetransmit, n.curRound)
		}
	}
	return out
}

// adoptResponses settles authoritative (Seq > 0) re-responses addressed
// to this node: the sender committed the arc, so adopt its color if the
// arc is uncolored here and the color passes this node's forbidden sets,
// otherwise demand a revert. Fresh tentative responses (Seq == 0) belong
// to the claim path and are never adopted directly.
func (n *scNode) adoptResponses(inbox, out []msg.Message) []msg.Message {
	for _, m := range inbox {
		if m.Kind != msg.KindResponse || m.To != n.id || m.Seq == 0 || m.Color < 0 {
			continue
		}
		s := n.at(m.Edge, m.Port)
		if s < 0 {
			continue
		}
		if c := n.colors[s]; c >= 0 {
			if c != m.Color {
				out = append(out, ackMsg(n.id, m.From, m.Edge, m.Color, false))
			}
			continue
		}
		if (n.claim != nil && n.claim.color == m.Color) || n.forbids(int(m.Color)) {
			out = append(out, ackMsg(n.id, m.From, m.Edge, m.Color, false))
			continue
		}
		n.adopt(s, int(m.Color))
	}
	return out
}

// adopt finalizes the arc of slot s from the partner's authoritative
// state and queues a re-announcement so the neighborhood learns the
// color.
func (n *scNode) adopt(s int, c int) {
	a := graph.ArcID(n.itemAt(s))
	n.finalize(s, c)
	n.ev.add(evRepair, n.curRound)
	n.ev.assign(n.curRound, int(a), c)
	n.reaffirm(a, c)
}

// reannounce appends the queued keep-Decides and, in a recovery period
// round, the full re-announcement of this node's committed colors: one
// Update whose paints name (arc, color) pairs. Receivers fold each pair
// into one-hop knowledge and run conflictCheck, so any conflict whose
// forming broadcasts were lost is re-detected every period until the
// losing side reverts. Both live and finished nodes re-announce — a
// latent conflict can sit entirely between finished nodes.
func (n *scNode) reannounce(out []msg.Message) []msg.Message {
	out = append(out, n.reaffirmQ...)
	n.reaffirmQ = nil
	if !n.period() {
		return out
	}
	var paints []msg.Paint
	for s, c := range n.colors {
		if c >= 0 {
			paints = append(paints, msg.Paint{Edge: int32(n.itemAt(s)), Color: c})
		}
	}
	if len(paints) == 0 {
		return out
	}
	m := msg.Message{Kind: msg.KindUpdate, From: n.id, To: msg.Broadcast, Edge: -1, Color: -1, Seq: 1}
	m.SetPaints(paints)
	return append(out, m)
}

// reaffirm queues a keep-Decide re-announcing a committed arc color,
// deduplicating per arc; the queue drains at the decide phase.
func (n *scNode) reaffirm(a graph.ArcID, c int) {
	for _, m := range n.reaffirmQ {
		if graph.ArcID(m.Edge) == a {
			return
		}
	}
	n.reaffirmQ = append(n.reaffirmQ, msg.Message{
		Kind: msg.KindDecide, From: n.id, To: msg.Broadcast,
		Edge: int32(a), Color: int32(c), Keep: true, Seq: 1,
	})
}

// revertArc undoes this node's commitment of color c to the arc of
// slot s. Stale requests (the arc moved on, or was never committed
// here) are ignored. Neighbor knowledge (announced dead lists,
// colorsNbr) is left as is: over-approximating a dead color is always
// safe.
func (n *scNode) revertArc(s int, c int) {
	if int(n.colors[s]) != c {
		return
	}
	n.colors[s] = -1
	n.remaining++
	if s < len(n.inc) {
		n.open = append(n.open, int32(s))
	}
	n.colorsSelf = ColorSet{}
	for _, cc := range n.colors {
		if cc >= 0 {
			n.colorsSelf.Add(int(cc))
		}
	}
	n.ev.add(evRevert, n.curRound)
}
