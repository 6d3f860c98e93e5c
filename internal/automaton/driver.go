package automaton

import (
	"fmt"

	"dima/internal/msg"
	"dima/internal/rng"
)

// Pairing is the problem-specific half of a matching-discovery protocol.
// The Driver owns the paper's automaton — coin toss, state transitions,
// invitation/response bookkeeping — and calls back into the Pairing for
// every decision that depends on the problem being solved. Implementing
// this interface is how the framework of the paper's conclusion is meant
// to be extended; internal/matching is the reference implementation.
//
// All methods run in the node's goroutine (or the sequential scheduler);
// no synchronization is needed, but implementations must be
// deterministic given their own state and the provided random stream.
type Pairing interface {
	// Live reports whether this node still has work. A node whose Live
	// turns false finishes its current cycle and transitions to Done.
	Live() bool
	// Invite builds the invitation to broadcast when the coin makes
	// this node an inviter: the returned message must carry From (this
	// node), To (the invited neighbor), and any Edge/Color payload.
	// Returning ok == false skips inviting this round (the node
	// listens instead).
	Invite(r *rng.Rand) (m msg.Message, ok bool)
	// Respond chooses among the invitations addressed to this node
	// (mine) given everything overheard; returning ok == true
	// broadcasts the response and commits this side of the pair. The
	// implementation records its own tentative state. Both groups keep
	// inbox order, and like the inbox they are valid only during the
	// call: the driver reuses their storage every round, so copy out
	// any message to keep.
	Respond(mine, overheard []msg.Message, r *rng.Rand) (response msg.Message, ok bool)
	// Complete delivers the response that accepted this node's
	// invitation (inviter side of the pair).
	Complete(response msg.Message)
	// Exchange returns the end-of-round broadcasts (the automaton's E
	// state); nil when there is nothing to announce.
	Exchange() []msg.Message
	// Absorb processes the previous round's exchange broadcasts at the
	// start of a new cycle.
	Absorb(inbox []msg.Message)
}

// Driver hosts a Pairing on the matching-discovery automaton and
// implements net.Node. One computation round costs three communication
// rounds: invitations, responses, exchange.
type Driver struct {
	id   int
	r    *rng.Rand
	p    Pairing
	mach *Machine
	rec  Recovery

	inviteEdge int32
	inviteTo   int32
	invited    bool

	// Recovery state: the last invitation sent, kept while its response
	// is outstanding. A node whose invitation went unanswered re-enters
	// I after rec.Timeout() computation rounds and renegotiates the same
	// edge — retransmitting with an incremented Seq — instead of
	// flipping a fresh coin, until rec.Budget() retries are spent.
	sentInvite   msg.Message
	pending      bool
	pendingAge   int
	pendingTries int
	holdRespond  bool

	// out is the outbox Step returns, reused every round: it stays valid
	// until this node's next Step, per the net.Node contract. mine and
	// overheard are the groups handed to Respond, reused likewise.
	out, mine, overheard []msg.Message
}

// DriverPhases is the number of communication rounds per computation
// round of a driver-hosted protocol.
const DriverPhases = 3

// NewDriver wraps a Pairing as a protocol node. If the pairing starts
// with no work, the driver walks the machine straight to Done.
func NewDriver(id int, r *rng.Rand, p Pairing, hook Hook) *Driver {
	d := &Driver{id: id, r: r, p: p, mach: NewMachine(id, hook)}
	if !p.Live() {
		d.mach.Restart(Done)
	}
	return d
}

// WithRecovery enables loss recovery on the driver and returns it for
// chaining at construction time. Recovery relies on the Pairing's
// Exchange broadcasts carrying the committed edge id (as
// internal/matching's match announcements do) and is strengthened — but
// not required — by the Pairing implementing Reaffirmer.
func (d *Driver) WithRecovery(rec Recovery) *Driver {
	d.rec = rec
	return d
}

// ID implements net.Node.
func (d *Driver) ID() int { return d.id }

// Done implements net.Node.
func (d *Driver) Done() bool { return d.mach.State() == Done }

// Step implements net.Node.
func (d *Driver) Step(round int, inbox []msg.Message) []msg.Message {
	if d.Done() {
		// A finished node keeps answering invitations from its committed
		// state when recovery is on: its Response (or its match
		// announcement) may have been lost, and silence would leave the
		// inviter retrying into the void.
		if d.rec.Enabled && round%DriverPhases == 1 {
			d.out = d.reaffirm(inbox, d.out[:0])
			return d.out
		}
		return nil
	}
	d.out = d.step(round%DriverPhases, inbox, d.out[:0])
	return d.out
}

// step runs one phase of the live node's cycle, appending its
// broadcasts to out.
func (d *Driver) step(phase int, inbox, out []msg.Message) []msg.Message {
	switch phase {
	case 0:
		d.p.Absorb(inbox)
		d.invited = false
		d.holdRespond = false
		if d.rec.Enabled && d.pending {
			var handled bool
			if out, handled = d.recoverPending(inbox, out); handled {
				return out
			}
		}
		// A node whose work just finished idles through one last cycle
		// as a listener and stops at the round's end.
		if !d.p.Live() {
			d.mach.MustTransition(Listen)
			return out
		}
		if d.r.Bool() {
			if m, ok := d.p.Invite(d.r); ok {
				if int(m.From) != d.id {
					panic(fmt.Sprintf("automaton: node %d built invitation from %d", d.id, m.From))
				}
				d.mach.MustTransition(Invite)
				d.invited = true
				d.inviteEdge, d.inviteTo = m.Edge, m.To
				m.Kind = msg.KindInvite
				d.sentInvite = m
				return append(out, m)
			}
		}
		d.mach.MustTransition(Listen)
		return out

	case 1:
		if d.mach.State() == Invite {
			d.mach.MustTransition(Wait)
			return out
		}
		d.mach.MustTransition(Respond)
		if d.rec.Enabled {
			out = d.reaffirm(inbox, out)
		}
		// Group a and group b of Algorithm 2's R state: the invitations
		// addressed here and those overheard, each in inbox order.
		d.mine, d.overheard = d.mine[:0], d.overheard[:0]
		for _, m := range inbox {
			if IsInviteFor(m, d.id) {
				d.mine = append(d.mine, m)
			} else if m.Kind == msg.KindInvite {
				d.overheard = append(d.overheard, m)
			}
		}
		if d.holdRespond || !d.p.Live() || len(d.mine) == 0 {
			return out
		}
		if m, ok := d.p.Respond(d.mine, d.overheard, d.r); ok {
			m.Kind = msg.KindResponse
			m.From = int32(d.id)
			out = append(out, m)
		}
		return out

	default:
		switch d.mach.State() {
		case Wait:
			if m, ok := FindResponse(d.id, int(d.inviteEdge), inbox); ok && m.From == d.inviteTo {
				d.p.Complete(m)
				d.clearPending()
			} else if d.rec.Enabled {
				d.settleWait(inbox)
			}
			d.mach.MustTransition(Update)
		case Respond:
			d.mach.MustTransition(Update)
		default:
			panic(fmt.Sprintf("automaton: node %d in state %v at exchange phase", d.id, d.mach.State()))
		}
		d.mach.MustTransition(Exchange)
		out = append(out, d.p.Exchange()...)
		if d.p.Live() || (d.rec.Enabled && d.pending) {
			d.mach.MustTransition(Choose)
		} else {
			d.mach.MustTransition(Done)
		}
		return out
	}
}

// reaffirm routes invitations addressed here through the pairing's
// Reaffirmer, answering from committed state on behalf of nodes the
// normal Respond path no longer serves, and appends the answers to out.
func (d *Driver) reaffirm(inbox, out []msg.Message) []msg.Message {
	ref, ok := d.p.(Reaffirmer)
	if !ok {
		return out
	}
	for _, inv := range inbox {
		if !IsInviteFor(inv, d.id) {
			continue
		}
		if m, ok := ref.Reaffirm(inv); ok {
			m.From = int32(d.id)
			m.Seq = inv.Seq
			out = append(out, m)
		}
	}
	return out
}

// settleWait handles the no-response case of the Wait state under
// recovery. An Update from the invited neighbor resolves the negotiation
// either way — it committed our edge (complete the pair) or a different
// one (stop waiting); such re-announcements arrive in this phase when a
// Reaffirmer sent them, so they are also forwarded to Absorb, which
// otherwise only sees start-of-cycle inboxes. With no word from the
// neighbor at all, the invitation becomes (or stays) pending for the
// retransmit loop in recoverPending.
func (d *Driver) settleWait(inbox []msg.Message) {
	settled := false
	for i, m := range inbox {
		if m.Kind != msg.KindUpdate {
			continue
		}
		d.p.Absorb(inbox[i : i+1])
		if m.From == d.inviteTo {
			if m.Edge == d.inviteEdge {
				d.p.Complete(msg.Message{
					Kind: msg.KindResponse, From: m.From, To: int32(d.id),
					Edge: d.inviteEdge, Color: d.sentInvite.Color,
				})
			}
			settled = true
		}
	}
	if settled {
		d.clearPending()
		return
	}
	if !d.pending {
		d.pending = true
		d.pendingAge = 0
		d.pendingTries = 0
	}
}

// recoverPending runs at the start of a cycle while an invitation is
// outstanding. It returns handled == true when it consumed the round (a
// retransmission was appended to out, or the node is holding in L until
// the timeout); handled == false hands the round back to the normal
// protocol after the pending state was resolved or abandoned.
func (d *Driver) recoverPending(inbox, out []msg.Message) ([]msg.Message, bool) {
	// The neighbor's own exchange broadcast settles the question without
	// any retransmission: its Edge names the edge it committed.
	for _, m := range inbox {
		if m.Kind == msg.KindUpdate && m.From == d.sentInvite.To {
			if m.Edge == d.sentInvite.Edge {
				d.p.Complete(msg.Message{
					Kind: msg.KindResponse, From: m.From, To: int32(d.id),
					Edge: m.Edge, Color: d.sentInvite.Color,
				})
			}
			d.clearPending()
			return out, false
		}
	}
	d.pendingAge++
	if d.pendingAge < d.rec.Timeout() {
		// Still inside the timeout window: hold in L, responding to no
		// one — the node is logically still waiting on its invitation.
		d.mach.MustTransition(Listen)
		d.holdRespond = true
		return out, true
	}
	if d.pendingTries >= d.rec.Budget() {
		// Budget spent: abandon the exchange. The normal protocol may
		// still reach the neighbor through a fresh coin-flip invitation,
		// which a Reaffirmer answers from committed state.
		d.clearPending()
		return out, false
	}
	d.pendingTries++
	d.pendingAge = 0
	m := d.sentInvite
	m.Seq = uint32(d.pendingTries)
	d.mach.MustTransition(Invite)
	d.invited = true
	d.inviteEdge, d.inviteTo = m.Edge, m.To
	return append(out, m), true
}

func (d *Driver) clearPending() {
	d.pending = false
	d.pendingAge = 0
	d.pendingTries = 0
}
