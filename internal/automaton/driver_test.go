package automaton

import (
	"reflect"
	"slices"
	"testing"

	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
)

// maxPairing is a toy Pairing demonstrating a custom protocol on the
// driver: every node holds a value; when a pair forms, both members
// learn the larger of the two values (a pairwise-gossip maximum). A node
// retires after enough pairings — or after its patience runs out, since
// a neighbor that retired first can never pair again.
type maxPairing struct {
	id       int
	g        *graph.Graph
	value    int
	rounds   int // pairings still wanted
	patience int // computation rounds before giving up
	partner  map[int]bool
}

func (p *maxPairing) Live() bool {
	return p.rounds > 0 && p.patience > 0 && p.g.Degree(p.id) > 0
}

func (p *maxPairing) Absorb(inbox []msg.Message) { p.patience-- }

func (p *maxPairing) Invite(r *rng.Rand) (msg.Message, bool) {
	nbrs := p.g.Neighbors(p.id)
	v := nbrs[r.Intn(len(nbrs))]
	// Carry the value in the Color field.
	return msg.Message{From: p.id, To: v, Edge: -1, Color: p.value}, true
}

func (p *maxPairing) Respond(mine, _ []msg.Message, r *rng.Rand) (msg.Message, bool) {
	m := mine[r.Intn(len(mine))]
	reply := msg.Message{To: m.From, Edge: -1, Color: p.value}
	if m.Color > p.value {
		p.value = m.Color
	}
	p.pairDone(m.From)
	return reply, true
}

func (p *maxPairing) Complete(response msg.Message) {
	if response.Color > p.value {
		p.value = response.Color
	}
	p.pairDone(response.From)
}

func (p *maxPairing) pairDone(partner int) {
	p.rounds--
	p.partner[partner] = true
}

func (p *maxPairing) Exchange() []msg.Message { return nil }

func TestDriverHostsCustomPairing(t *testing.T) {
	// A path graph; values increase with id. After enough pairings the
	// maximum value propagates locally: every node that paired with a
	// higher-valued neighbor holds that value.
	g := graph.New(6)
	for u := 0; u+1 < 6; u++ {
		g.MustAddEdge(u, u+1)
	}
	base := rng.New(9)
	nodes := make([]net.Node, g.N())
	ps := make([]*maxPairing, g.N())
	for u := 0; u < g.N(); u++ {
		ps[u] = &maxPairing{id: u, g: g, value: u * 10, rounds: 3, patience: 60, partner: map[int]bool{}}
		nodes[u] = NewDriver(u, base.Derive(uint64(u)), ps[u], nil)
	}
	res, err := net.RunSync(g, nodes, net.Config{MaxRounds: 3 * 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("custom protocol did not terminate")
	}
	paired := 0
	for u, p := range ps {
		paired += len(p.partner)
		// Values only ever increase and never exceed the global max.
		if p.value < u*10 || p.value > 50 {
			t.Fatalf("node %d value %d out of range", u, p.value)
		}
		// Every partner is an actual neighbor: pairs formed on edges.
		for v := range p.partner {
			if !g.HasEdge(u, v) {
				t.Fatalf("node %d paired with non-neighbor %d", u, v)
			}
		}
	}
	if paired == 0 {
		t.Fatal("no pairings formed at all")
	}
}

// skipPairing declines every invitation opportunity; the driver must
// still terminate once Live turns false externally.
type skipPairing struct {
	budget int
}

func (p *skipPairing) Live() bool { return p.budget > 0 }
func (p *skipPairing) Absorb(inbox []msg.Message) {
	p.budget--
}
func (p *skipPairing) Invite(r *rng.Rand) (msg.Message, bool) { return msg.Message{}, false }
func (p *skipPairing) Respond(mine, _ []msg.Message, r *rng.Rand) (msg.Message, bool) {
	return msg.Message{}, false
}
func (p *skipPairing) Complete(response msg.Message) {}
func (p *skipPairing) Exchange() []msg.Message       { return nil }

func TestDriverInviteSkipAndBudget(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	base := rng.New(11)
	nodes := []net.Node{
		NewDriver(0, base.Derive(0), &skipPairing{budget: 4}, nil),
		NewDriver(1, base.Derive(1), &skipPairing{budget: 4}, nil),
	}
	res, err := net.RunSync(g, nodes, net.Config{MaxRounds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("skip protocol did not terminate")
	}
	if res.Messages != 0 {
		t.Fatalf("skip protocol sent %d messages", res.Messages)
	}
}

func TestDriverDeadOnArrival(t *testing.T) {
	d := NewDriver(0, rng.New(1), &skipPairing{budget: 0}, nil)
	if !d.Done() {
		t.Fatal("driver with no work not Done at construction")
	}
	if out := d.Step(0, nil); out != nil {
		t.Fatal("done driver produced output")
	}
}

// badPairing builds an invitation with the wrong From id — a protocol
// bug the driver must catch loudly.
type badPairing struct{}

func (badPairing) Live() bool                 { return true }
func (badPairing) Absorb(inbox []msg.Message) {}
func (badPairing) Invite(r *rng.Rand) (msg.Message, bool) {
	return msg.Message{From: 99, To: 1}, true
}
func (badPairing) Respond(mine, _ []msg.Message, r *rng.Rand) (msg.Message, bool) {
	return msg.Message{}, false
}
func (badPairing) Complete(response msg.Message) {}
func (badPairing) Exchange() []msg.Message       { return nil }

func TestDriverRejectsForgedInvitations(t *testing.T) {
	d := NewDriver(0, rng.New(2), badPairing{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("forged From accepted")
		}
	}()
	// The coin may land on Listen; step until the invite path fires.
	for round := 0; ; round += 3 {
		d.Step(round, nil)
		d.Step(round+1, nil)
		d.Step(round+2, nil)
	}
}

// groupPairing listens forever and records the groups Respond gets.
type groupPairing struct {
	mine, overheard []msg.Message
}

func (p *groupPairing) Live() bool                           { return true }
func (p *groupPairing) Absorb([]msg.Message)                 {}
func (p *groupPairing) Invite(*rng.Rand) (msg.Message, bool) { return msg.Message{}, false }
func (p *groupPairing) Complete(msg.Message)                 {}
func (p *groupPairing) Exchange() []msg.Message              { return nil }
func (p *groupPairing) Respond(mine, overheard []msg.Message, _ *rng.Rand) (msg.Message, bool) {
	p.mine = append([]msg.Message(nil), mine...)
	p.overheard = append([]msg.Message(nil), overheard...)
	return msg.Message{}, false
}

// TestDriverRespondGetsBothInviteGroups: Respond receives the
// invitations addressed to the node (group a) and the overheard ones
// (group b), each in inbox order, and no other message kind.
func TestDriverRespondGetsBothInviteGroups(t *testing.T) {
	p := &groupPairing{}
	d := NewDriver(5, rng.New(1), p, nil)
	d.Step(0, nil)
	inbox := []msg.Message{
		{Kind: msg.KindInvite, From: 1, To: 5, Edge: 10, Color: 0},
		{Kind: msg.KindInvite, From: 2, To: 9, Edge: 11, Color: 1},
		{Kind: msg.KindResponse, From: 3, To: 5, Edge: 12, Color: 2},
		{Kind: msg.KindInvite, From: 4, To: 5, Edge: 13, Color: 3},
		{Kind: msg.KindUpdate, From: 6, To: msg.Broadcast, Edge: 14, Color: 4},
		{Kind: msg.KindInvite, From: 7, To: 8, Edge: 15, Color: 5},
	}
	d.Step(1, inbox)
	if !reflect.DeepEqual(p.mine, []msg.Message{inbox[0], inbox[3]}) {
		t.Fatalf("mine = %v", p.mine)
	}
	if !reflect.DeepEqual(p.overheard, []msg.Message{inbox[1], inbox[5]}) {
		t.Fatalf("overheard = %v", p.overheard)
	}
}

// pingPairing is an allocation-free Pairing for two nodes 0 and 1 on one
// edge: it always invites the other node, accepts the first invitation,
// and announces every round from a preallocated exchange slice.
type pingPairing struct {
	id       int
	exchange [1]msg.Message
}

func (p *pingPairing) Live() bool           { return true }
func (p *pingPairing) Absorb([]msg.Message) {}
func (p *pingPairing) Invite(*rng.Rand) (msg.Message, bool) {
	return msg.Message{From: p.id, To: 1 - p.id, Edge: 0}, true
}
func (p *pingPairing) Respond(mine, _ []msg.Message, _ *rng.Rand) (msg.Message, bool) {
	return msg.Message{To: mine[0].From, Edge: 0}, true
}
func (p *pingPairing) Complete(msg.Message) {}
func (p *pingPairing) Exchange() []msg.Message {
	p.exchange[0] = msg.Message{Kind: msg.KindUpdate, From: p.id, To: msg.Broadcast, Edge: 0}
	return p.exchange[:]
}

// TestDriverCycleAllocatesNothing: once its outbox and Respond groups
// have grown, a driver-hosted invite/respond/exchange cycle allocates
// nothing. The two nodes' outboxes are copied into fixed inboxes by
// hand, as an engine would deliver them.
func TestDriverCycleAllocatesNothing(t *testing.T) {
	base := rng.New(4)
	ds := [2]*Driver{
		NewDriver(0, base.Derive(0), &pingPairing{id: 0}, nil),
		NewDriver(1, base.Derive(1), &pingPairing{id: 1}, nil),
	}
	var inbox [2][]msg.Message
	for i := range inbox {
		inbox[i] = make([]msg.Message, 0, 4)
	}
	round, responses := 0, 0
	cycle := func() {
		for phase := 0; phase < DriverPhases; phase++ {
			a := ds[0].Step(round, inbox[0])
			b := ds[1].Step(round, inbox[1])
			inbox[0] = append(inbox[0][:0], b...)
			inbox[1] = append(inbox[1][:0], a...)
			if phase == 1 {
				responses += len(a) + len(b)
			}
			round++
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("driver cycle allocates %.1f times", allocs)
	}
	if responses == 0 {
		t.Fatal("no invitation was ever answered; the respond path went unmeasured")
	}
}

// TestDriverIdleWalksLegallyToDone: a driver whose pairing starts with
// no work reaches Done at construction through the listener's legal
// cycle, each transition seen by the hook.
func TestDriverIdleWalksLegallyToDone(t *testing.T) {
	var got []State
	prev := Choose
	d := NewDriver(0, rng.New(1), &skipPairing{budget: 0}, func(node int, from, to State) {
		if from != prev || !from.CanTransitionTo(to) {
			t.Fatalf("illegal walk step %v -> %v after %v", from, to, prev)
		}
		prev = to
		got = append(got, to)
	})
	if want := []State{Listen, Respond, Update, Exchange, Done}; !d.Done() || !slices.Equal(got, want) {
		t.Fatalf("walk %v, want %v", got, want)
	}
}
