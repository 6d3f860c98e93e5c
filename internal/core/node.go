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

// colorNode is the vertex automaton both algorithms run on: the state
// and the steps of Fig. 1's cycle that do not depend on the coloring
// problem. ecNode and scNode embed it first and add their own color
// knowledge, proposal rule and recovery.
//
// A node colors items: edges for Algorithm 1, arcs for Algorithm 2.
// Item ids are edge ids shifted left by arcs (0 or 1); an arc's low bit
// is its direction, so arc 2e runs from edge e's U to its V. Slot i is
// Neighbors(u)[i] and its edge IncidentEdges(u)[i] — port i, the port
// messages from that neighbor arrive on; with arcs set, slot i holds
// the out arc of that edge and slot deg+i its in arc.
type colorNode struct {
	id   int32
	opt  *Options
	r    rng.Rand
	mach automaton.Machine

	inc    []graph.EdgeID // IncidentEdges(u)
	nbrs   []int          // Neighbors(u)
	arcs   uint           // 1 when items are arcs, 0 when they are edges
	colors []int32        // colors[s]: color of the item of slot s, -1 while uncolored
	open   []int32        // slots of uncolored items this node can invite on
	paints paintSlab      // paints not yet broadcast form the unsent tail

	// Current invitation, valid while the machine is in I/W.
	inviteItem  int32
	inviteTo    int32
	inviteColor int32

	// out is the outbox Step returns, reused every round: it stays valid
	// until this node's next Step, per the net.Node contract.
	out []msg.Message

	// curRound is the computation round of the current Step; ev records
	// the node's protocol events. Both sit next to out because every
	// Step touches all three, and one cache line can hold them.
	curRound int
	ev       nodeEvents

	sent []int32 // node processes only: the colors last shipped
}

// board holds what the post-run assembly and the round fold read of the
// nodes of [lo, hi), in run-wide arrays the nodes write in place. A
// cluster run's coordinator builds no nodes: board.Apply loads into it.
type board struct {
	g      *graph.Graph
	c      incidence
	arcs   uint
	colors []int32             // vertex u's window: its slots' colors, -1 while uncolored
	totals [][numRunEvents]int // per vertex: its run-event totals
	recs   [][2]roundEvents    // per vertex, with Options.Metrics only
	sent   []int32             // node processes only: the colors last shipped
}

func newBoard(g *graph.Graph, lo, hi int, arcs uint, opt *Options) *board {
	c := newIncidence(g, lo, hi)
	b := &board{g: g, c: c, arcs: arcs, colors: make([]int32, c.total()<<arcs),
		totals: make([][numRunEvents]int, hi-lo)}
	for i := range b.colors {
		b.colors[i] = -1
	}
	if opt.Metrics != nil {
		b.recs = make([][2]roundEvents, hi-lo)
	}
	return b
}

// colorsOf returns vertex u's window of colors.
func (b *board) colorsOf(u int) []int32 {
	lo, hi := b.c.span(u)
	return b.colors[lo<<b.arcs : hi<<b.arcs : hi<<b.arcs]
}

// owns reports whether item is one of vertex u's items: its edge is
// live and has u as an endpoint.
func (b *board) owns(u, item int) bool {
	e := graph.EdgeID(item >> b.arcs)
	return b.g.Live(e) && (b.g.EdgeAt(e).U == u || b.g.EdgeAt(e).V == u)
}

// skeleton lays out a board's nodes in run-wide arrays (arena.go).
type skeleton struct {
	*board
	opt    *Options
	base   *rng.Rand
	open   []int32
	outs   []msg.Message
	outCap int
}

func newSkeleton(b *board, outCap int, opt *Options) *skeleton {
	return &skeleton{board: b, opt: opt, base: rng.New(opt.Seed), outCap: outCap,
		open: make([]int32, b.c.total()), outs: make([]msg.Message, outCap*len(b.totals))}
}

// node returns the shared state of vertex u's node with paints as its
// first paint chunk. Node u draws from the stream
// rng.New(opt.Seed).Derive(u), so a shard built by a node process
// matches an in-process run's nodes. Every item starts uncolored and
// every slot open; a vertex without edges walks straight to Done, so
// the machine invariant (all terminations pass through D) holds.
func (s *skeleton) node(u int, paints []msg.Paint) colorNode {
	a, b := s.c.span(u)
	o := s.outCap * (u - s.c.lo)
	n := colorNode{
		id:     int32(u),
		opt:    s.opt,
		r:      s.base.Child(uint64(u)),
		mach:   *automaton.NewMachine(u, s.opt.Hook),
		inc:    s.g.IncidentEdges(u),
		nbrs:   s.g.Neighbors(u),
		arcs:   s.arcs,
		colors: s.colorsOf(u),
		open:   s.open[a:b:b],
		paints: paintSlab{buf: paints},
		out:    s.outs[o : o : o+s.outCap],
		ev:     nodeEvents{total: &s.totals[u-s.c.lo]},
	}
	if s.recs != nil {
		n.ev.rec = &s.recs[u-s.c.lo]
	}
	if s.sent != nil {
		n.sent = s.sent[a<<s.arcs : b<<s.arcs : b<<s.arcs]
	}
	for i := range n.open {
		n.open[i] = int32(i)
	}
	if a == b {
		n.mach.Restart(automaton.Done)
	}
	return n
}

func (n *colorNode) ID() int { return int(n.id) }

func (n *colorNode) Done() bool { return n.mach.State() == automaton.Done }

func (n *colorNode) recOn() bool { return n.opt.Recovery.Enabled }

// begin opens a Step: it records the computation round, opens the
// round's event slot at its first phase, and returns the phase within
// the round and the emptied outbox.
func (n *colorNode) begin(round, phases int) (int, []msg.Message) {
	n.curRound = round / phases
	phase := round % phases
	if phase == 0 && n.ev.rec != nil {
		// Round r's slot last held round r-2, which the fold emitted at
		// the end of round r-1.
		s := &n.ev.rec[n.curRound&1]
		*s = roundEvents{assigns: s.assigns[:0]}
		n.ev.dirty = true
	}
	return phase, n.out[:0]
}

// toss runs the C state's coin toss (line 1.8): the node counts as
// active, and the coin makes it an inviter on a uniformly drawn open
// slot, returned with ok == true, or a listener. A node without open
// slots listens whatever the coin says.
func (n *colorNode) toss() (slot int32, ok bool) {
	n.ev.add(evActive, n.curRound)
	if n.r.Bool() && len(n.open) > 0 {
		n.mach.MustTransition(automaton.Invite)
		n.ev.add(evInvite, n.curRound)
		return n.open[n.r.Intn(len(n.open))], true
	}
	n.mach.MustTransition(automaton.Listen)
	n.ev.add(evListen, n.curRound)
	return 0, false
}

// invite records the invitation of the item of slot s with color c and
// appends it to out.
func (n *colorNode) invite(out []msg.Message, s int32, c int) []msg.Message {
	n.inviteItem, n.inviteTo, n.inviteColor = int32(n.itemAt(int(s))), int32(n.nbrs[s]), int32(c)
	return append(out, msg.Message{Kind: msg.KindInvite, From: n.id, To: n.inviteTo, Edge: n.inviteItem, Color: n.inviteColor})
}

// appendPaints drains the unsent paints into one Update broadcast
// appended to out, and appends nothing when none is pending.
func (n *colorNode) appendPaints(out []msg.Message) []msg.Message {
	if len(n.paints.pending()) == 0 {
		return out
	}
	m := msg.Message{Kind: msg.KindUpdate, From: n.id, To: msg.Broadcast, Edge: -1, Color: -1}
	m.SetPaints(n.paints.take())
	return append(out, m)
}

// dropOpen removes slot s from the open slots if it is there.
func (n *colorNode) dropOpen(s int) {
	for k, o := range n.open {
		if int(o) == s {
			n.open[k] = n.open[len(n.open)-1]
			n.open = n.open[:len(n.open)-1]
			return
		}
	}
}

// answerCommitted re-responds to invitations for items this node
// already colored, with the committed color and Seq+1 so the inviter
// treats the reply as authoritative: a finished or lagging node's half
// of the recovery re-response.
func (n *colorNode) answerCommitted(inbox, out []msg.Message) []msg.Message {
	for _, m := range inbox {
		if !automaton.IsInviteFor(m, int(n.id)) {
			continue
		}
		if s := n.at(m.Edge, m.Port); s >= 0 && n.colors[s] >= 0 {
			out = append(out, msg.Message{
				Kind: msg.KindResponse, From: n.id, To: m.From,
				Edge: m.Edge, Color: n.colors[s], Seq: m.Seq + 1,
			})
			n.ev.add(evRetransmit, n.curRound)
		}
	}
	return out
}

// at returns the slot of item when it lies on the edge of port — the
// edge a message arrived on — and -1 otherwise: the validity gate for
// every item a message names before it touches state.
func (n *colorNode) at(item, port int32) int {
	if item < 0 || n.inc[port] != graph.EdgeID(item>>n.arcs) {
		return -1
	}
	return n.inOut(int(item), int(port))
}

// inOut returns the slot of item, which lies on the edge of port: the
// port itself, or deg+port for an in arc.
func (n *colorNode) inOut(item, port int) int {
	// An arc whose direction bit differs from this end's out arc's is in.
	in := (item ^ n.itemAt(port)) & int(n.arcs)
	return port + in*len(n.inc)
}

// itemAt returns the item of slot s.
func (n *colorNode) itemAt(s int) int { return itemOf(n.inc, n.nbrs, int(n.id), n.arcs, s) }

// itemOf returns the item of slot s of vertex u with incident edges inc
// and neighbors nbrs.
func itemOf(inc []graph.EdgeID, nbrs []int, u int, arcs uint, s int) int {
	in := 0
	if s >= len(inc) {
		s, in = s-len(inc), 1
	}
	// Edges keep U < V (graph.Edge), so u is the V end of the edge, whose
	// out arc has direction bit 1, exactly when the neighbor is smaller.
	if nbrs[s] < u {
		in ^= 1
	}
	return int(inc[s])<<arcs | in&int(arcs)
}

// asNodes returns the nodes as net.Nodes for an engine.
func asNodes[T any, P interface {
	*T
	net.Node
}](nodes []T) []net.Node {
	nets := make([]net.Node, len(nodes))
	for i := range nodes {
		nets[i] = P(&nodes[i])
	}
	return nets
}

// color runs the nodes build makes on board b on Engine (nil means
// net.RunSync) or, with Cluster set, the algorithm's factory on
// net.RunTCP, which loads the node processes' state into b; bounded at
// phases communication rounds per computation round. With Metrics set,
// a roundFold over b streams RoundStats to the sink during the run.
// color then assembles the Result for the run's items (edges or arcs)
// from b: both endpoints must agree on every item's color, an item only
// one endpoint colored counts as half-colored, and a terminated run
// must have colored everything.
func (o *Options) color(ctx context.Context, b *board, build func() []net.Node, factory string, phases, items int) (*Result, error) {
	cfg := net.Config{MaxRounds: phases * o.maxCompRounds(), Ctx: ctx, Fault: o.Fault, Workers: o.Workers}
	var fold *roundFold
	if o.Metrics != nil {
		fold = newRoundFold(o.Metrics, b, phases, items)
		cfg.Observe = fold.observe
	}
	engine := o.Engine
	if engine == nil {
		engine = net.RunSync
	}
	run := func() (net.Result, error) { return engine(b.g, build(), cfg) }
	if o.Cluster != nil {
		run = func() (net.Result, error) { return o.runCluster(factory, b, cfg) }
	}
	netRes, err := run()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Colors:     make([]int, items),
		CommRounds: netRes.Rounds,
		CompRounds: (netRes.Rounds + phases - 1) / phases,
		Messages:   netRes.Messages,
		Deliveries: netRes.Deliveries,
		Bytes:      netRes.Bytes,
		Terminated: netRes.Terminated,
		Aborted:    netRes.Aborted,
	}
	if fold != nil {
		fold.flush(res.CompRounds)
	}
	for i := range res.Colors {
		res.Colors[i] = -1
	}
	endpoints := make([]int8, items)
	for i := range b.totals {
		res.addEvents(&b.totals[i])
		u := b.c.lo + i
		inc, nbrs := b.g.IncidentEdges(u), b.g.Neighbors(u)
		for s, c32 := range b.colorsOf(u) {
			if c32 < 0 {
				continue
			}
			item, c := itemOf(inc, nbrs, u, b.arcs, s), int(c32)
			endpoints[item]++
			if res.Colors[item] == -1 {
				res.Colors[item] = c
			} else if res.Colors[item] != c {
				return nil, fmt.Errorf("core: item %d colored %d and %d by its endpoints", item, res.Colors[item], c)
			}
		}
	}
	for _, k := range endpoints {
		if k == 1 {
			res.HalfColored++
		}
	}
	if res.Terminated {
		for item, c := range res.Colors {
			if c < 0 {
				return nil, fmt.Errorf("core: terminated with uncolored item %d", item)
			}
		}
	}
	res.countColors()
	return res, nil
}
