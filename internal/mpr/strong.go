package mpr

import (
	"fmt"

	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
)

const strongPhases = 4 // pick+finalize, relay, veto, verdict+announce

// StrongResult reports a StrongColor run.
type StrongResult struct {
	// Colors is indexed by graph.ArcID.
	Colors []int
	// NumColors is the number of distinct channels used.
	NumColors int
	// Palette is the fixed palette size the run used.
	Palette    int
	Rounds     int
	CommRounds int
	Messages   int64
	Terminated bool
}

// StrongColor is the distance-2 analogue of Color and the distributed
// comparator for DiMa2Ed, in the spirit of the n-dependent strong
// coloring algorithms the paper cites (Barrett et al.): every round each
// uncolored arc's tail picks a tentative channel uniformly from a fixed
// palette minus the channels known dead for the arc; heads rebroadcast
// the picks so every conflict has a witness; witnesses veto same-channel
// collisions; surviving picks commit. O(log A) rounds with high
// probability, but the palette is sized to the worst-case conflict
// degree — global knowledge DiMa2Ed does not need — and the channel
// count lands far above DiMa2Ed's.
func StrongColor(d *graph.Digraph, opt Options) (*StrongResult, error) {
	palette := opt.Palette
	if palette == 0 {
		palette = maxConflictDegree(d) + 1
	}
	if need := maxConflictDegree(d) + 1; palette < need {
		return nil, fmt.Errorf("mpr: palette %d below max conflict degree + 1 = %d", palette, need)
	}
	base := rng.New(opt.Seed)
	g := d.Under()
	nodes := make([]net.Node, g.N())
	sns := make([]*strongNode, g.N())
	for u := 0; u < g.N(); u++ {
		sns[u] = newStrongNode(d, u, palette, base.Derive(uint64(u)))
		nodes[u] = sns[u]
	}
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 100_000
	}
	eng := opt.Engine
	if eng == nil {
		eng = net.RunSync
	}
	netRes, err := eng(g, nodes, net.Config{MaxRounds: strongPhases * maxRounds})
	if err != nil {
		return nil, err
	}
	res := &StrongResult{
		Colors:     make([]int, d.A()),
		Palette:    palette,
		CommRounds: netRes.Rounds,
		Rounds:     (netRes.Rounds + strongPhases - 1) / strongPhases,
		Messages:   netRes.Messages,
		Terminated: netRes.Terminated,
	}
	for i := range res.Colors {
		res.Colors[i] = -1
	}
	for _, n := range sns {
		for a, c := range n.colors {
			if res.Colors[a] == -1 {
				res.Colors[a] = c
			} else if res.Colors[a] != c {
				return nil, fmt.Errorf("mpr: arc %v colored %d and %d", d.ArcAt(a), res.Colors[a], c)
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

// maxConflictDegree returns the largest number of arcs conflicting with
// any single arc — the palette sizing bound (computed centrally; the
// baseline's informational advantage, like Color's global Δ).
func maxConflictDegree(d *graph.Digraph) int {
	g := d.Under()
	best := 0
	for a := graph.ArcID(0); int(a) < d.A(); a++ {
		arc := d.ArcAt(a)
		seen := map[graph.ArcID]bool{}
		for _, end := range []int{arc.From, arc.To} {
			for _, w := range append([]int{end}, g.Neighbors(end)...) {
				for _, b := range d.OutArcs(w) {
					for _, bb := range []graph.ArcID{b, d.ReverseOf(b)} {
						if bb != a && d.ArcsConflict(a, bb) {
							seen[bb] = true
						}
					}
				}
			}
		}
		if len(seen) > best {
			best = len(seen)
		}
	}
	return best
}

type strongNode struct {
	id      int
	d       *graph.Digraph
	g       *graph.Graph
	palette int
	r       *rng.Rand

	colors       map[graph.ArcID]int
	uncoloredOut []graph.ArcID // arcs this node owns (tail) and must color
	remaining    int           // incident arcs still uncolored (in + out)
	dead         map[int]bool  // channels dead for this node's neighborhood
	deadNbr      []map[int]bool
	nbrIndex     map[int]int
	announced    map[int]bool
	deadQueue    []int

	picks      map[graph.ArcID]int // own tentative picks this round
	heardPicks []msg.Message       // picks heard in phases 0-1 (claims + relays)
	selfVeto   map[graph.ArcID]bool
	// verdicts holds this endpoint's keep/drop per incident pick; a pick
	// commits only when BOTH endpoints kept it (every legal veto witness
	// is adjacent to at least one endpoint, so the AND catches vetoes
	// the other endpoint's side heard).
	verdicts map[graph.ArcID]verdict
	paints   []msg.Paint // finalizations + dead deltas to announce
	flushed  bool
}

type verdict struct {
	color int
	keep  bool
}

func newStrongNode(d *graph.Digraph, u, palette int, r *rng.Rand) *strongNode {
	g := d.Under()
	n := &strongNode{
		id: u, d: d, g: g, palette: palette, r: r,
		colors:    make(map[graph.ArcID]int),
		remaining: 2 * g.Degree(u),
		dead:      make(map[int]bool),
		deadNbr:   make([]map[int]bool, g.Degree(u)),
		nbrIndex:  make(map[int]int, g.Degree(u)),
		announced: make(map[int]bool),
	}
	for i, v := range g.Neighbors(u) {
		n.deadNbr[i] = make(map[int]bool)
		n.nbrIndex[v] = i
	}
	n.uncoloredOut = append(n.uncoloredOut, d.OutArcs(u)...)
	return n
}

func (n *strongNode) ID() int { return n.id }

func (n *strongNode) Done() bool {
	return n.remaining == 0 && len(n.paints) == 0 && len(n.deadQueue) == 0 && n.flushed
}

func (n *strongNode) Step(round int, inbox []msg.Message) []msg.Message {
	switch round % strongPhases {
	case 0:
		return n.phasePick(inbox)
	case 1:
		return n.phaseRelay(inbox)
	case 2:
		return n.phaseVeto(inbox)
	default:
		return n.phaseVerdict(inbox)
	}
}

// phasePick finalizes the previous round's picks from the two verdict
// streams, applies announced finalizations/dead-lists, and broadcasts a
// tentative channel for each owned uncolored arc.
func (n *strongNode) phasePick(inbox []msg.Message) []msg.Message {
	partner := map[graph.ArcID]bool{}
	for _, m := range inbox {
		switch m.Kind {
		case msg.KindDecide:
			if m.Keep {
				partner[graph.ArcID(m.Edge)] = true
			}
		case msg.KindUpdate:
			for _, p := range m.Paints() {
				if p.Edge >= 0 {
					n.applyFinal(graph.ArcID(p.Edge), int(p.Color), int(m.From))
				} else if i, ok := n.nbrIndex[int(m.From)]; ok {
					n.deadNbr[i][int(p.Color)] = true
				}
			}
		}
	}
	// Commit picks both endpoints kept; queue the announcement.
	arcs := make([]graph.ArcID, 0, len(n.verdicts))
	for a := range n.verdicts {
		arcs = append(arcs, a)
	}
	sortArcIDs(arcs)
	for _, a := range arcs {
		v := n.verdicts[a]
		if v.keep && partner[a] {
			if _, dup := n.colors[a]; !dup {
				n.applyFinal(a, v.color, n.id)
				n.paints = append(n.paints, msg.Paint{Edge: int32(a), Color: int32(v.color)})
			}
		}
	}
	n.verdicts = nil
	if n.remaining == 0 {
		n.flushed = len(n.paints) == 0 && len(n.deadQueue) == 0
	}
	n.picks = make(map[graph.ArcID]int, len(n.uncoloredOut))
	n.heardPicks = nil
	var out []msg.Message
	for _, a := range n.uncoloredOut {
		v := n.d.ArcAt(a).To
		nv := n.deadNbr[n.nbrIndex[v]]
		var avail []int
		for c := 0; c < n.palette; c++ {
			if !n.dead[c] && !nv[c] {
				avail = append(avail, c)
			}
		}
		if len(avail) == 0 {
			continue // relayed dead-lists over-approximate; retry later
		}
		c := avail[n.r.Intn(len(avail))]
		n.picks[a] = c
		out = append(out, msg.Message{
			Kind: msg.KindClaim, From: int32(n.id), To: msg.Broadcast, Edge: int32(a), Color: int32(c),
		})
	}
	return out
}

// phaseRelay: heads rebroadcast picks for their incoming arcs so every
// vertex adjacent to either endpoint can witness conflicts.
func (n *strongNode) phaseRelay(inbox []msg.Message) []msg.Message {
	var out []msg.Message
	for _, m := range inbox {
		if m.Kind != msg.KindClaim {
			continue
		}
		n.heardPicks = append(n.heardPicks, m)
		if n.d.ArcAt(graph.ArcID(m.Edge)).To == n.id {
			out = append(out, msg.Message{
				Kind: msg.KindClaim, From: int32(n.id), To: msg.Broadcast, Edge: m.Edge, Color: m.Color,
			})
		}
	}
	return out
}

// phaseVeto: with all picks visible (own + heard + relayed), this vertex
// vetoes the conflicts it can witness soundly:
//
//   - same-channel pick collisions involving one of its incident arcs
//     (every pick heard here has an endpoint in this vertex's closed
//     neighborhood, so the collision is a genuine distance-2 conflict);
//   - a pick on an incident arc whose channel is dead here (the dead set
//     holds exactly the channels of finalized arcs with an endpoint in
//     this vertex's closed neighborhood — all conflicting);
//   - any heard pick whose channel is used by one of this vertex's own
//     finalized arcs (this vertex is adjacent to the pick's endpoint, so
//     its own arcs conflict with the pick). The broader dead set must
//     NOT be used for non-incident picks: those channels may belong to
//     arcs two hops from the pick, and over-vetoing them forever would
//     livelock legitimate picks.
func (n *strongNode) phaseVeto(inbox []msg.Message) []msg.Message {
	for _, m := range inbox {
		if m.Kind == msg.KindClaim {
			n.heardPicks = append(n.heardPicks, m)
		}
	}
	ownChannels := map[int]bool{}
	for _, c := range n.colors {
		ownChannels[c] = true
	}
	// Dedup picks by arc (a pick may arrive via owner and relays).
	chanCount := map[int]int{}
	pickOf := map[graph.ArcID]int{}
	for a, c := range n.picks {
		pickOf[a] = c
	}
	for _, m := range n.heardPicks {
		pickOf[graph.ArcID(m.Edge)] = int(m.Color)
	}
	for _, c := range pickOf {
		chanCount[c]++
	}
	n.selfVeto = make(map[graph.ArcID]bool)
	n.verdicts = make(map[graph.ArcID]verdict)
	var out []msg.Message
	arcs := make([]graph.ArcID, 0, len(pickOf))
	for a := range pickOf {
		arcs = append(arcs, a)
	}
	sortArcIDs(arcs)
	for _, a := range arcs {
		c := pickOf[a]
		arc := n.d.ArcAt(a)
		incident := arc.From == n.id || arc.To == n.id
		if incident {
			// Remember incident picks: this endpoint issues a verdict
			// for each at the next phase.
			n.verdicts[a] = verdict{color: c, keep: true}
		}
		bad := ownChannels[c] ||
			(incident && (chanCount[c] > 1 || n.dead[c]))
		if bad {
			n.selfVeto[a] = true
			out = append(out, msg.Message{
				Kind: msg.KindDecide, From: int32(n.id), To: msg.Broadcast, Edge: int32(a), Color: int32(c), Keep: false,
			})
		}
	}
	return out
}

func sortArcIDs(s []graph.ArcID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// phaseVerdict folds the vetoes into this endpoint's keep/drop verdict
// for each incident pick and broadcasts the verdicts, together with the
// previous round's finalization announcements and dead-list deltas.
func (n *strongNode) phaseVerdict(inbox []msg.Message) []msg.Message {
	vetoed := map[graph.ArcID]bool{}
	for _, m := range inbox {
		if m.Kind == msg.KindDecide && !m.Keep {
			vetoed[graph.ArcID(m.Edge)] = true
		}
	}
	var out []msg.Message
	arcs := make([]graph.ArcID, 0, len(n.verdicts))
	for a := range n.verdicts {
		arcs = append(arcs, a)
	}
	sortArcIDs(arcs)
	for _, a := range arcs {
		v := n.verdicts[a]
		v.keep = !vetoed[a] && !n.selfVeto[a]
		n.verdicts[a] = v
		out = append(out, msg.Message{
			Kind: msg.KindDecide, From: int32(n.id), To: msg.Broadcast,
			Edge: int32(a), Color: int32(v.color), Keep: v.keep,
		})
	}
	n.picks = nil
	n.heardPicks = nil
	n.selfVeto = nil
	paints := n.paints
	n.paints = nil
	for _, c := range n.deadQueue {
		paints = append(paints, msg.Paint{Edge: -1, Color: int32(c)})
	}
	n.deadQueue = nil
	if len(paints) > 0 {
		m := msg.Message{Kind: msg.KindUpdate, From: int32(n.id), To: msg.Broadcast, Edge: -1, Color: -1}
		m.SetPaints(paints)
		out = append(out, m)
	}
	return out
}

// applyFinal records a finalized arc channel and updates dead lists.
func (n *strongNode) applyFinal(a graph.ArcID, c, from int) {
	arc := n.d.ArcAt(a)
	incident := arc.From == n.id || arc.To == n.id
	if incident {
		if _, dup := n.colors[a]; dup {
			return
		}
		n.colors[a] = c
		n.remaining--
		if arc.From == n.id {
			for i, id := range n.uncoloredOut {
				if id == a {
					n.uncoloredOut[i] = n.uncoloredOut[len(n.uncoloredOut)-1]
					n.uncoloredOut = n.uncoloredOut[:len(n.uncoloredOut)-1]
					break
				}
			}
		}
	}
	// Any finalized arc heard here has an endpoint adjacent to (or equal
	// to) this vertex, so its channel conflicts with every arc incident
	// here: mark it dead and queue the dead-list delta for neighbors.
	n.markDead(c)
}

func (n *strongNode) markDead(c int) {
	if n.dead[c] {
		return
	}
	n.dead[c] = true
	if !n.announced[c] {
		n.announced[c] = true
		n.deadQueue = append(n.deadQueue, c)
	}
}
