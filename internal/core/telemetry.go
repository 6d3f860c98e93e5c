package core

import (
	"dima/internal/metrics"
	"dima/internal/msg"
	"dima/internal/net"
)

// event is one kind of protocol event a node records in its nodeEvents.
type event int

const (
	// Run events: summed over the run into the Result, and per
	// computation round into RoundStats.
	evReject     event = iota // responder-side defensive rejection
	evDrop                    // Algorithm 2 claim withdrawn by the confirm exchange
	evRetransmit              // recovery: Response re-sent or answered from committed state
	evRepair                  // recovery: assignment adopted from the partner's state
	evRevert                  // recovery: one-sided assignment undone
	evProbe                   // recovery: status query for a stalled arc
	// Round events: recorded per computation round only.
	evActive // started the round with uncolored work
	evInvite // the C-state coin made it an inviter
	evListen // the C-state coin made it a listener
	evPaired // a negotiation attributed to the round colored an item
	numEvents
)

// numRunEvents is the number of run events, which come first.
const numRunEvents = evActive

// assignment is one item (edge or arc) receiving a color.
type assignment struct {
	item, color int
}

// roundEvents is one computation round's share of a node's events: the
// event counts and the items colored through negotiations attributed
// to the round.
type roundEvents struct {
	n       [numEvents]int32
	assigns []assignment
}

// nodeEvents is a node's one record of its protocol events, which lives
// on the run's board. The run totals are always kept. With
// Options.Metrics the node also keeps rec, two roundEvents: computation
// round r lives in rec[r&1], so a round's slot is reused two rounds
// later, after the round fold has read it. Only the owning node mutates
// the record, so no engine needs synchronization.
type nodeEvents struct {
	rec   *[2]roundEvents // first: Step reads it every round
	total *[numRunEvents]int
	// dirty marks a write to total or rec, and recolored an assign, since
	// the last state blob (cluster.go); only node processes clear them.
	dirty, recolored bool
}

// add records one event of kind k in computation round r. Events that
// belong to a negotiation (drops) are attributed to the round it formed
// in, at most one round back; all others to the round they happened in.
func (e *nodeEvents) add(k event, r int) {
	if k < numRunEvents {
		e.total[k]++
		e.dirty = true
	}
	if e.rec != nil {
		e.rec[r&1].n[k]++
		e.dirty = true
	}
}

// assign records item receiving color through a negotiation attributed
// to round r — for Algorithm 2 the round the claim formed in. The node
// counts as paired in r at most once, and only if it was active in r: a
// recovery repair by a finished or lingering node colors an item without
// a pairing event, which keeps Paired <= Active.
func (e *nodeEvents) assign(r, item, color int) {
	e.recolored = true
	if e.rec == nil {
		return
	}
	e.dirty = true
	s := &e.rec[r&1]
	s.assigns = append(s.assigns, assignment{item: item, color: color})
	if s.n[evActive] > 0 {
		s.n[evPaired] = 1
	}
}

// addEvents adds a node's run totals to the Result.
func (res *Result) addEvents(total *[numRunEvents]int) {
	fields := [numRunEvents]*int{&res.DefensiveRejects, &res.ConflictsDropped,
		&res.Retransmits, &res.Repairs, &res.Reverts, &res.Probes}
	for k, v := range total {
		*fields[k] += v
	}
}

// roundFold turns the engine's per-communication-round traffic and the
// event records on the run's board into one metrics.RoundStats per
// computation round, emitted in round order during the run: round r at
// the barrier that closes round r+1, because Algorithm 2 credits drops
// and assignments to the round its claim formed in, one round back.
//
// Invariants (tested in telemetry_test.go, reliable and under
// recovery): summing Messages, Deliveries, Bytes and the six run-event
// fields over the stream reproduces the corresponding Result
// aggregates; Paired <= Active and Inviters + Listeners == Active in
// every round; ColoredTotal of the last round is the number of colored
// items.
type roundFold struct {
	sink   metrics.Sink
	recs   [][2]roundEvents // the board's, one per vertex
	phases int
	stats  [2]metrics.RoundStats // computation round r's traffic in stats[r&1]
	next   int                   // the next computation round to emit

	// Palette and colored counts over the emitted rounds. Both endpoints
	// record an assignment for the same item, so distinctness is tracked
	// per item.
	seen         []bool
	palette      palette
	maxColor     int
	coloredTotal int
}

// newRoundFold returns the fold of a run on board b over items items
// that streams to sink.
func newRoundFold(sink metrics.Sink, b *board, phases, items int) *roundFold {
	return &roundFold{sink: sink, recs: b.recs, phases: phases, seen: make([]bool, items),
		palette: palette{limit: items}, maxColor: -1}
}

// observe is the run's net.RoundObserver: it folds one communication
// round's traffic into its computation round and, at the barrier that
// closes computation round r+1, emits round r.
func (f *roundFold) observe(rt net.RoundTraffic) {
	r, phase := rt.Round/f.phases, rt.Round%f.phases
	s := &f.stats[r&1]
	if phase == 0 {
		*s = metrics.RoundStats{Round: r}
	}
	s.CommRounds++
	s.Messages += rt.Messages
	s.Deliveries += rt.Deliveries
	s.Bytes += rt.Bytes
	for k, kt := range rt.Kinds {
		if kt.Messages == 0 && kt.Deliveries == 0 {
			continue
		}
		if s.ByKind == nil {
			s.ByKind = make(map[string]metrics.Traffic)
		}
		name := msg.Kind(k).String()
		t := s.ByKind[name]
		t.Messages += kt.Messages
		t.Deliveries += kt.Deliveries
		t.Bytes += kt.Bytes
		s.ByKind[name] = t
	}
	if phase == f.phases-1 && r > 0 {
		f.emit(r - 1)
	}
}

// flush emits the rounds still pending after a run of compRounds
// computation rounds: the last one, and the one before it when the run
// stopped inside the last.
func (f *roundFold) flush(compRounds int) {
	for f.next < compRounds {
		f.emit(f.next)
	}
}

// emit sums the records of round r onto its traffic and sends the
// round to the sink.
func (f *roundFold) emit(r int) {
	s := &f.stats[r&1]
	fields := [numEvents]*int{&s.DefensiveRejects, &s.ConflictsDropped, &s.Retransmits,
		&s.Repairs, &s.Reverts, &s.Probes, &s.Active, &s.Inviters, &s.Listeners, &s.Paired}
	for i := range f.recs {
		rec := &f.recs[i][r&1]
		for k, v := range rec.n {
			*fields[k] += int(v)
		}
		for _, a := range rec.assigns {
			if !f.seen[a.item] {
				f.seen[a.item] = true
				s.Colored++
			}
			f.palette.add(a.color)
			f.maxColor = max(f.maxColor, a.color)
		}
	}
	f.coloredTotal += s.Colored
	s.ColoredTotal = f.coloredTotal
	s.NumColors = f.palette.count()
	s.MaxColor = f.maxColor
	s.Done = len(f.recs) - s.Active
	f.sink.EmitRound(*s)
	f.next = r + 1
}
