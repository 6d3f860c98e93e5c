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
	// Round events: logged per computation round only.
	evActive // started the round with uncolored work
	evInvite // the C-state coin made it an inviter
	evListen // the C-state coin made it a listener
	evPaired // a negotiation attributed to the round colored an item
	numEvents
)

// numRunEvents is the number of run events, which come first.
const numRunEvents = evActive

// assignEvent is one item (edge or arc) receiving a color, attributed
// to the computation round its negotiation formed in.
type assignEvent struct {
	round, item, color int
}

// nodeEvents is a node's one record of its protocol events. The run
// totals are always kept; the per-computation-round log and the
// assignments only when log is set (Options.Metrics). Only the owning
// node mutates it, so no engine needs synchronization; the records are
// folded into the Result and the RoundStats stream after the run.
type nodeEvents struct {
	log     bool // first: Step reads it every round
	total   [numRunEvents]int
	rounds  [][numEvents]int
	assigns []assignEvent
}

// add records one event of kind k in computation round r. Events that
// belong to a negotiation (drops) are attributed to the round it formed
// in; all others to the round they happened in.
func (e *nodeEvents) add(k event, r int) {
	if k < numRunEvents {
		e.total[k]++
	}
	if e.log {
		e.at(r)[k]++
	}
}

// assign records item receiving color through a negotiation attributed
// to round r — for Algorithm 2 the round the claim formed in. The node
// counts as paired in r at most once, and only if it was active in r: a
// recovery repair by a finished or lingering node colors an item without
// a pairing event, which keeps Paired <= Active.
func (e *nodeEvents) assign(r, item, color int) {
	if !e.log {
		return
	}
	e.assigns = append(e.assigns, assignEvent{round: r, item: item, color: color})
	if ev := e.at(r); ev[evActive] > 0 {
		ev[evPaired] = 1
	}
}

// at returns the log entry of computation round r, growing the log as
// needed.
func (e *nodeEvents) at(r int) *[numEvents]int {
	for len(e.rounds) <= r {
		e.rounds = append(e.rounds, [numEvents]int{})
	}
	return &e.rounds[r]
}

// addEvents adds a node's run totals to the Result.
func (res *Result) addEvents(e *nodeEvents) {
	fields := [numRunEvents]*int{&res.DefensiveRejects, &res.ConflictsDropped,
		&res.Retransmits, &res.Repairs, &res.Reverts, &res.Probes}
	for k, v := range e.total {
		*fields[k] += v
	}
}

// emitRoundStats folds the engine's per-communication-round traffic and
// the nodes' event logs into one metrics.RoundStats per computation
// round, emitted to the sink in round order.
//
// Invariants (tested in telemetry_test.go, reliable and under
// recovery): summing Messages, Deliveries, Bytes and the six run-event
// fields over the stream reproduces the corresponding Result
// aggregates; Paired <= Active and Inviters + Listeners == Active in
// every round; ColoredTotal of the last round is the number of colored
// items.
func emitRoundStats(sink metrics.Sink, traffic []net.RoundTraffic, nodes []*colorNode, phases, items int) {
	compRounds := (len(traffic) + phases - 1) / phases
	if compRounds == 0 {
		return
	}
	stats := make([]metrics.RoundStats, compRounds)
	for i := range stats {
		stats[i].Round = i
	}
	// Traffic: each communication round folds into its computation round.
	for _, rt := range traffic {
		s := &stats[rt.Round/phases]
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
	}
	// Node events. A final truncated round can log events past the last
	// traffic-complete computation round; clamp rather than drop them.
	clamp := func(r int) int {
		if r >= compRounds {
			return compRounds - 1
		}
		return r
	}
	counts := make([][numEvents]int, compRounds)
	assignsByRound := make([][]assignEvent, compRounds)
	for _, n := range nodes {
		e := &n.ev
		for r, ev := range e.rounds {
			c := &counts[clamp(r)]
			for k, v := range ev {
				c[k] += v
			}
		}
		for _, a := range e.assigns {
			r := clamp(a.round)
			assignsByRound[r] = append(assignsByRound[r], a)
		}
	}
	// Event counts, palette growth and colored counts, walked in round
	// order. Both endpoints log an assignment for the same item, so
	// distinctness is tracked per item.
	seen := make([]bool, items)
	var palette ColorSet
	maxColor, coloredTotal := -1, 0
	for r := range stats {
		s := &stats[r]
		fields := [numEvents]*int{&s.DefensiveRejects, &s.ConflictsDropped, &s.Retransmits,
			&s.Repairs, &s.Reverts, &s.Probes, &s.Active, &s.Inviters, &s.Listeners, &s.Paired}
		for k, v := range counts[r] {
			*fields[k] = v
		}
		for _, a := range assignsByRound[r] {
			if !seen[a.item] {
				seen[a.item] = true
				s.Colored++
			}
			palette.Add(a.color)
			if a.color > maxColor {
				maxColor = a.color
			}
		}
		coloredTotal += s.Colored
		s.ColoredTotal = coloredTotal
		s.NumColors = palette.Count()
		s.MaxColor = maxColor
		s.Done = len(nodes) - s.Active
		sink.EmitRound(*s)
	}
}
