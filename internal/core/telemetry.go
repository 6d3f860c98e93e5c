package core

import (
	"dima/internal/metrics"
	"dima/internal/msg"
	"dima/internal/net"
)

// nodeRoundEvents counts one node's protocol events in one computation
// round. Events that belong to a negotiation (paired, dropped) are
// attributed to the round the negotiation *started* in, so the stream
// lines up with Result.Participation; defensive rejects are attributed
// to the round they were detected in.
type nodeRoundEvents struct {
	active, invited, listened int
	paired, rejects, dropped  int
	// Recovery-layer activity (Options.Recovery; see recovery.go),
	// attributed to the round it was detected in.
	retransmits, repairs, reverts, probes int
}

// assignEvent is one item (edge or arc) receiving a color, attributed
// to the computation round its pairing formed in.
type assignEvent struct {
	round, item, color int
}

// nodeTelemetry is a node's private event log. Only the owning node
// mutates it (node goroutines never share state), so no synchronization
// is needed under any engine; the logs are folded into per-round
// stats after the run completes.
type nodeTelemetry struct {
	rounds  []nodeRoundEvents
	assigns []assignEvent
}

// at returns the event record for a computation round, growing the log
// as needed.
func (t *nodeTelemetry) at(round int) *nodeRoundEvents {
	for len(t.rounds) <= round {
		t.rounds = append(t.rounds, nodeRoundEvents{})
	}
	return &t.rounds[round]
}

// emitRoundStats folds the engine's per-communication-round traffic and
// the nodes' private event logs into one metrics.RoundStats per
// computation round, emitted to the sink in round order.
//
// Invariants (tested in telemetry_test.go): summing Messages,
// Deliveries, Bytes, ConflictsDropped, and DefensiveRejects over the
// stream reproduces the corresponding Result aggregates; Active and
// Paired match Result.Participation; ColoredTotal of the last round is
// the number of colored items.
func emitRoundStats(sink metrics.Sink, traffic []net.RoundTraffic, tels []*nodeTelemetry, phases, items, nNodes int) {
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
	assignsByRound := make([][]assignEvent, compRounds)
	for _, tel := range tels {
		for r, ev := range tel.rounds {
			s := &stats[clamp(r)]
			s.Active += ev.active
			s.Inviters += ev.invited
			s.Listeners += ev.listened
			s.Paired += ev.paired
			s.DefensiveRejects += ev.rejects
			s.ConflictsDropped += ev.dropped
			s.Retransmits += ev.retransmits
			s.Repairs += ev.repairs
			s.Reverts += ev.reverts
			s.Probes += ev.probes
		}
		for _, a := range tel.assigns {
			r := clamp(a.round)
			assignsByRound[r] = append(assignsByRound[r], a)
		}
	}
	// Palette growth and colored counts, walked in round order. Both
	// endpoints log an assignment for the same item, so distinctness is
	// tracked per item.
	seen := make([]bool, items)
	var palette ColorSet
	maxColor, coloredTotal := -1, 0
	for r := range stats {
		s := &stats[r]
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
		s.Done = nNodes - s.Active
		sink.EmitRound(*s)
	}
}
