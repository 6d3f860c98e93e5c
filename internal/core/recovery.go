package core

import (
	"sort"

	"dima/internal/graph"
	"dima/internal/msg"
)

// This file holds the pieces of the loss-recovery extension shared by
// both algorithms. The protocol itself is documented in
// docs/ROBUSTNESS.md; in short, recovery adds three mechanisms on top of
// the paper's reliable-delivery design:
//
//   - implicit acknowledgements: a node that committed one side of an
//     assignment watches for its partner's next broadcast naming the
//     edge, and retransmits its Response (bounded by Options.Recovery's
//     timeout and budget) until it sees one;
//   - authoritative re-responses: an invitation (or probe) for an item
//     the receiver has already colored is answered with the committed
//     color instead of being defensively rejected, letting the lagging
//     endpoint adopt it;
//   - negative acknowledgements: an endpoint that cannot adopt a
//     partner's committed color (it conflicts with its own state) sends
//     a KindAck with Keep == false, and the partner reverts its
//     one-sided assignment so the edge renegotiates from scratch.
//
// All recovery decisions are functions of (own state, sorted inbox, own
// RNG), so faulty runs stay deterministic and engine-independent.

// ecPending tracks one responder-side assignment awaiting its implicit
// acknowledgement (the partner's paint broadcast naming the edge).
type ecPending struct {
	color   int
	partner int
	age     int // computation rounds since the last (re)transmission
	tries   int // retransmissions sent
}

// ackMsg builds a KindAck. keep == true acknowledges edge/color as
// settled; keep == false with color >= 0 demands a revert; keep == false
// with color == -1 is a status probe.
func ackMsg(from, to, edge, color int, keep bool) msg.Message {
	return msg.Message{Kind: msg.KindAck, From: from, To: to, Edge: edge, Color: color, Keep: keep}
}

// sortedEdgeKeys returns the map's keys in ascending order, so recovery
// loops iterate deterministically under every engine.
func sortedEdgeKeys(m map[graph.EdgeID]*ecPending) []graph.EdgeID {
	keys := make([]graph.EdgeID, 0, len(m))
	for e := range m {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
