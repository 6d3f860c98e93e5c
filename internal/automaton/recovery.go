package automaton

import "dima/internal/msg"

// Recovery configures the optional loss-recovery extension of the
// automaton and of the protocols built on it. The paper's model assumes
// reliable synchronous delivery; under injected faults (package net) a
// lost Response strands a negotiation half-committed. With recovery
// enabled, a node that committed state on the strength of a message
// retransmits it — bounded by RecoveryTimeout and RecoveryBudget — and peers
// answer authoritatively from their committed state instead of
// defensively rejecting, so transient loss delays convergence instead of
// corrupting it.
//
// The zero value disables recovery, which keeps every protocol's
// behavior — message streams, RNG consumption, results — byte-identical
// to the reliable-delivery implementation.
type Recovery struct {
	// Enabled turns the recovery protocol on.
	Enabled bool
}

const (
	// RecoveryTimeout is how many computation rounds a recovering node
	// waits for an expected message before retransmitting.
	RecoveryTimeout = 2
	// RecoveryBudget bounds retransmissions per negotiation. After the
	// budget is spent the node abandons the exchange and falls back to
	// the normal protocol, which may still repair the edge through a
	// fresh negotiation.
	RecoveryBudget = 8
)

// Reaffirmer is an optional Pairing extension consulted when recovery is
// enabled. A node that receives an invitation for an edge it has already
// committed cannot use the normal Respond path — it is no longer live —
// but silence would leave the inviter retrying forever. Reaffirm lets
// the pairing answer from committed state: typically a re-sent Response
// when the invitation's edge is the one it matched (its original
// Response was lost in transit), or a re-announcement of its actual
// match so the inviter stops waiting. The driver fills in From and
// mirrors the invitation's Seq before broadcasting.
//
// Reaffirm must return ok == false for invitations the normal protocol
// should handle (the pairing is still live and uncommitted).
type Reaffirmer interface {
	Reaffirm(invite msg.Message) (m msg.Message, ok bool)
}
