package msg

import "slices"

// Sort sorts msgs in place into the canonical Compare order. Engines
// sort each outbox a node returns with it, once per Step, so every
// inbox arrives sorted (see net.Node); it is a correct sort of any
// slice, such as an inbox rebuilt from several senders' outboxes.
func Sort(msgs []Message) {
	if len(msgs) > 1 {
		slices.SortFunc(msgs, Compare)
	}
}
