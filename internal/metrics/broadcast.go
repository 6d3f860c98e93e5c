package metrics

import "sync"

// Event is one record on a broadcast stream: a per-round RoundStats, a
// mutation-repair report, a job status transition, or a synthetic
// "dropped" marker standing in for events a slow subscriber missed.
//
// Seq is a per-sink monotonically increasing sequence number assigned
// at publish time; subscribers use it to deduplicate a replayed prefix
// against the live channel. Synthetic dropped markers carry Seq 0 —
// they are per-subscriber, not part of the published stream.
type Event struct {
	Seq  uint64 `json:"seq,omitempty"`
	Type string `json:"type"`
	Data any    `json:"data,omitempty"`
}

// The event types the serving layer publishes. BroadcastSink itself
// treats types as opaque strings; these constants just keep the
// producers and the SSE schema (docs/OBSERVABILITY.md) in one place.
const (
	// EventRound carries one RoundStats (EmitRound).
	EventRound = "round"
	// EventMutation carries one mutation-batch repair report.
	EventMutation = "mutation"
	// EventMaintenance carries one dynamic.MaintainReport when a
	// maintenance pass (compaction / palette rebalance) runs between
	// mutation batches.
	EventMaintenance = "maintenance"
	// EventStatus carries a job status snapshot at a lifecycle
	// transition (queued, running, done, failed, canceled).
	EventStatus = "status"
	// EventDropped is the synthetic marker a subscriber receives in
	// place of events it was too slow to consume; Data is the count of
	// missed events since the last one it saw.
	EventDropped = "dropped"
)

// Subscription is one subscriber's bounded view of a BroadcastSink.
// Events arrives on Events(); when the subscriber falls behind, events
// are dropped (never buffered without bound, never blocking the
// publisher) and the gap is reported in-band as an EventDropped marker
// once the subscriber catches up.
type Subscription struct {
	b  *BroadcastSink
	ch chan Event

	// Guarded by b.mu.
	dropped  uint64
	canceled bool
}

// Events returns the subscription's channel. It is closed by Cancel and
// by BroadcastSink.Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Cancel releases the subscription and closes its channel. Safe to call
// more than once and after the sink is closed.
func (s *Subscription) Cancel() {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	if s.canceled {
		return
	}
	s.canceled = true
	delete(s.b.subs, s)
	close(s.ch)
}

// BroadcastSink is a bounded fan-out for telemetry events: publishers
// (the engine's RoundStats emission, the serving layer's status and
// mutation reports) never block and never allocate per subscriber
// beyond a channel send, so attaching one to a run cannot perturb it —
// the engine-determinism property tested in core.
//
// Each subscriber gets its own bounded channel; when it is full the
// event is counted as dropped for that subscriber and a synthetic
// EventDropped marker is delivered once there is room again. The sink
// also retains a bounded replay log of the most recent events so a late
// subscriber (an SSE client attaching to a finished job) can catch up;
// Replay plus Seq-deduplication against the live channel gives a
// gap-free hand-off.
//
// It implements Sink, so it composes with Memory/JSONL via Multi.
type BroadcastSink struct {
	mu       sync.Mutex
	seq      uint64
	keep     int
	log      []Event // retained suffix of the published stream
	subs     map[*Subscription]struct{}
	closed   bool
	droppedN int64
	dropCtr  *Counter // optional external counter
}

// NewBroadcastSink returns a sink retaining at least the keep most
// recent events for replay (0 or negative means 1024).
func NewBroadcastSink(keep int) *BroadcastSink {
	if keep <= 0 {
		keep = 1024
	}
	return &BroadcastSink{keep: keep, subs: make(map[*Subscription]struct{})}
}

// SetDropCounter registers a counter (typically from a Registry) that
// is incremented once per event dropped for any subscriber, in addition
// to the sink's own DroppedTotal.
func (b *BroadcastSink) SetDropCounter(c *Counter) {
	b.mu.Lock()
	b.dropCtr = c
	b.mu.Unlock()
}

// EmitRound publishes one RoundStats as an EventRound, making the sink
// attachable to a run via core.Options.Metrics.
func (b *BroadcastSink) EmitRound(rs RoundStats) { b.Publish(EventRound, rs) }

// Publish appends an event to the stream and fans it out to every
// subscriber without blocking. Data must be treated as immutable by
// all parties once published. Publishing on a closed sink is a no-op.
func (b *BroadcastSink) Publish(typ string, data any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.seq++
	ev := Event{Seq: b.seq, Type: typ, Data: data}
	b.log = append(b.log, ev)
	if len(b.log) > 2*b.keep {
		// Amortized O(1) trim: keep the newest half in a fresh array so
		// the old backing store is released.
		trimmed := make([]Event, b.keep, 2*b.keep)
		copy(trimmed, b.log[len(b.log)-b.keep:])
		b.log = trimmed
	}
	for sub := range b.subs {
		b.deliver(sub, ev)
	}
}

// deliver sends ev to one subscriber, preceded by a dropped marker when
// it has missed events. Caller holds b.mu.
func (b *BroadcastSink) deliver(sub *Subscription, ev Event) {
	if sub.dropped > 0 {
		select {
		case sub.ch <- Event{Type: EventDropped, Data: sub.dropped}:
			sub.dropped = 0
		default:
			// Still no room: this event is lost for the subscriber too.
			b.noteDrop(sub)
			return
		}
	}
	select {
	case sub.ch <- ev:
	default:
		b.noteDrop(sub)
	}
}

// noteDrop records one lost event for sub. Caller holds b.mu.
func (b *BroadcastSink) noteDrop(sub *Subscription) {
	sub.dropped++
	b.droppedN++
	if b.dropCtr != nil {
		b.dropCtr.Inc()
	}
}

// Subscribe registers a new subscriber with a channel buffer of buf
// events (0 or negative means 64). Subscribing to a closed sink returns
// a subscription whose channel is already closed.
func (b *BroadcastSink) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	sub := &Subscription{b: b, ch: make(chan Event, buf)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		sub.canceled = true
		close(sub.ch)
		return sub
	}
	b.subs[sub] = struct{}{}
	return sub
}

// Replay returns a copy of the retained event suffix in publish order.
// If the stream has outgrown the retention bound, the first returned
// event's Seq is greater than 1; callers surface the gap to their
// consumer (the SSE handler emits an EventDropped marker).
func (b *BroadcastSink) Replay() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.log...)
}

// DroppedTotal reports events dropped across all subscribers since the
// sink was created.
func (b *BroadcastSink) DroppedTotal() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.droppedN
}

// Seq reports the sequence number of the most recently published event
// (0 before the first).
func (b *BroadcastSink) Seq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Close closes every subscriber channel and drops further publishes.
func (b *BroadcastSink) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		sub.canceled = true
		close(sub.ch)
		delete(b.subs, sub)
	}
}
