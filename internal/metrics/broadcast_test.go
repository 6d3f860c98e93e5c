package metrics

import (
	"testing"
)

// drain reads everything currently buffered on a subscription.
func drain(sub *Subscription) []Event {
	var out []Event
	for {
		select {
		case ev := <-sub.Events():
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestBroadcastDeliversInOrder(t *testing.T) {
	b := NewBroadcastSink(64)
	sub := b.Subscribe(16)
	defer sub.Cancel()
	for i := 0; i < 10; i++ {
		b.EmitRound(RoundStats{Round: i})
	}
	evs := drain(sub)
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Type != EventRound {
			t.Fatalf("event %d type %q", i, ev.Type)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq %d, want %d", i, ev.Seq, i+1)
		}
		rs, ok := ev.Data.(RoundStats)
		if !ok || rs.Round != i {
			t.Fatalf("event %d data %+v", i, ev.Data)
		}
	}
	if b.DroppedTotal() != 0 {
		t.Fatalf("dropped %d on a fast subscriber", b.DroppedTotal())
	}
}

// TestBroadcastSlowSubscriberDrops is the bounded fan-out contract: a
// subscriber that stops reading loses events (the publisher never
// blocks), the loss is counted, and the gap is reported in-band as one
// EventDropped marker once the subscriber drains.
func TestBroadcastSlowSubscriberDrops(t *testing.T) {
	b := NewBroadcastSink(64)
	ctr := &Counter{}
	b.SetDropCounter(ctr)
	sub := b.Subscribe(4) // room for 4, then it stalls

	for i := 0; i < 10; i++ {
		b.Publish(EventStatus, i)
	}
	// 4 buffered, 6 dropped.
	if got := b.DroppedTotal(); got != 6 {
		t.Fatalf("DroppedTotal %d, want 6", got)
	}
	if ctr.Value() != 6 {
		t.Fatalf("drop counter %d, want 6", ctr.Value())
	}

	evs := drain(sub)
	if len(evs) != 4 {
		t.Fatalf("buffered %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq %d (must be the oldest prefix)", i, ev.Seq)
		}
	}

	// The next publish delivers the dropped marker first, then the event.
	b.Publish(EventStatus, 10)
	evs = drain(sub)
	if len(evs) != 2 {
		t.Fatalf("after catch-up got %d events, want marker+event", len(evs))
	}
	if evs[0].Type != EventDropped || evs[0].Seq != 0 {
		t.Fatalf("first event %+v, want a seq-0 dropped marker", evs[0])
	}
	if n, ok := evs[0].Data.(uint64); !ok || n != 6 {
		t.Fatalf("dropped marker data %+v, want 6", evs[0].Data)
	}
	if evs[1].Type != EventStatus || evs[1].Seq != 11 {
		t.Fatalf("second event %+v, want seq-11 status", evs[1])
	}
}

// A full channel with pending drops loses the new event too (the marker
// could not be placed), and the count keeps accumulating.
func TestBroadcastMarkerBlockedKeepsCounting(t *testing.T) {
	b := NewBroadcastSink(64)
	sub := b.Subscribe(2)
	b.Publish(EventStatus, 0) // buffered (seq 1)
	b.Publish(EventStatus, 1) // buffered (seq 2): buffer now full
	b.Publish(EventStatus, 2) // dropped
	b.Publish(EventStatus, 3) // marker blocked; dropped too
	if got := b.DroppedTotal(); got != 2 {
		t.Fatalf("DroppedTotal %d, want 2", got)
	}
	evs := drain(sub)
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("buffered %+v, want seqs 1 and 2", evs)
	}
	b.Publish(EventStatus, 4)
	evs = drain(sub)
	if len(evs) != 2 || evs[0].Type != EventDropped || evs[0].Data.(uint64) != 2 {
		t.Fatalf("after room: %+v, want dropped(2)+event", evs)
	}
	if evs[1].Seq != 5 {
		t.Fatalf("resumed at seq %d, want 5", evs[1].Seq)
	}
}

func TestBroadcastReplayRetainsBoundedSuffix(t *testing.T) {
	b := NewBroadcastSink(8)
	for i := 0; i < 100; i++ {
		b.Publish(EventRound, i)
	}
	evs := b.Replay()
	if len(evs) < 8 {
		t.Fatalf("replay kept %d events, want at least 8", len(evs))
	}
	if len(evs) > 16 {
		t.Fatalf("replay kept %d events, want a bounded suffix (<= 2*keep)", len(evs))
	}
	// The suffix is contiguous and ends at the newest event.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("replay gap between %d and %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if last := evs[len(evs)-1].Seq; last != 100 {
		t.Fatalf("replay ends at seq %d, want 100", last)
	}
}

func TestBroadcastSubscribeReplayHandoffIsGapFree(t *testing.T) {
	b := NewBroadcastSink(1024)
	for i := 0; i < 50; i++ {
		b.Publish(EventRound, i)
	}
	// Subscribe first, then replay: anything published in between shows
	// up on both and is deduplicated by Seq, so the merged stream is
	// exactly 1..N.
	sub := b.Subscribe(128)
	defer sub.Cancel()
	b.Publish(EventRound, 50)
	replay := b.Replay()
	b.Publish(EventRound, 51)

	seen := make(map[uint64]bool)
	last := uint64(0)
	for _, ev := range replay {
		seen[ev.Seq] = true
		last = ev.Seq
	}
	for _, ev := range drain(sub) {
		if ev.Seq != 0 && ev.Seq <= last {
			continue // deduplicated, as the SSE handler does
		}
		if seen[ev.Seq] {
			t.Fatalf("seq %d delivered twice after dedup", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	for s := uint64(1); s <= 52; s++ {
		if !seen[s] {
			t.Fatalf("seq %d missing from merged stream", s)
		}
	}
}

func TestBroadcastCancelAndClose(t *testing.T) {
	b := NewBroadcastSink(8)
	s1 := b.Subscribe(4)
	s2 := b.Subscribe(4)
	s1.Cancel()
	s1.Cancel() // idempotent
	if _, ok := <-s1.Events(); ok {
		t.Fatal("canceled subscription channel still open")
	}
	b.Publish(EventStatus, "x")
	if len(drain(s2)) != 1 {
		t.Fatal("remaining subscriber missed the event")
	}
	b.Close()
	if _, ok := <-s2.Events(); ok {
		t.Fatal("closed sink left a subscriber channel open")
	}
	b.Publish(EventStatus, "y") // no-op, must not panic
	s2.Cancel()                 // after close, must not panic
	if sub := b.Subscribe(4); sub == nil {
		t.Fatal("subscribe on closed sink returned nil")
	} else if _, ok := <-sub.Events(); ok {
		t.Fatal("subscribe on closed sink returned an open channel")
	}
}
