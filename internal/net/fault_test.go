package net

import (
	"math"
	"testing"

	"dima/internal/msg"
)

func TestDropRateExtremes(t *testing.T) {
	m := msg.Message{From: 1}
	if (DropRate{Seed: 1, P: 0}).Drop(0, m, 2) {
		t.Fatal("P=0 dropped")
	}
	if !(DropRate{Seed: 1, P: 1}).Drop(0, m, 2) {
		t.Fatal("P=1 delivered")
	}
}

func TestDropRateStatistics(t *testing.T) {
	d := DropRate{Seed: 7, P: 0.3}
	dropped := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		m := msg.Message{Kind: msg.KindInvite, From: int32(i % 50), Edge: int32(i)}
		if d.Drop(i%97, m, (i+1)%50) {
			dropped++
		}
	}
	rate := float64(dropped) / trials
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("drop rate %.3f, want ~0.3", rate)
	}
}

func TestDropRateDeterministic(t *testing.T) {
	d := DropRate{Seed: 9, P: 0.5}
	m := msg.Message{Kind: msg.KindClaim, From: 3, Edge: 12}
	first := d.Drop(4, m, 8)
	for i := 0; i < 10; i++ {
		if d.Drop(4, m, 8) != first {
			t.Fatal("DropRate not deterministic")
		}
	}
}

// The bit-packed key of the old hash aliased (From=1, To=0) with
// (From=0, To=2^20) — and generally any ids >= 2^20 — silently
// correlating drops between unrelated deliveries. With per-field mixing
// the two streams must disagree somewhere.
func TestDropRateNoLargeIDAliasing(t *testing.T) {
	d := DropRate{Seed: 11, P: 0.5}
	aliased := 0
	const trials = 512
	for round := 0; round < trials; round++ {
		a := d.Drop(round, msg.Message{Kind: msg.KindInvite, From: 1, Edge: 3}, 0)
		b := d.Drop(round, msg.Message{Kind: msg.KindInvite, From: 0, Edge: 3}, 1<<20)
		if a == b {
			aliased++
		}
	}
	if aliased == trials {
		t.Fatal("large-id deliveries fully correlated with small-id deliveries")
	}
	// Rounds beyond 2^24 used to shift into the From/To bits; they too
	// must produce independent decisions.
	same := 0
	for i := 0; i < trials; i++ {
		a := d.Drop(i, msg.Message{Kind: msg.KindInvite, From: 2, Edge: 5}, 3)
		b := d.Drop(i+1<<24, msg.Message{Kind: msg.KindInvite, From: 2, Edge: 5}, 3)
		if a == b {
			same++
		}
	}
	if same == trials {
		t.Fatal("high-round deliveries fully correlated with low-round deliveries")
	}
}

// A retransmission (Seq > 0) must face an independent drop decision:
// if the original's fate determined the retry's, a dropped message
// would be dropped forever and the recovery layer could never converge.
func TestDropRateSeqIndependence(t *testing.T) {
	d := DropRate{Seed: 13, P: 0.5}
	differ := false
	for round := 0; round < 256 && !differ; round++ {
		m := msg.Message{Kind: msg.KindResponse, From: 4, To: 7, Edge: 9}
		r := m
		r.Seq = 1
		differ = d.Drop(round, m, 7) != d.Drop(round, r, 7)
	}
	if !differ {
		t.Fatal("retransmissions share the original's drop decisions")
	}
}

func TestDropLink(t *testing.T) {
	d := DropLink{From: 2, To: 5}
	if !d.Drop(0, msg.Message{From: 2}, 5) {
		t.Fatal("target link delivered")
	}
	if d.Drop(0, msg.Message{From: 5}, 2) {
		t.Fatal("reverse link dropped")
	}
	if d.Drop(0, msg.Message{From: 2}, 6) {
		t.Fatal("other link dropped")
	}
}

func TestBlackout(t *testing.T) {
	b := Blackout{FromRound: 3, ToRound: 6}
	m := msg.Message{From: 0}
	for round, want := range map[int]bool{2: false, 3: true, 5: true, 6: false} {
		if b.Drop(round, m, 1) != want {
			t.Fatalf("round %d: drop = %v", round, !want)
		}
	}
}

func TestPartition(t *testing.T) {
	p := Partition{Side: []bool{true, true, false, false}}
	if !p.Drop(0, msg.Message{From: 0}, 2) {
		t.Fatal("cross-cut delivered")
	}
	if p.Drop(0, msg.Message{From: 0}, 1) {
		t.Fatal("same-side dropped")
	}
	if p.Drop(0, msg.Message{From: 2}, 3) {
		t.Fatal("same-side dropped")
	}
	// Out-of-range ids are passed through.
	if p.Drop(0, msg.Message{From: 9}, 1) {
		t.Fatal("out-of-range dropped")
	}
}

func TestFaultsChain(t *testing.T) {
	fs := Faults{DropLink{From: 0, To: 1}, Blackout{FromRound: 5, ToRound: 6}}
	if !fs.Drop(0, msg.Message{From: 0}, 1) {
		t.Fatal("first injector ignored")
	}
	if !fs.Drop(5, msg.Message{From: 3}, 2) {
		t.Fatal("second injector ignored")
	}
	if fs.Drop(0, msg.Message{From: 3}, 2) {
		t.Fatal("clean delivery dropped")
	}
	if (Faults{}).Drop(0, msg.Message{}, 0) {
		t.Fatal("empty chain dropped")
	}
}
