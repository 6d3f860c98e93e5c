package net

import (
	"dima/internal/msg"
	"dima/internal/rng"
)

// Ready-made fault injectors for probing behavior outside the paper's
// reliable-delivery model. All are deterministic functions of their
// configuration, so faulty runs are as reproducible as clean ones.

// DropRate drops each delivery independently with probability P,
// deterministically derived from Seed, the round, the message, and the
// receiver.
type DropRate struct {
	Seed uint64
	P    float64
}

// Drop implements FaultInjector. Every field enters the hash through
// its own Mix64 step: packing round/From/To into one word would make
// node ids >= 2^20 (or very high rounds) alias and correlate drop
// decisions across unrelated deliveries. Seq participates so that a
// retransmission's fate is independent of the original transmission's.
func (d DropRate) Drop(round int, m msg.Message, to int) bool {
	if d.P <= 0 {
		return false
	}
	if d.P >= 1 {
		return true
	}
	h := rng.Mix64(d.Seed ^ rng.Mix64(uint64(round)))
	h = rng.Mix64(h ^ uint64(int64(m.From)))
	h = rng.Mix64(h ^ uint64(int64(to)))
	h = rng.Mix64(h ^ uint64(m.Kind)<<56 ^ uint64(m.Seq)<<32 ^ uint64(uint32(int32(m.Edge))))
	frac := float64(h>>11) / (1 << 53)
	return frac < d.P
}

// DropLink kills every delivery on one directed link.
type DropLink struct {
	From, To int
}

// Drop implements FaultInjector.
func (d DropLink) Drop(round int, m msg.Message, to int) bool {
	return int(m.From) == d.From && to == d.To
}

// Blackout drops every delivery during the round interval
// [FromRound, ToRound) — a transient network outage.
type Blackout struct {
	FromRound, ToRound int
}

// Drop implements FaultInjector.
func (b Blackout) Drop(round int, m msg.Message, to int) bool {
	return round >= b.FromRound && round < b.ToRound
}

// Partition drops every delivery crossing between the two sides of a
// vertex cut: side[v] == true vertices can only talk to each other.
type Partition struct {
	Side []bool
}

// Drop implements FaultInjector.
func (p Partition) Drop(round int, m msg.Message, to int) bool {
	if int(m.From) >= len(p.Side) || to >= len(p.Side) || m.From < 0 || to < 0 {
		return false
	}
	return p.Side[m.From] != p.Side[to]
}

// Faults chains injectors: a delivery is dropped if any member drops it.
type Faults []FaultInjector

// Drop implements FaultInjector.
func (fs Faults) Drop(round int, m msg.Message, to int) bool {
	for _, f := range fs {
		if f.Drop(round, m, to) {
			return true
		}
	}
	return false
}
