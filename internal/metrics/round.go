package metrics

import (
	"bufio"
	"encoding/json"
	"io"

	"dima/internal/automaton"
)

// Traffic aggregates message traffic: broadcasts sent, per-neighbor
// deliveries, and encoded bytes.
type Traffic struct {
	Messages   int64 `json:"messages"`
	Deliveries int64 `json:"deliveries"`
	Bytes      int64 `json:"bytes"`
}

// RoundStats is one computation round of a coloring run — the record a
// Sink receives once per round, in round order. Summed over all rounds,
// the traffic and conflict fields equal the end-of-run aggregates of
// core.Result, on every engine.
type RoundStats struct {
	// Round is the 0-based computation round.
	Round int `json:"round"`
	// CommRounds is the number of communication rounds this computation
	// round spanned (the algorithm's phase count, fewer on a truncated
	// final round).
	CommRounds int `json:"comm_rounds"`

	// Active counts nodes that still had uncolored work at the start of
	// the round; Inviters and Listeners split it by the C-state coin
	// (automaton states I and L). Done counts the rest.
	Active    int `json:"active"`
	Inviters  int `json:"inviters"`
	Listeners int `json:"listeners"`
	Done      int `json:"done"`
	// Paired counts active nodes whose negotiation this round produced a
	// coloring (Proposition 1's per-round pairing event). Paired <= Active.
	Paired int `json:"paired"`

	// Colored is the number of edges/arcs newly colored by pairings
	// formed this round; ColoredTotal accumulates it.
	Colored      int `json:"colored"`
	ColoredTotal int `json:"colored_total"`
	// NumColors and MaxColor track palette growth: distinct colors and
	// the largest color index in use by the end of this round.
	NumColors int `json:"num_colors"`
	MaxColor  int `json:"max_color"`

	// ConflictsDropped counts tentative claims withdrawn by Algorithm 2's
	// confirm exchange for pairings formed this round (always 0 for
	// Algorithm 1); DefensiveRejects counts responder-side validity
	// rejections observed this round.
	ConflictsDropped int `json:"conflicts_dropped,omitempty"`
	DefensiveRejects int `json:"defensive_rejects,omitempty"`

	// Recovery-layer activity observed this round (all zero unless the
	// run enables core.Options.Recovery): retransmissions after an
	// acknowledgement timeout, assignments repaired from a partner's
	// authoritative state, one-sided assignments reverted by a negative
	// acknowledgement, and status probes for stalled items.
	Retransmits int `json:"retransmits,omitempty"`
	Repairs     int `json:"repairs,omitempty"`
	Reverts     int `json:"reverts,omitempty"`
	Probes      int `json:"probes,omitempty"`

	// Messages, Deliveries, and Bytes are the round's traffic totals;
	// ByKind splits them by wire message kind (invite, response, claim,
	// decide, update), omitting kinds with no traffic.
	Messages   int64              `json:"messages"`
	Deliveries int64              `json:"deliveries"`
	Bytes      int64              `json:"bytes"`
	ByKind     map[string]Traffic `json:"by_kind,omitempty"`
}

// Sink receives the per-round telemetry stream of a run. EmitRound is
// called once per computation round, in round order, from a single
// goroutine.
type Sink interface {
	EmitRound(RoundStats)
}

// Memory is a Sink that retains every RoundStats in order — the
// in-process consumer for tests and report tables.
type Memory struct {
	Rounds []RoundStats
}

// EmitRound appends the record.
func (m *Memory) EmitRound(rs RoundStats) { m.Rounds = append(m.Rounds, rs) }

// JSONLWriter is a Sink that streams records as JSON Lines: one JSON
// object per computation round, one object per line. Errors are sticky
// and surfaced by Flush/Err, keeping EmitRound unconditional for
// callers.
type JSONLWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

// NewJSONLWriter returns a JSONL sink writing to w. Call Flush when the
// run completes.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{w: bw, enc: json.NewEncoder(bw)}
}

// EmitRound writes one line. After the first error it is a no-op.
func (j *JSONLWriter) EmitRound(rs RoundStats) {
	if j.err != nil {
		return
	}
	if err := j.enc.Encode(rs); err != nil {
		j.err = err
		return
	}
	j.n++
}

// Rounds returns the number of records written.
func (j *JSONLWriter) Rounds() int { return j.n }

// Err returns the first write error, if any.
func (j *JSONLWriter) Err() error { return j.err }

// Flush drains the buffer and returns the first error seen.
func (j *JSONLWriter) Flush() error {
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

// multi fans one stream out to several sinks.
type multi []Sink

func (m multi) EmitRound(rs RoundStats) {
	for _, s := range m {
		s.EmitRound(rs)
	}
}

// Multi returns a Sink that forwards every record to each of the given
// sinks in order; nil entries are skipped. With zero or one usable sink
// it collapses to that sink (nil for zero).
func Multi(sinks ...Sink) Sink {
	var out multi
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// RoundAggregator is a Sink that folds the stream into a Registry: run
// totals as counters ("rounds_total", "messages_total", ...), the
// latest round's values as gauges ("active", "paired", "num_colors"),
// and per-round traffic/activity distributions as histograms. This is
// what the debug server's /metrics endpoint exposes during a run.
type RoundAggregator struct {
	rounds, messages, deliveries, bytes, conflicts, rejects, colored *Counter
	retransmits, repairs, reverts, probes                            *Counter
	active, paired, numColors                                        *Gauge
	roundMsgs, roundActive                                           *Histogram
}

// NewRoundAggregator registers the aggregate instruments in reg and
// returns the sink feeding them.
func NewRoundAggregator(reg *Registry) *RoundAggregator {
	return &RoundAggregator{
		rounds:      reg.Counter("rounds_total"),
		messages:    reg.Counter("messages_total"),
		deliveries:  reg.Counter("deliveries_total"),
		bytes:       reg.Counter("bytes_total"),
		conflicts:   reg.Counter("conflicts_dropped_total"),
		rejects:     reg.Counter("defensive_rejects_total"),
		colored:     reg.Counter("colored_total"),
		retransmits: reg.Counter("retransmits_total"),
		repairs:     reg.Counter("repairs_total"),
		reverts:     reg.Counter("reverts_total"),
		probes:      reg.Counter("probes_total"),
		active:      reg.Gauge("active"),
		paired:      reg.Gauge("paired"),
		numColors:   reg.Gauge("num_colors"),
		roundMsgs:   reg.Histogram("round_messages", 16, 64, 256, 1024, 4096, 16384),
		roundActive: reg.Histogram("round_active", 4, 16, 64, 256, 1024, 4096),
	}
}

// EmitRound folds one round into the registry.
func (a *RoundAggregator) EmitRound(rs RoundStats) {
	a.rounds.Inc()
	a.messages.Add(rs.Messages)
	a.deliveries.Add(rs.Deliveries)
	a.bytes.Add(rs.Bytes)
	a.conflicts.Add(int64(rs.ConflictsDropped))
	a.rejects.Add(int64(rs.DefensiveRejects))
	a.colored.Add(int64(rs.Colored))
	a.retransmits.Add(int64(rs.Retransmits))
	a.repairs.Add(int64(rs.Repairs))
	a.reverts.Add(int64(rs.Reverts))
	a.probes.Add(int64(rs.Probes))
	a.active.Set(int64(rs.Active))
	a.paired.Set(int64(rs.Paired))
	a.numColors.Set(int64(rs.NumColors))
	a.roundMsgs.Observe(rs.Messages)
	a.roundActive.Observe(int64(rs.Active))
}

// StateCountHook returns an automaton.Hook that counts transitions into
// each state as registry counters ("automaton_enter_C", ...). The hook
// is concurrency-safe (counters are atomic) and composes with other
// hooks via ChainHooks.
func StateCountHook(reg *Registry) automaton.Hook {
	var counters [automaton.Done + 1]*Counter
	for s := automaton.Choose; s <= automaton.Done; s++ {
		counters[s] = reg.Counter("automaton_enter_" + s.String())
	}
	return func(node int, from, to automaton.State) {
		if int(to) < len(counters) {
			counters[to].Inc()
		}
	}
}

// ChainHooks composes automaton hooks, skipping nils; it returns nil
// when none remain, so the no-observer fast path stays intact.
func ChainHooks(hooks ...automaton.Hook) automaton.Hook {
	var live []automaton.Hook
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(node int, from, to automaton.State) {
		for _, h := range live {
			h(node, from, to)
		}
	}
}
