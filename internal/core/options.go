package core

import (
	"dima/internal/automaton"
	"dima/internal/metrics"
	"dima/internal/net"
)

// ColorRule selects how an inviter picks the proposed color.
type ColorRule int

const (
	// LowestFirst proposes the lowest color available to both endpoints
	// per the inviter's one-hop knowledge — the paper's rule (line
	// 1.11). It concentrates color reuse at small indices, which is what
	// keeps the total palette near Δ (Conjecture 2).
	LowestFirst ColorRule = iota
	// RandomAvailable proposes a uniformly random available color from a
	// bounded window. This is the ablation arm for Conjecture 2: it
	// reduces same-round proposal collisions but scatters the palette.
	RandomAvailable
)

func (r ColorRule) String() string {
	switch r {
	case LowestFirst:
		return "lowest-first"
	case RandomAvailable:
		return "random-available"
	}
	return "unknown"
}

// Options configures a run of either algorithm. The zero value is a
// valid default configuration (deterministic seed 0, sequential engine,
// the paper's color rule and overhearing filter).
type Options struct {
	// Seed determines every random choice of the run. Runs with equal
	// seeds and inputs are identical, on every engine.
	Seed uint64
	// Engine executes the protocol; nil means net.RunSync.
	// net.RunShard runs Workers shard goroutines.
	Engine net.Engine
	// Workers is the shard count passed to the engine via
	// net.Config.Workers; 0 means GOMAXPROCS. Only net.RunShard uses it.
	Workers int
	// Cluster, when non-nil, runs the protocol on the multi-process TCP
	// engine (net.RunTCP): Cluster.Nodes separate OS processes each own
	// a contiguous vertex shard, coordinated over loopback or a real
	// network, with results byte-identical to the in-process engines.
	// Mutually exclusive with Engine; Hook must be nil (an automaton
	// hook cannot observe nodes in another process).
	Cluster *net.TCPCluster
	// MaxCompRounds bounds the number of computation rounds; 0 means
	// 100,000. Hitting the bound yields Terminated == false.
	MaxCompRounds int
	// ColorRule selects the proposal rule; default LowestFirst (paper).
	ColorRule ColorRule
	// DisableOverhearFilter turns off the paper's Procedure 2-b fast
	// path in Algorithm 2 (responders rejecting invitations whose color
	// collides with overheard invitations). Correctness is unaffected —
	// the claim/confirm exchange still resolves conflicts — but more
	// doomed claims reach the confirm stage.
	DisableOverhearFilter bool
	// UnsafeNoConfirm disables Algorithm 2's claim/confirm exchange,
	// reverting to the paper's uncorrected protocol in which same-round
	// colorings are finalized immediately. Strong colorings produced
	// this way can be invalid; the option exists for the ablation
	// experiments and adversarial tests.
	UnsafeNoConfirm bool
	// Hook observes every automaton transition of every node.
	Hook automaton.Hook
	// Fault optionally drops message deliveries (see net.FaultInjector).
	// The paper's model assumes reliable delivery; with faults enabled
	// runs may fail to terminate and are truncated at MaxCompRounds.
	Fault net.FaultInjector
	// Recovery enables the loss-recovery extension (docs/ROBUSTNESS.md):
	// half-colored repairs via acknowledgement tracking, bounded
	// retransmission, authoritative re-responses, and negotiated reverts,
	// so runs converge to complete valid colorings under transient loss.
	// Disabled (the zero value), behavior — message streams, RNG
	// consumption, results — is byte-identical to the reliable-delivery
	// implementation.
	Recovery automaton.Recovery
	// Metrics, when non-nil, receives one metrics.RoundStats per
	// computation round, in round order, during the run: round r is
	// emitted at the barrier that closes round r+1 (Algorithm 2 credits a
	// claim's outcome to the round it formed in, one round back), and the
	// last rounds when the engine returns. Each record holds automaton
	// activity, pairing and palette progress, and traffic split by message
	// kind. Its Active and Paired fields measure the pairing probability
	// of the paper's Proposition 1 / Equation (1). Summed over the stream,
	// the traffic, conflict and recovery fields equal this Result's
	// aggregates, on every engine. A run that fails mid-way may already
	// have emitted a prefix of its stream. The sink is called on the
	// goroutine that called ColorEdges or ColorStrong. Nil (the default)
	// skips all per-round accounting.
	Metrics metrics.Sink
}

const defaultMaxCompRounds = 100_000

func (o *Options) maxCompRounds() int {
	if o.MaxCompRounds <= 0 {
		return defaultMaxCompRounds
	}
	return o.MaxCompRounds
}

// Result reports the outcome of a run.
type Result struct {
	// Colors maps graph.EdgeID (ColorEdges) or graph.ArcID (ColorStrong)
	// to the assigned color. All entries are >= 0 when Terminated.
	Colors []int
	// NumColors is the number of distinct colors used.
	NumColors int
	// MaxColor is the largest color index used, or -1 if none.
	MaxColor int
	// CompRounds is the number of computation rounds (full automaton
	// cycles) executed — the unit of the paper's O(Δ) bounds.
	CompRounds int
	// CommRounds is the number of communication rounds (3 per
	// computation round for Algorithm 1, 4 for Algorithm 2).
	CommRounds int
	// Messages, Deliveries, and Bytes aggregate traffic (see net.Result).
	Messages, Deliveries, Bytes int64
	// Terminated reports whether every node finished within the bound.
	Terminated bool
	// Aborted reports that the run's context (ColorEdgesCtx /
	// ColorStrongCtx) was canceled before the nodes finished: the engine
	// stopped at a round barrier and Colors holds the partial coloring
	// reached by then (-1 entries uncolored). Mutually exclusive with
	// Terminated.
	Aborted bool
	// DefensiveRejects counts responder-side validity rejections. The
	// protocol invariants make these impossible under reliable delivery;
	// a nonzero count under faults shows the defense working.
	DefensiveRejects int
	// ConflictsDropped counts tentative claims withdrawn by Algorithm
	// 2's confirm exchange (always 0 for Algorithm 1).
	ConflictsDropped int
	// HalfColored counts edges (or arcs) that exactly one endpoint
	// believes colored — possible only when message deliveries are
	// dropped, and the mechanism behind the conflicts the paper's
	// reliable-delivery assumption rules out. Always 0 without faults,
	// and 0 again with faults when Recovery converged.
	HalfColored int
	// Recovery-layer activity (all 0 unless Options.Recovery is enabled):
	// Retransmits counts messages re-sent after an acknowledgement
	// timeout, Repairs counts assignments completed through a recovery
	// path (adopted from a partner's authoritative state), Reverts counts
	// one-sided assignments undone by a negative acknowledgement, and
	// Probes counts status queries sent for stalled arcs.
	Retransmits, Repairs, Reverts, Probes int
}

// countColors fills NumColors and MaxColor from Colors, ignoring
// unassigned (-1) entries.
func (res *Result) countColors() {
	var seen ColorSet
	res.MaxColor = -1
	for _, c := range res.Colors {
		if c < 0 {
			continue
		}
		seen.Add(c)
		if c > res.MaxColor {
			res.MaxColor = c
		}
	}
	res.NumColors = seen.Count()
}
