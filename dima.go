// Package dima is a Go implementation of the distributed edge coloring
// algorithms of Daigle and Prasad, "Two Edge Coloring Algorithms Using a
// Simple Matching Discovery Automata" (IPDPS Workshops, 2012).
//
// Every vertex of the input graph runs an instance of a simple matching
// discovery automaton: in each computation round a node flips a coin to
// become an inviter or a listener, inviters propose to color one
// incident edge with a specific color, listeners accept at most one
// proposal, and accepted pairs — which form a matching — color their
// edge simultaneously without conflict. The package provides:
//
//   - ColorEdges: Algorithm 1, proper edge coloring of an undirected
//     graph with at most 2Δ-1 colors (typically Δ or Δ+1) in O(Δ)
//     rounds.
//   - ColorStrong: Algorithm 2 (DiMa2Ed), strong distance-2 edge
//     coloring of a symmetric digraph — the channel-assignment model for
//     ad-hoc wireless networks — in O(Δ) rounds.
//   - MaximalMatching: the automaton's original application, plus the
//     induced 2-approximate vertex cover.
//
// Protocols run over three interchangeable synchronous runtimes: a
// deterministic sequential scheduler (default), a sharded runtime whose
// worker goroutines each own a vertex shard (Shard), and node processes
// over TCP (TCPCluster). Runs are exactly reproducible from a single
// seed on every runtime.
//
// The subpackages under internal/ carry the full machinery (graph
// substrate, generators, message layer, verifiers, baselines, experiment
// harness); this package re-exports the surface a downstream user needs.
package dima

import (
	"context"
	"io"

	"dima/internal/automaton"
	"dima/internal/baseline"
	"dima/internal/core"
	"dima/internal/dynamic"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/matching"
	"dima/internal/metrics"
	"dima/internal/mpr"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
	"dima/internal/trace"
	"dima/internal/verify"
)

// Graph is a simple undirected graph (see NewGraph).
type Graph = graph.Graph

// Digraph is a symmetric digraph over an undirected graph.
type Digraph = graph.Digraph

// Edge is an undirected edge with normalized endpoints.
type Edge = graph.Edge

// EdgeID indexes edges of a Graph; ArcID indexes arcs of a Digraph.
type (
	EdgeID = graph.EdgeID
	ArcID  = graph.ArcID
)

// Options configures a coloring run; the zero value uses the paper's
// rules on the deterministic sequential runtime with seed 0.
type Options = core.Options

// Result reports a coloring run: colors, rounds, traffic, and quality
// counters.
type Result = core.Result

// Violation describes a constraint breach found by a verifier.
type Violation = verify.Violation

// Rand is the deterministic random source used throughout.
type Rand = rng.Rand

// NewGraph returns an empty undirected graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewSymmetric wraps an undirected graph as a symmetric digraph for
// ColorStrong; g must not be modified afterwards.
func NewSymmetric(g *Graph) *Digraph { return graph.NewSymmetric(g) }

// NewRand returns a seeded deterministic generator (xoshiro256**).
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Shard is the sharded runtime for large graphs: Options.Workers
// goroutines (0 = GOMAXPROCS) each own a contiguous vertex shard, with
// a deterministic merge barrier between rounds. Results are identical
// to the default sequential runtime for any worker count.
var Shard = net.RunShard

// TCPCluster configures the multi-process tcp engine: assign
// &TCPCluster{Nodes: k} to Options.Cluster to run k node processes,
// each owning a contiguous vertex shard, speaking the binary codec over
// TCP (docs/CLUSTER.md). Results are byte-identical to the in-process
// engines. Spawn-mode binaries must call MaybeNodeMain first thing in
// main.
type TCPCluster = net.TCPCluster

// NodeError is the typed failure of a cluster run: which node process
// (shard) failed, at which round, and why — a crashed, hung, or
// protocol-violating node is reported this way, never as a silent
// partial coloring.
type NodeError = net.NodeError

// MaybeNodeMain turns the current process into a cluster node when the
// coordinator's spawn environment is present, then exits; otherwise it
// is a no-op. Call it at the top of main in any binary that runs
// cluster colorings with an empty TCPCluster.Command.
func MaybeNodeMain() { net.MaybeNodeMain() }

// ColorEdges runs Algorithm 1 on g: a proper edge coloring using at most
// 2Δ-1 colors in O(Δ) expected computation rounds.
func ColorEdges(g *Graph, opt Options) (*Result, error) {
	return core.ColorEdges(g, opt)
}

// ColorEdgesCtx is ColorEdges bounded by ctx: canceling ctx abandons
// the run at the next communication-round barrier and returns the
// partial Result with Aborted set. Rounds executed before the
// cancellation are byte-identical to an uncanceled run.
func ColorEdgesCtx(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	return core.ColorEdgesCtx(ctx, g, opt)
}

// ColorStrong runs Algorithm 2 (DiMa2Ed) on d: a strong distance-2
// directed edge coloring in O(Δ) expected computation rounds.
func ColorStrong(d *Digraph, opt Options) (*Result, error) {
	return core.ColorStrong(d, opt)
}

// ColorStrongCtx is ColorStrong bounded by ctx, with the same
// cancellation contract as ColorEdgesCtx.
func ColorStrongCtx(ctx context.Context, d *Digraph, opt Options) (*Result, error) {
	return core.ColorStrongCtx(ctx, d, opt)
}

// Recolorer maintains a valid edge coloring of a mutating graph: it
// applies batches of edge insertions and deletions, repairing only the
// affected region with the matching automaton instead of recoloring
// everything (docs/DYNAMIC.md).
type Recolorer = dynamic.Recolorer

// RecolorOptions configures a Recolorer; the zero value uses the
// automatic 2Δ−1 palette cap and the sequential engine for repairs.
type RecolorOptions = dynamic.Options

// RecolorReport describes the repair work one batch needed.
type RecolorReport = dynamic.Report

// Mutation is one edge insertion or deletion; MutationBatch groups
// mutations applied atomically. Batches travel as "+ u v"/"- u v" text
// lists (graphio.ReadMutations, the CLI format) or as dimaserve's JSON
// mutate documents.
type (
	Mutation      = msg.Mutation
	MutationBatch = msg.MutationBatch
)

// Mutation operations.
const (
	OpInsert = msg.OpInsert
	OpDelete = msg.OpDelete
)

// NewRecolorer wraps a graph and its valid complete coloring (as
// produced by ColorEdges) for incremental maintenance. Both are owned
// by the Recolorer afterwards; pass copies to keep the originals.
func NewRecolorer(g *Graph, colors []int, opt RecolorOptions) (*Recolorer, error) {
	return dynamic.New(g, colors, opt)
}

// Recolor is the one-shot form: it wraps g and colors, applies the
// batch, and returns the Recolorer (holding the mutated graph and
// repaired coloring) with the batch's report. Keep applying batches to
// the returned Recolorer for a mutation stream.
func Recolor(g *Graph, colors []int, b *MutationBatch, opt RecolorOptions) (*Recolorer, *RecolorReport, error) {
	return RecolorCtx(context.Background(), g, colors, b, opt)
}

// RecolorCtx is Recolor bounded by ctx. Cancellation interrupts only
// the automaton repair: the batch still completes through the greedy
// fallback, with RecolorReport.Aborted set.
func RecolorCtx(ctx context.Context, g *Graph, colors []int, b *MutationBatch, opt RecolorOptions) (*Recolorer, *RecolorReport, error) {
	rc, err := dynamic.New(g, colors, opt)
	if err != nil {
		return nil, nil, err
	}
	rep, err := rc.ApplyCtx(ctx, b)
	if err != nil {
		return nil, nil, err
	}
	return rc, rep, nil
}

// RoundStats is one computation round of a run's telemetry stream (see
// Options.Metrics and docs/OBSERVABILITY.md).
type RoundStats = metrics.RoundStats

// MetricsSink receives the per-round telemetry stream; assign one to
// Options.Metrics. MemorySink retains the stream in order; NewJSONLSink
// streams it as JSON Lines.
type (
	MetricsSink = metrics.Sink
	MemorySink  = metrics.Memory
)

// NewJSONLSink returns a sink writing one JSON object per computation
// round to w; call Flush when the run completes.
func NewJSONLSink(w io.Writer) *metrics.JSONLWriter { return metrics.NewJSONLWriter(w) }

// MultiSink fans the telemetry stream out to several sinks (nil entries
// are skipped).
func MultiSink(sinks ...MetricsSink) MetricsSink { return metrics.Multi(sinks...) }

// TraceRecorder captures automaton state transitions; wire its Hook
// into Options.Hook and render with Timeline or ChromeTrace (a
// Perfetto-compatible trace of per-node state timelines).
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder keeping at most limit events
// (0 = unlimited).
func NewTraceRecorder(limit int) *TraceRecorder { return trace.NewRecorder(limit) }

// Pairing is the extension point of the matching-discovery framework:
// implement it to run a new problem on the paper's automaton. The
// Driver supplies the coin toss, the state machine, and the
// invitation/response/exchange message pattern; the Pairing supplies
// what to propose, what to accept, and what to announce. See
// internal/matching for the reference implementation and
// internal/automaton's driver tests for a minimal custom protocol.
type Pairing = automaton.Pairing

// Driver hosts a Pairing as a protocol node (three communication rounds
// per computation round).
type Driver = automaton.Driver

// Message is the wire message type exchanged by protocol nodes: int32
// vertex, item and color fields, paints read with Paints and set with
// SetPaints, and the arrival Port every engine stamps on delivery.
type Message = msg.Message

// NewDriver wraps a custom Pairing for execution with RunProtocol.
func NewDriver(id int, r *Rand, p Pairing) *Driver {
	return automaton.NewDriver(id, r, p, nil)
}

// ProtocolNode is a synchronous protocol participant (see internal/net).
type ProtocolNode = net.Node

// RunProtocol executes custom protocol nodes (e.g. Drivers) over g on
// the deterministic sequential runtime, bounded by maxCommRounds
// communication rounds (0 = default).
func RunProtocol(g *Graph, nodes []ProtocolNode, maxCommRounds int) (net.Result, error) {
	return net.RunSync(g, nodes, net.Config{MaxRounds: maxCommRounds})
}

// MatchOptions configures MaximalMatching; the zero value is usable.
type MatchOptions = matching.Options

// MatchResult reports a maximal-matching run.
type MatchResult = matching.Result

// MaximalMatching runs the matching-discovery automaton until the
// matched edges form a maximal matching of g. MatchResult.VertexCover
// derives the classic 2-approximate vertex cover.
func MaximalMatching(g *Graph, opt MatchOptions) (*MatchResult, error) {
	return matching.MaximalMatching(g, opt)
}

// VerifyEdgeColoring checks a proper edge coloring (empty = valid).
func VerifyEdgeColoring(g *Graph, colors []int) []Violation {
	return verify.EdgeColoring(g, colors)
}

// VerifyStrongColoring checks a strong directed distance-2 coloring.
func VerifyStrongColoring(d *Digraph, colors []int) []Violation {
	return verify.StrongColoring(d, colors)
}

// VerifyStrongEdgeColoring checks the undirected distance-2 predicate:
// edges sharing an endpoint or joined by an edge must differ in color.
func VerifyStrongEdgeColoring(g *Graph, colors []int) []Violation {
	return verify.StrongEdgeColoring(g, colors)
}

// ErdosRenyi generates a G(n, p) graph with p set for the given expected
// average degree — the workload of the paper's Figures 3 and 6.
func ErdosRenyi(r *Rand, n int, avgDegree float64) (*Graph, error) {
	return gen.ErdosRenyiAvgDegree(r, n, avgDegree)
}

// ScaleFree generates a preferential-attachment graph (k edges per new
// vertex, attachment probability ∝ degree^power) — Figure 4's workload.
func ScaleFree(r *Rand, n, k int, power float64) (*Graph, error) {
	return gen.BarabasiAlbert(r, n, k, power)
}

// SmallWorld generates a Watts–Strogatz graph (ring lattice degree 2k,
// rewire probability beta) — Figure 5's workload.
func SmallWorld(r *Rand, n, k int, beta float64) (*Graph, error) {
	return gen.WattsStrogatz(r, n, k, beta)
}

// Geometric generates a random geometric (unit-disk) graph, the standard
// wireless interference topology.
func Geometric(r *Rand, n int, radius float64) (*Graph, error) {
	return gen.RandomGeometric(r, n, radius)
}

// PowerLaw generates a random graph with an exact power-law degree
// sequence (exponent gamma over [minDeg, maxDeg]) via the configuration
// model.
func PowerLaw(r *Rand, n, minDeg, maxDeg int, gamma float64) (*Graph, error) {
	degrees, err := gen.PowerLawDegrees(r, n, minDeg, maxDeg, gamma)
	if err != nil {
		return nil, err
	}
	return gen.ConfigurationModel(r, degrees)
}

// FromDegreeSequence generates a uniform random simple graph realizing
// the given degree sequence (configuration model with restarts).
func FromDegreeSequence(r *Rand, degrees []int) (*Graph, error) {
	return gen.ConfigurationModel(r, degrees)
}

// GreedySequential is the centralized first-fit baseline: it colors
// edges in id order with the lowest color free at both endpoints.
func GreedySequential(g *Graph) []int {
	colors, err := baseline.GreedyEdgeColoring(g, nil)
	if err != nil {
		panic(err) // nil order cannot fail
	}
	return colors
}

// VizingSequential is the Misra–Gries centralized baseline: a proper
// edge coloring with at most Δ+1 colors.
func VizingSequential(g *Graph) ([]int, error) {
	return baseline.MisraGries(g)
}

// GreedyStrongSequential is the centralized baseline for ColorStrong.
func GreedyStrongSequential(d *Digraph) []int {
	return baseline.GreedyStrongColoring(d)
}

// SimpleOptions configures SimpleColor; the zero value uses the 2Δ-1
// palette on the sequential runtime.
type SimpleOptions = mpr.Options

// SimpleResult reports a SimpleColor run.
type SimpleResult = mpr.Result

// SimpleColor runs the distributed prior-work baseline the paper cites
// (Marathe–Panconesi–Risinger's simple randomized edge coloring, their
// ref [10]): O(log m) rounds with high probability, colors drawn from a
// fixed 2Δ-1 palette. The head-to-head contrast with ColorEdges is the
// paper's positioning: DiMa spends Θ(Δ) rounds to get a Δ/Δ+1 palette.
func SimpleColor(g *Graph, opt SimpleOptions) (*SimpleResult, error) {
	return mpr.Color(g, opt)
}

// SimpleStrongResult reports a SimpleStrongColor run.
type SimpleStrongResult = mpr.StrongResult

// SimpleStrongColor runs the distance-2 analogue of SimpleColor: the
// distributed comparator for ColorStrong (in the spirit of the
// n-dependent strong-coloring algorithms the paper cites). O(log)
// rounds, but the palette is sized centrally to the worst-case conflict
// degree and the channel count lands far above ColorStrong's.
func SimpleStrongColor(d *Digraph, opt SimpleOptions) (*SimpleStrongResult, error) {
	return mpr.StrongColor(d, opt)
}

// StrongLowerBound returns a structural lower bound on the channels any
// strong directed edge coloring of d must use.
func StrongLowerBound(d *Digraph) int { return verify.StrongLowerBound(d) }

// LatencyModel assigns per-link delays for Makespan analysis.
type LatencyModel = net.LatencyModel

// UniformLatency and RandomLatency are ready-made latency models.
type (
	UniformLatency = net.UniformLatency
	RandomLatency  = net.RandomLatency
)

// Makespan computes the wall-clock completion time of a rounds-round
// synchronous execution over g when each node advances as soon as its
// neighbors' messages arrive (an α-synchronizer) under the given
// link-delay model.
func Makespan(g *Graph, rounds int, lat LatencyModel) (float64, error) {
	return net.Makespan(g, rounds, lat)
}
