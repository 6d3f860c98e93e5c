// Package net provides the synchronous message-passing substrate the
// paper's model assumes (§I-C): communication proceeds in lockstep
// rounds, each vertex is a compute node, and every message a node sends
// in a round is heard by all of its neighbors (local broadcast).
//
// Three interchangeable engines execute the same Node protocol logic:
//
//   - RunSync: a deterministic sequential scheduler, the executable
//     specification the other engines reproduce.
//   - RunShard: Config.Workers goroutines, each owning a contiguous
//     vertex shard, with a deterministic two-phase merge barrier — the
//     scale engine for million-vertex graphs.
//   - RunTCP: vertex shards as separate OS processes exchanging round
//     frames with a coordinator over TCP.
//
// All three share one round loop (runRounds), which owns the round
// barrier: the max-rounds bound, the initial all-done and cancel
// checks, the per-round traffic fold into Result and Config.Observe,
// and the exit conditions. An engine supplies only how one round is
// stepped and routed. Given nodes whose behavior is a deterministic
// function of (round, inbox, per-node RNG), all engines produce
// identical executions; this equivalence is property-tested in the
// core package. Every engine copies a node's outbox before that node
// steps again, so nodes may reuse one outbox slice across rounds (see
// Node.Step).
package net

import (
	"context"
	"fmt"

	"dima/internal/graph"
	"dima/internal/msg"
)

// Node is a synchronous protocol participant. Implementations must be
// deterministic functions of their own state, the round number, and the
// inbox, which arrives in msg.Less order; all randomness must come from
// a private generator seeded at construction.
type Node interface {
	// ID returns the vertex this node runs on.
	ID() int
	// Step executes one communication round. The inbox holds every
	// message broadcast by a neighbor in the previous round and arrives
	// sorted by msg.Less: every engine sorts each returned outbox in
	// place, in any order the node emitted it, before routing it, and
	// delivers the senders in ascending order. The returned messages
	// are locally broadcast: delivered to every neighbor at the next
	// round. Each must carry From == ID(): RunTCP routes by From, and
	// its node processes check it.
	//
	// Every engine stamps each delivered message with its arrival port:
	// Port is the receiver's incidence position of From, so
	// Neighbors(ID())[m.Port] == m.From and IncidentEdges(ID())[m.Port]
	// is the edge it arrived on. The port is the receiver's view — it
	// is not encoded on the wire, not a sort key, and the Port of a
	// returned message is ignored.
	//
	// The inbox slice is owned by the engine and reused across rounds:
	// engines overwrite it before the node's next Step, so
	// implementations may copy Message values out of it but must not
	// retain the slice itself.
	//
	// The returned slice is owned by the node and valid only until the
	// node's next Step: a node may append each round's messages into
	// one reused outbox. Engines copy the messages out before that next
	// Step — RunSync and RunShard copy the values into their inboxes
	// and buckets during the round, and a RunTCP node process copies
	// them into its outbox frame. The paints a message carries
	// (msg.Message.SetPaints) are shared, not copied: every copy of the
	// message points at the slice the node set, so a node must never
	// rewrite paints it has sent; it may carve them from an append-only
	// slab.
	Step(round int, inbox []msg.Message) []msg.Message
	// Done reports whether this node has completed all of its work and
	// flushed every message its neighbors still need.
	Done() bool
}

// FaultInjector decides per (message, receiver) whether a delivery is
// lost. The paper's model assumes reliable delivery; injectors exist so
// tests can probe behavior outside the model.
type FaultInjector interface {
	// Drop reports whether the delivery of m to vertex to in the given
	// round should be discarded. Every engine asks in one order: senders
	// ascending, each sender's sorted outbox in msg.Less order, each
	// message's receivers in adjacency order. m's paints are valid only
	// during the call.
	Drop(round int, m msg.Message, to int) bool
}

// Config controls an engine run.
type Config struct {
	// MaxRounds bounds the number of communication rounds; 0 means the
	// default of 1,000,000. If the bound is hit the run reports
	// Terminated == false rather than failing.
	MaxRounds int
	// Ctx, when non-nil, allows abandoning the run: the round loop
	// checks it once before the first round and once per completed
	// round, at the round barrier, and returns the partial Result
	// accumulated so far with Aborted set. Nil means
	// context.Background() (never canceled). Rounds executed before the
	// cancellation are byte-identical to an uncanceled run.
	Ctx context.Context
	// Fault optionally drops deliveries. Nil means reliable delivery.
	Fault FaultInjector
	// Observe, when non-nil, receives one RoundTraffic per communication
	// round (see RoundObserver).
	Observe RoundObserver
	// Workers is the number of shard goroutines RunShard uses; 0 means
	// runtime.GOMAXPROCS(0). The other engines ignore it.
	Workers int
}

// KindTraffic aggregates one message kind's traffic within a round.
type KindTraffic struct {
	// Messages counts local broadcasts sent, Deliveries counts
	// per-neighbor deliveries after fault filtering, Bytes is the total
	// encoded size of the broadcasts.
	Messages, Deliveries, Bytes int64
}

// RoundTraffic is one communication round's traffic snapshot. Traffic
// is attributed to the round in which the message was *sent*, and the
// shared round loop builds the snapshot the same way for every engine,
// so for deterministic nodes the per-round streams are identical across
// engines. Engines also use it as their per-round tally.
type RoundTraffic struct {
	// Round is the 0-based communication round.
	Round int
	// Messages, Deliveries, and Bytes mirror the Result totals for this
	// round alone.
	Messages, Deliveries, Bytes int64
	// Kinds splits the totals by message kind, indexed by msg.Kind
	// (entry 0 is unused).
	Kinds [msg.KindCount]KindTraffic
}

// RoundObserver receives per-round traffic. The shared round loop
// invokes it on the engine's coordinating goroutine, sequentially and
// in round order, after every node has executed the round.
type RoundObserver func(RoundTraffic)

const defaultMaxRounds = 1_000_000

// Result summarizes an engine run.
type Result struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Messages is the number of local broadcasts sent.
	Messages int64
	// Deliveries is the number of per-neighbor message deliveries
	// (a broadcast by a degree-d node counts d).
	Deliveries int64
	// Bytes is the total encoded size of all broadcasts.
	Bytes int64
	// Terminated reports whether every node finished within MaxRounds.
	Terminated bool
	// Aborted reports that the run's context was canceled before the
	// nodes finished: the run stopped at a round barrier and the other
	// fields describe the rounds that completed. Terminated and Aborted
	// are mutually exclusive; a run that finishes in the same round its
	// context is canceled reports Terminated.
	Aborted bool
}

// Engine runs a protocol over a topology; RunSync and RunShard satisfy
// it. RunTCP, whose node processes build their own nodes, does not.
// Cancellation rides in Config.Ctx so that code holding an Engine value
// needs no second signature.
type Engine func(g *graph.Graph, nodes []Node, cfg Config) (Result, error)

// ctx returns the run's context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// canceled reports whether the run should abort.
func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

func validate(g *graph.Graph, nodes []Node) error {
	if len(nodes) != g.N() {
		return fmt.Errorf("net: %d nodes for %d vertices", len(nodes), g.N())
	}
	for i, n := range nodes {
		if n == nil {
			return fmt.Errorf("net: nil node at %d", i)
		}
		if n.ID() != i {
			return fmt.Errorf("net: node at index %d reports id %d", i, n.ID())
		}
	}
	return nil
}

func allDone(nodes []Node) bool {
	for _, n := range nodes {
		if !n.Done() {
			return false
		}
	}
	return true
}

// stepNode steps n and sorts its outbox in place before any of it is
// routed. Every engine steps through it and delivers senders in
// ascending order, and a fault drops without reordering, so each inbox
// is sorted outboxes in ascending From, Less's first key: Less-sorted.
func stepNode(n Node, round int, inbox []msg.Message) []msg.Message {
	out := n.Step(round, inbox)
	msg.Sort(out)
	return out
}

// roundFunc executes one engine's communication round: every node
// steps through stepNode, and the round's broadcasts are routed
// toward the next round's inboxes and tallied into rt with count. It
// reports whether every node is done after the round, evaluated after
// all of them stepped.
type roundFunc func(round int, rt *RoundTraffic) (done bool, err error)

// count tallies one broadcast of kind k and encoded size sz that
// reached delivered receivers.
func (rt *RoundTraffic) count(k msg.Kind, sz, delivered int64) {
	kt := &rt.Kinds[k]
	kt.Messages++
	kt.Bytes += sz
	kt.Deliveries += delivered
}

// add folds another tally's per-kind traffic into rt.
func (rt *RoundTraffic) add(o *RoundTraffic) {
	for k := range rt.Kinds {
		rt.Kinds[k].Messages += o.Kinds[k].Messages
		rt.Kinds[k].Deliveries += o.Kinds[k].Deliveries
		rt.Kinds[k].Bytes += o.Kinds[k].Bytes
	}
}

// runRounds is the round barrier every engine shares; engines differ
// only in the round they supply. The all-done check (done: every node
// is done as built) and the cancel check run before start, so a run
// that is over before round 0 starts nothing; start sets the engine up
// and returns its round. After each round the per-kind tally becomes
// the round's totals, is folded into the Result and handed to
// cfg.Observe, and the run ends at the first of: every node done
// (Terminated), the context canceled (Aborted), or cfg.MaxRounds
// rounds. The evaluation points are identical on every engine, so
// canceled and truncated runs carry identical partial Results.
func runRounds(done bool, cfg Config, start func() (roundFunc, error)) (Result, error) {
	var res Result
	if done {
		res.Terminated = true
		return res, nil
	}
	ctx := cfg.ctx()
	if canceled(ctx) {
		res.Aborted = true
		return res, nil
	}
	step, err := start()
	if err != nil {
		return Result{}, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	var rt RoundTraffic
	for round := 0; round < maxRounds; round++ {
		rt = RoundTraffic{Round: round}
		done, err := step(round, &rt)
		if err != nil {
			return Result{}, err
		}
		for _, k := range rt.Kinds {
			rt.Messages += k.Messages
			rt.Deliveries += k.Deliveries
			rt.Bytes += k.Bytes
		}
		res.Messages += rt.Messages
		res.Deliveries += rt.Deliveries
		res.Bytes += rt.Bytes
		if cfg.Observe != nil {
			cfg.Observe(rt)
		}
		res.Rounds = round + 1
		if done {
			res.Terminated = true
			break
		}
		if canceled(ctx) {
			res.Aborted = true
			break
		}
	}
	return res, nil
}

// RunSync executes the protocol with a deterministic sequential
// scheduler: one goroutine, vertices stepped in id order each round.
// It is the reference the other engines must reproduce: it reads each
// vertex's receivers and their arrival ports from the one-shard
// delivery table (buildShardSegments), but keeps its own delivery loop.
func RunSync(g *graph.Graph, nodes []Node, cfg Config) (Result, error) {
	if err := validate(g, nodes); err != nil {
		return Result{}, err
	}
	return runRounds(allDone(nodes), cfg, func() (roundFunc, error) {
		// Double-buffered inboxes: the current round's inboxes are
		// consumed while the next round's fill, then the buffers swap
		// and truncate. Message values are structs, so nodes copying
		// them out of a reused slice stay valid.
		inboxes := make([][]msg.Message, g.N())
		next := make([][]msg.Message, g.N())
		ss := buildShardSegments(g, make([]int32, g.N()), 1)
		return func(round int, rt *RoundTraffic) (bool, error) {
			for u := 0; u < g.N(); u++ {
				lo, hi, _ := ss.segment(u, 0)
				for _, m := range stepNode(nodes[u], round, inboxes[u]) {
					var delivered int64
					for j, v := range ss.flat[lo:hi] {
						if cfg.Fault != nil && cfg.Fault.Drop(round, m, int(v)) {
							continue
						}
						d := m
						d.Port = ss.port[int(lo)+j]
						next[v] = append(next[v], d)
						delivered++
					}
					rt.count(m.Kind, int64(m.Size()), delivered)
				}
			}
			inboxes, next = next, inboxes
			for u := range next {
				next[u] = next[u][:0]
			}
			return allDone(nodes), nil
		}, nil
	})
}
