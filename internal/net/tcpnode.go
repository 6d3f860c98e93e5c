package net

import (
	"fmt"
	gonet "net"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"dima/internal/graph"
	"dima/internal/msg"
)

// NodeFactory rebuilds the protocol nodes of one vertex shard inside a
// node process: one Node per vertex in [lo, hi), each implementing
// StateNode, constructed exactly as an in-process run constructs them —
// same graph, same options decoded from spec, same derived RNG streams —
// so the distributed run is byte-identical to an in-process one. Protocol packages register their factories in init (the core
// package registers "dima/edge/v3" and "dima/strong/v3").
type NodeFactory func(g *graph.Graph, spec []byte, lo, hi int) ([]Node, error)

var (
	factoryMu     sync.RWMutex
	nodeFactories = map[string]NodeFactory{}
)

// RegisterNodeFactory makes a factory available to node processes under
// name. It panics on empty names, nil factories, and duplicates.
func RegisterNodeFactory(name string, f NodeFactory) {
	if name == "" || f == nil {
		panic("net: RegisterNodeFactory with empty name or nil factory")
	}
	factoryMu.Lock()
	defer factoryMu.Unlock()
	if _, dup := nodeFactories[name]; dup {
		panic("net: duplicate node factory " + name)
	}
	nodeFactories[name] = f
}

func lookupNodeFactory(name string) (NodeFactory, bool) {
	factoryMu.RLock()
	defer factoryMu.RUnlock()
	f, ok := nodeFactories[name]
	return f, ok
}

func registeredFactoryNames() []string {
	factoryMu.RLock()
	defer factoryMu.RUnlock()
	names := make([]string, 0, len(nodeFactories))
	for name := range nodeFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MaybeNodeMain turns the current process into a cluster node when the
// DIMA_NODE_* environment says the coordinator spawned it for that; it
// then never returns (os.Exit). In a plain invocation it is a no-op.
// Binaries usable as spawn-mode node processes (and test binaries whose
// tests run RunTCP with an empty Command) must call it first thing in
// main / TestMain, before flag parsing.
func MaybeNodeMain() {
	addr := os.Getenv(envNodeAddr)
	if addr == "" {
		return
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dimanode:", err)
		os.Exit(1)
	}
	shard, err := strconv.Atoi(os.Getenv(envNodeShard))
	if err != nil {
		fail(fmt.Errorf("bad %s: %v", envNodeShard, err))
	}
	shards, err := strconv.Atoi(os.Getenv(envNodeShards))
	if err != nil {
		fail(fmt.Errorf("bad %s: %v", envNodeShards, err))
	}
	token, err := strconv.ParseUint(os.Getenv(envNodeToken), 10, 64)
	if err != nil {
		fail(fmt.Errorf("bad %s: %v", envNodeToken, err))
	}
	if err := NodeMain(addr, shard, shards, token); err != nil {
		fail(err)
	}
	os.Exit(0)
}

// NodeMain dials the coordinator and runs the node side of the cluster
// protocol to completion. It is the whole life of a node process: cmd/
// dimanode calls it for externally launched nodes, MaybeNodeMain for
// spawned ones.
func NodeMain(addr string, shard, shards int, token uint64) error {
	conn, err := gonet.DialTimeout("tcp", addr, defaultBarrierTimeout)
	if err != nil {
		return fmt.Errorf("dial coordinator %s: %w", addr, err)
	}
	return ServeNode(conn, shard, shards, token)
}

// ServeNode runs the node half of the cluster protocol over conn, which
// it owns and closes. Local failures are reported to the coordinator in
// an error frame (best effort) as well as returned.
func ServeNode(conn gonet.Conn, shard, shards int, token uint64) error {
	defer conn.Close()
	if err := serveNode(conn, shard, shards, token); err != nil {
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		msg.WriteFrame(conn, frameError, []byte(err.Error()))
		return err
	}
	return nil
}

// serveNode is the node process's side of RunTCP: handshake, build
// the shard's nodes from the welcome frame, then answer round frames
// until shutdown. Each round frame's records are expanded over the
// shard's neighbor segments into one flat inbox arena, with the fill
// RunShard's merge runs; the shard's vertices are stepped in ascending
// id order through stepNode, and their sorted outboxes go back in one
// outbox frame, followed by the state changes of every node whose
// state changed in the round. The coordinator keeps fault decisions
// and traffic accounting; the node only applies the drop lists it is
// sent.
func serveNode(conn gonet.Conn, shard, shards int, token uint64) error {
	// No read deadlines here: the coordinator owns the barrier timeout,
	// and a dead coordinator closes the connection (or the kernel does),
	// which lands every blocked read on an error — a node process never
	// outlives its coordinator.
	fr := msg.NewFrameReader(conn, 0)
	hello := msg.Hello{Shard: shard, Shards: shards, Token: token}
	if err := msg.WriteFrame(conn, frameHello, hello.Append(nil)); err != nil {
		return fmt.Errorf("send hello: %w", err)
	}
	kind, payload, err := fr.Next()
	if err != nil {
		return fmt.Errorf("read welcome: %w", err)
	}
	if kind != frameWelcome {
		return fmt.Errorf("first coordinator frame is %s, want welcome", frameKindName(kind))
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		return err
	}
	if w.shards != shards {
		return fmt.Errorf("welcome names %d shards, launched for %d", w.shards, shards)
	}
	factory, ok := lookupNodeFactory(w.factory)
	if !ok {
		return fmt.Errorf("unknown node factory %q (registered: %v)", w.factory, registeredFactoryNames())
	}
	nodes, err := factory(w.g, w.spec, w.lo, w.hi)
	if err != nil {
		return fmt.Errorf("factory %q: %w", w.factory, err)
	}
	if len(nodes) != w.hi-w.lo {
		return fmt.Errorf("factory %q built %d nodes for range [%d, %d)", w.factory, len(nodes), w.lo, w.hi)
	}
	states := make([]StateNode, len(nodes))
	for i, n := range nodes {
		sn, ok := n.(StateNode)
		if !ok || n.ID() != w.lo+i {
			return fmt.Errorf("factory %q node %d: want StateNode with id %d, got %T id %d",
				w.factory, i, w.lo+i, n, n.ID())
		}
		states[i] = sn
	}
	if err := msg.WriteFrame(conn, frameReady, nil); err != nil {
		return fmt.Errorf("send ready: %w", err)
	}

	in := newNodeInbox(w.g, w.lo, w.hi)
	var outb []msg.Message
	var buf, section, blob []byte
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			return fmt.Errorf("read coordinator frame: %w", err)
		}
		switch kind {
		case frameRound:
			round, err := in.receive(payload)
			if err != nil {
				return err
			}
			outb, section = outb[:0], section[:0]
			done, entries := true, 0
			for i, sn := range states {
				for _, m := range stepNode(sn, round, in.arena.inbox(i)) {
					if int(m.From) != w.lo+i {
						return fmt.Errorf("vertex %d sent a message from %d", w.lo+i, m.From)
					}
					outb = append(outb, m)
				}
				// A node's state changes only in its own Step, so once it
				// stepped, its Done and its changes are what RunSync's
				// allDone and the coordinator's state sink see after the
				// round.
				done = done && sn.Done()
				if blob = sn.AppendChanges(blob[:0]); len(blob) > 0 {
					section = appendState(section, w.lo+i, blob)
					entries++
				}
			}
			buf = appendOutbox(buf[:0], round, done, outb, entries, section)
			if err := msg.WriteFrame(conn, frameOutbox, buf); err != nil {
				return fmt.Errorf("send outbox: %w", err)
			}
		case frameShutdown:
			if len(payload) != 0 {
				return fmt.Errorf("net: %d trailing bytes after shutdown frame", len(payload))
			}
			return nil
		default:
			return fmt.Errorf("unexpected coordinator frame %s", frameKindName(kind))
		}
	}
}

// nodeInbox is a node process's receiving side: it decodes round
// frames and expands their records over the shard's neighbor segments
// into one flat inbox arena.
type nodeInbox struct {
	lo, hi int
	// segs splits every neighbor list two ways: segment 0 holds the
	// neighbors inside [lo, hi) in adjacency order, the order the
	// coordinator lists drops in.
	segs  shardSegments
	batch [1]recordBatch
	arena shardInbox
}

func newNodeInbox(g *graph.Graph, lo, hi int) *nodeInbox {
	owner := make([]int32, g.N())
	for v := range owner {
		if v < lo || v >= hi {
			owner[v] = 1
		}
	}
	return &nodeInbox{
		lo:    lo,
		hi:    hi,
		segs:  buildShardSegments(g, owner, 2, graph.NewPorts(g)),
		arena: newShardInbox(hi - lo),
	}
}

// receive decodes one round frame into the arena and returns its
// round. Records the coordinator cannot have sent are errors: a sender
// outside the graph, records out of msg.Less order (senders ascending,
// each sender's records in its sorted outbox's order), a sender with no
// neighbor in this shard, or a drop list that is not a subsequence of
// the sender's neighbors here.
func (ni *nodeInbox) receive(payload []byte) (int, error) {
	b := &ni.batch[0]
	round, err := decodeRound(payload, b)
	if err != nil {
		return 0, err
	}
	n := len(ni.segs.segOf) - 1
	for i := range b.recs {
		r := &b.recs[i]
		from := int(r.m.From)
		if from >= n {
			return 0, fmt.Errorf("net: record from vertex %d, graph has %d", from, n)
		}
		if i > 0 && msg.Less(r.m, b.recs[i-1].m) {
			prev := b.recs[i-1].m
			if int(prev.From) != from {
				return 0, fmt.Errorf("net: record from vertex %d after vertex %d", from, prev.From)
			}
			return 0, fmt.Errorf("net: records from vertex %d out of msg.Less order: %v after %v", from, r.m, prev)
		}
		lo, hi, ok := ni.segs.segment(from, 0)
		if !ok {
			return 0, fmt.Errorf("net: record from vertex %d, which has no neighbor in shard [%d, %d)", from, ni.lo, ni.hi)
		}
		sp := b.spans[i]
		if err := ni.checkDrops(from, ni.segs.flat[lo:hi], b.drops[sp.lo:sp.hi]); err != nil {
			return 0, err
		}
		r.lo, r.hi = lo, hi
	}
	ni.arena.fill(int32(ni.lo), &ni.segs, ni.batch[:])
	return round, nil
}

// checkDrops verifies that drops is a subsequence of seg, sender
// from's neighbors in this shard, which is what the fill's skip walk
// relies on.
func (ni *nodeInbox) checkDrops(from int, seg, drops []int32) error {
	k := 0
	for _, v := range drops {
		for k < len(seg) && seg[k] != v {
			k++
		}
		if k == len(seg) {
			return fmt.Errorf("net: drop list of sender %d: vertex %d is not its next neighbor in shard [%d, %d)",
				from, v, ni.lo, ni.hi)
		}
		k++
	}
	return nil
}
