package net

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	gonet "net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"

	"dima/internal/graph"
	"dima/internal/msg"
)

// StateNode is a Node whose state can cross a process boundary, as the
// TCP engine's node processes require: after every round they ship each
// node's changes, which the coordinator loads into its StateSink.
type StateNode interface {
	Node
	// AppendChanges appends a blob of the state that changed since the
	// previous call (since construction on the first), and nothing when
	// none did. Node processes call it after each of the node's Steps.
	// Only the state the observer and the post-run assembly read need
	// cross; transient negotiation state does not.
	AppendChanges(buf []byte) []byte
}

// StateSink is the coordinator's view of a RunTCP run's nodes, which it
// never builds: the state they start in, and the blobs they ship.
type StateSink interface {
	// Done reports whether every node is done as constructed: the round
	// loop's initial all-done check, made before any process starts.
	Done() bool
	// Apply loads one blob a node process's StateNode.AppendChanges
	// made for vertex; blob is only valid during the call. Strict: a
	// blob no node process can make is an error.
	Apply(vertex int, blob []byte) error
}

// NodeSpec tells node processes how to rebuild their vertex shard: a
// registered NodeFactory name plus an opaque options blob the factory
// decodes. The pair must determine node construction completely — with
// the graph and shard bounds from the welcome frame, node processes
// must build the nodes an in-process run would. State stays at the
// coordinator and receives what the nodes ship.
type NodeSpec struct {
	Factory string
	Spec    []byte
	State   StateSink
}

// TCPCluster configures the multi-process TCP engine. The zero value is
// not runnable: Nodes must be at least 1.
type TCPCluster struct {
	// Nodes is the number of node processes. Each owns a contiguous
	// vertex shard, split exactly as RunShard splits work among workers;
	// counts above the vertex count are clamped.
	Nodes int
	// Listen is the coordinator's listen address. Empty means a kernel-
	// assigned loopback port ("127.0.0.1:0"), the right choice for
	// spawned children; External runs set it to a reachable address.
	Listen string
	// Command is the argv used to spawn each node process; the child
	// receives its assignment via DIMA_NODE_* environment variables and
	// must call MaybeNodeMain before anything else. Empty means re-exec
	// the current binary (os.Executable). Ignored when External is set.
	Command []string
	// External, when set, spawns nothing: the operator launches the node
	// processes (e.g. dimanode -connect) and the coordinator waits for
	// them to dial in. No launch token protects the handshake in this
	// mode, so use it only on trusted networks.
	External bool
	// BarrierTimeout bounds every per-connection wait: handshake
	// accepts, round-frame writes, outbox reads. A node that
	// crashes or hangs surfaces as a NodeError within roughly this
	// duration. 0 means 30s.
	BarrierTimeout time.Duration
	// Stderr receives spawned children's stderr; nil means os.Stderr.
	Stderr io.Writer
}

const defaultBarrierTimeout = 30 * time.Second

func (tc *TCPCluster) timeout() time.Duration {
	if tc.BarrierTimeout <= 0 {
		return defaultBarrierTimeout
	}
	return tc.BarrierTimeout
}

// NodeError is the typed failure of one node process: which shard, in
// which communication round (-1 during setup), and why. A node killed
// mid-run surfaces as a NodeError wrapping the broken connection, never
// as a silent partial result. Shard is -1 for a connection that failed
// the handshake before naming a valid shard.
type NodeError struct {
	Shard int
	Round int
	Err   error
}

func (e *NodeError) Error() string {
	if e.Shard < 0 {
		return fmt.Sprintf("net: tcp node connection failed during setup: %v", e.Err)
	}
	if e.Round < 0 {
		return fmt.Sprintf("net: tcp node %d failed during setup: %v", e.Shard, e.Err)
	}
	return fmt.Sprintf("net: tcp node %d failed at round %d: %v", e.Shard, e.Round, e.Err)
}

func (e *NodeError) Unwrap() error { return e.Err }

// Environment variables carrying a spawned child's assignment.
const (
	envNodeAddr   = "DIMA_NODE_ADDR"
	envNodeShard  = "DIMA_NODE_SHARD"
	envNodeShards = "DIMA_NODE_SHARDS"
	envNodeToken  = "DIMA_NODE_TOKEN"
)

// RunTCP executes the protocol across tc.Nodes separate OS processes
// connected over TCP. The coordinator supplies the shared round loop
// with a round that sends round frames out and reads outboxes in: it
// owns fault injection and traffic accounting, while node processes
// step their vertex shards. Routing is split: the coordinator routes
// every broadcast with RunShard's record builder (router.route), one
// record per destination shard holding a surviving receiver, and sends
// each shard its batch as a round frame (appendRound) — the sender,
// the re-encoded message and the receivers the fault injector dropped
// per record. Each node process decodes the frame into a batch and
// expands it into a flat inbox arena with RunShard's fill, over the
// delivery table it builds from its own copy of the graph. The
// coordinator builds only that table's segments (segmentsOf), which is
// all its router reads. Records travel in ascending sender order, so
// every inbox fills in RunSync's order. Results, colorings, and per-round
// telemetry are byte-identical to RunSync at every shard count,
// including under faults and mid-round cancel.
//
// Node processes rebuild the graph from its edge list in edge-id
// order, so RunTCP requires a graph whose adjacency lists are in that
// order too: no removal holes, and no edge ids recycled by RemoveEdge
// and AddEdge. graph.Compacted rebuilds any graph into that form.
//
// The coordinator builds no nodes: spec.State makes the initial
// all-done check, and loads the state every outbox frame carries before
// the round reaches cfg.Observe.
func RunTCP(tc *TCPCluster, spec NodeSpec, g *graph.Graph, cfg Config) (Result, error) {
	if spec.State == nil {
		return Result{}, fmt.Errorf("net: tcp run without a state sink")
	}
	if g.EdgeIDBound() != g.M() {
		return Result{}, fmt.Errorf("net: graph has removal holes (%d ids, %d edges); compact before a cluster run",
			g.EdgeIDBound(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if !slices.IsSorted(g.IncidentEdges(u)) {
			return Result{}, fmt.Errorf("net: vertex %d lists its edges out of edge-id order (ids recycled by RemoveEdge); rebuild the graph with graph.Compacted before a cluster run", u)
		}
	}
	if tc == nil || tc.Nodes < 1 {
		return Result{}, fmt.Errorf("net: tcp cluster needs at least 1 node process")
	}
	if _, ok := lookupNodeFactory(spec.Factory); !ok {
		return Result{}, fmt.Errorf("net: node factory %q not registered", spec.Factory)
	}

	// At least one shard, as RunShard keeps one worker, when g has no vertex.
	shards := max(min(tc.Nodes, g.N()), 1)
	// Shard bounds identical to RunShard, so concatenating per-shard
	// outboxes in shard order reproduces RunSync's ascending-sender
	// order.
	bounds, owner := shardBounds(g.N(), shards)
	var run *tcpRun
	defer func() {
		if run != nil {
			run.teardown()
		}
	}()
	// runRounds makes its initial all-done and cancel checks before
	// start spawns any process.
	res, err := runRounds(spec.State.Done(), cfg, func() (roundFunc, error) {
		var err error
		if run, err = launchCluster(tc, shards); err != nil {
			return nil, err
		}
		for s := 0; s < shards; s++ {
			run.buf = welcome{
				factory: spec.Factory,
				spec:    spec.Spec,
				shards:  shards,
				lo:      bounds[s],
				hi:      bounds[s+1],
				g:       g,
			}.append(run.buf[:0])
			if err := run.send(s, frameWelcome, run.buf); err != nil {
				return nil, &NodeError{Shard: s, Round: -1, Err: err}
			}
		}
		for s := 0; s < shards; s++ {
			if _, err := run.recv(s, frameReady); err != nil {
				return nil, &NodeError{Shard: s, Round: -1, Err: err}
			}
		}
		// One router routes every outbox: out[d] is shard d's next frame.
		segs := segmentsOf(g, owner, shards)
		rtr := router{g: g, owner: owner, segs: &segs, fault: cfg.Fault, out: make([]recordBatch, shards)}
		var ob outbox
		return func(round int, rt *RoundTraffic) (bool, error) {
			for s := 0; s < shards; s++ {
				run.buf = appendRound(run.buf[:0], round, &rtr.out[s])
				if err := run.send(s, frameRound, run.buf); err != nil {
					return false, &NodeError{Shard: s, Round: round, Err: err}
				}
			}
			rtr.reset()
			// The frames just sent read the last round's paints last.
			ob.paints = ob.paints[:0]
			doneAll := true
			for s := 0; s < shards; s++ {
				payload, err := run.recv(s, frameOutbox)
				if err == nil {
					err = ob.decode(payload)
				}
				if err == nil {
					err = ob.apply(round, bounds[s], bounds[s+1], spec.State)
				}
				if err != nil {
					return false, &NodeError{Shard: s, Round: round, Err: err}
				}
				doneAll = doneAll && ob.done
				for _, m := range ob.bs {
					rt.count(m.Kind, int64(m.Size()), rtr.route(round, int(m.From), m))
				}
			}
			return doneAll, nil
		}, nil
	})
	if err != nil || run == nil {
		return res, err
	}
	for s := 0; s < shards; s++ {
		if err := run.send(s, frameShutdown, nil); err != nil {
			return Result{}, &NodeError{Shard: s, Round: res.Rounds, Err: err}
		}
	}
	return res, nil
}

// apply checks one shard's decoded outbox for round and loads its state
// entries into state. Its broadcasts and state entries must come from
// the shard's vertex range [lo, hi).
func (ob *outbox) apply(round, lo, hi int, state StateSink) error {
	if ob.round != round {
		return fmt.Errorf("outbox for round %d, want %d", ob.round, round)
	}
	for _, m := range ob.bs {
		if int(m.From) < lo || int(m.From) >= hi {
			return fmt.Errorf("broadcast from vertex %d outside shard [%d, %d)", m.From, lo, hi)
		}
	}
	for _, st := range ob.states {
		if st.vertex < lo || st.vertex >= hi {
			return fmt.Errorf("state of vertex %d outside shard [%d, %d)", st.vertex, lo, hi)
		}
		if err := state.Apply(st.vertex, st.blob); err != nil {
			return fmt.Errorf("state of vertex %d: %w", st.vertex, err)
		}
	}
	return nil
}

// tcpRun is the coordinator's live cluster: listener, one connection
// and frame reader per shard, and (in spawn mode) the child processes.
type tcpRun struct {
	ln      gonet.Listener
	conns   []gonet.Conn
	frs     []*msg.FrameReader
	procs   []*exec.Cmd
	waits   []chan error
	buf     []byte
	timeout time.Duration
}

// launchCluster starts the listener, spawns (or awaits) the node
// processes, and completes the handshake with each. On error it tears
// everything down before returning.
func launchCluster(tc *TCPCluster, shards int) (*tcpRun, error) {
	addr := tc.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := gonet.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("net: cluster listen: %w", err)
	}
	run := &tcpRun{
		ln:      ln,
		conns:   make([]gonet.Conn, shards),
		frs:     make([]*msg.FrameReader, shards),
		timeout: tc.timeout(),
	}
	var token uint64
	if !tc.External {
		var tok [8]byte
		if _, err := rand.Read(tok[:]); err != nil {
			run.teardown()
			return nil, fmt.Errorf("net: cluster token: %w", err)
		}
		token = binary.BigEndian.Uint64(tok[:])
		if err := run.spawn(tc, shards, token); err != nil {
			run.teardown()
			return nil, err
		}
	}
	if err := run.handshake(shards, token); err != nil {
		run.teardown()
		return nil, err
	}
	return run, nil
}

// spawn launches one child process per shard, handing each its
// assignment through the DIMA_NODE_* environment.
func (run *tcpRun) spawn(tc *TCPCluster, shards int, token uint64) error {
	argv := tc.Command
	if len(argv) == 0 {
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("net: cluster re-exec: %w", err)
		}
		argv = []string{self}
	}
	stderr := tc.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	run.procs = make([]*exec.Cmd, 0, shards)
	run.waits = make([]chan error, 0, shards)
	for s := 0; s < shards; s++ {
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Env = append(os.Environ(),
			envNodeAddr+"="+run.ln.Addr().String(),
			envNodeShard+"="+strconv.Itoa(s),
			envNodeShards+"="+strconv.Itoa(shards),
			envNodeToken+"="+strconv.FormatUint(token, 10),
		)
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("net: cluster spawn node %d: %w", s, err)
		}
		wait := make(chan error, 1)
		go func() { wait <- cmd.Wait() }()
		run.procs = append(run.procs, cmd)
		run.waits = append(run.waits, wait)
	}
	return nil
}

// handshake accepts one connection per shard and validates each hello:
// version, token, shard-count agreement, in-range shard index, no
// duplicates. A rejected hello is a setup NodeError.
func (run *tcpRun) handshake(shards int, token uint64) error {
	deadline := time.Now().Add(run.timeout)
	if tl, ok := run.ln.(*gonet.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for got := 0; got < shards; got++ {
		conn, err := run.ln.Accept()
		if err != nil {
			return fmt.Errorf("net: cluster handshake (%d of %d nodes connected): %w%s",
				got, shards, err, run.deadChildren())
		}
		conn.SetReadDeadline(deadline)
		fr := msg.NewFrameReader(conn, 0)
		kind, payload, err := fr.Next()
		if err == nil && kind != frameHello {
			err = fmt.Errorf("first frame is %s, want hello", frameKindName(kind))
		}
		var h msg.Hello
		shard := -1 // the NodeError's shard: unknown until the hello decodes
		if err == nil {
			h, err = msg.DecodeHello(payload)
			if err == nil && h.Shard < shards {
				shard = h.Shard
			}
		}
		if err == nil {
			switch {
			case h.Token != token:
				err = fmt.Errorf("bad launch token")
			case h.Shards != shards:
				err = fmt.Errorf("node believes in %d shards, run has %d", h.Shards, shards)
			case h.Shard < 0 || h.Shard >= shards:
				err = fmt.Errorf("shard index %d out of range [0, %d)", h.Shard, shards)
			case run.conns[h.Shard] != nil:
				err = fmt.Errorf("shard %d connected twice", h.Shard)
			}
		}
		if err != nil {
			conn.Close()
			return &NodeError{Shard: shard, Round: -1, Err: fmt.Errorf("net: cluster handshake: %w", err)}
		}
		run.conns[h.Shard] = conn
		run.frs[h.Shard] = fr
	}
	return nil
}

// deadChildren summarizes already-exited children for handshake errors.
func (run *tcpRun) deadChildren() string {
	out := ""
	for s, wait := range run.waits {
		select {
		case werr := <-wait:
			wait <- werr // keep the result for teardown
			out += fmt.Sprintf("; node %d exited: %v", s, werr)
		default:
		}
	}
	return out
}

// send writes one frame to shard s under the barrier deadline.
func (run *tcpRun) send(s int, kind msg.FrameKind, payload []byte) error {
	conn := run.conns[s]
	conn.SetWriteDeadline(time.Now().Add(run.timeout))
	if err := msg.WriteFrame(conn, kind, payload); err != nil {
		return run.explain(s, err)
	}
	return nil
}

// recv reads shard s's next frame under the barrier deadline, requiring
// kind want; an error frame from the node surfaces as its message.
func (run *tcpRun) recv(s int, want msg.FrameKind) ([]byte, error) {
	run.conns[s].SetReadDeadline(time.Now().Add(run.timeout))
	kind, payload, err := run.frs[s].Next()
	if err != nil {
		return nil, run.explain(s, err)
	}
	if kind == frameError {
		return nil, fmt.Errorf("node reported: %s", payload)
	}
	if kind != want {
		return nil, fmt.Errorf("unexpected %s frame, want %s", frameKindName(kind), frameKindName(want))
	}
	return payload, nil
}

// explain augments a connection error with the child's exit status when
// the process behind it is already gone — turning a bare "connection
// reset" into "node process exited: signal: killed".
func (run *tcpRun) explain(s int, err error) error {
	if s >= len(run.waits) {
		return err
	}
	// A kill and the resulting connection error race; give the wait
	// status a moment to arrive.
	select {
	case werr := <-run.waits[s]:
		run.waits[s] <- werr
		if werr != nil {
			return fmt.Errorf("node process exited (%v) during: %w", werr, err)
		}
		return fmt.Errorf("node process exited during: %w", err)
	case <-time.After(50 * time.Millisecond):
		return err
	}
}

// teardownKillDelay is how long teardown waits for children to exit on
// their own (they see their connection close and leave promptly) before
// escalating to SIGKILL.
const teardownKillDelay = 5 * time.Second

// teardown releases every resource a run acquired: connections, the
// listener, and — blocking until they are reaped — all child processes.
// Safe on partially constructed runs; after it returns no goroutine,
// FD, or child of this run remains.
func (run *tcpRun) teardown() {
	for _, conn := range run.conns {
		if conn != nil {
			conn.Close()
		}
	}
	if run.ln != nil {
		run.ln.Close()
	}
	if len(run.procs) == 0 {
		return
	}
	// All children share one grace deadline: each sees its connection
	// close and should exit on its own well before it expires.
	grace := time.Now().Add(teardownKillDelay)
	for s, wait := range run.waits {
		d := time.Until(grace)
		if d < 0 {
			d = 0
		}
		select {
		case <-wait:
			continue
		case <-time.After(d):
		}
		// Grace expired: kill and reap. Kill on a process that just
		// finished returns an error we can ignore.
		run.procs[s].Process.Kill()
		select {
		case <-wait:
		case <-time.After(teardownKillDelay):
			// Unkillable child (should not happen); abandon the wait
			// rather than hang the caller. The buffered channel lets the
			// wait goroutine finish whenever the kernel reaps it.
		}
	}
}
