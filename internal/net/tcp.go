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

// StateNode is a Node whose state can cross a process boundary. The
// TCP engine requires it: node processes run the protocol on their own
// instances, and after every round the coordinator applies each remote
// instance's changes to the local twin it constructed (but never
// steps), so the round observer during the run and the caller's
// post-run assembly see exactly the state an in-process engine would
// have produced.
type StateNode interface {
	Node
	// AppendChanges appends a blob of the state that changed since the
	// previous call (since construction on the first), and nothing when
	// none did. Node processes call it after each of the node's Steps.
	// Only the state the observer and the post-run assembly read need
	// cross; transient negotiation state does not.
	AppendChanges(buf []byte) []byte
	// ApplyChanges loads a blob AppendChanges made on the remote
	// instance into this twin; data is only valid during the call.
	// Strict: a blob no remote instance can make is an error.
	ApplyChanges(data []byte) error
}

// NodeSpec tells node processes how to rebuild their vertex shard: a
// registered NodeFactory name plus an opaque options blob the factory
// decodes. The pair must determine node construction completely — with
// the graph and shard bounds from the welcome frame, a remote factory
// call must yield nodes byte-identical to the coordinator's own.
type NodeSpec struct {
	Factory string
	Spec    []byte
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

// Engine adapts the cluster to the Engine signature, closing over the
// node spec the way RunSync closes over nothing.
func (tc *TCPCluster) Engine(spec NodeSpec) Engine {
	return func(g *graph.Graph, nodes []Node, cfg Config) (Result, error) {
		return RunTCP(tc, spec, g, nodes, cfg)
	}
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
// step their vertex shards. Routing is split: for each broadcast the
// coordinator sends one record per destination shard holding a
// surviving receiver — the sender, the message bytes as the node sent
// them, and the receivers the fault injector dropped — and each node
// process expands the records over its own copy of the graph into a
// flat inbox arena. Records travel in ascending sender order, so every
// inbox fills in RunSync's order. Results, colorings, and per-round
// telemetry are byte-identical to RunSync at every shard count,
// including under faults and mid-round cancel.
//
// Node processes rebuild the graph from its edge list in edge-id
// order, so RunTCP requires a graph whose adjacency lists are in that
// order too: no removal holes, and no edge ids recycled by RemoveEdge
// and AddEdge. graph.Compacted rebuilds any graph into that form.
//
// The nodes slice plays the role it does for the in-process engines —
// except these instances are never stepped: every outbox frame carries
// the state its shard's nodes changed in the round, which is applied to
// their local twins before the round reaches cfg.Observe, so every Node
// must implement StateNode.
func RunTCP(tc *TCPCluster, spec NodeSpec, g *graph.Graph, nodes []Node, cfg Config) (Result, error) {
	if err := validate(g, nodes); err != nil {
		return Result{}, err
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
	for i, n := range nodes {
		if _, ok := n.(StateNode); !ok {
			return Result{}, fmt.Errorf("net: node %d (%T) does not implement StateNode", i, n)
		}
	}
	if tc == nil || tc.Nodes < 1 {
		return Result{}, fmt.Errorf("net: tcp cluster needs at least 1 node process")
	}
	if _, ok := lookupNodeFactory(spec.Factory); !ok {
		return Result{}, fmt.Errorf("net: node factory %q not registered", spec.Factory)
	}

	shards := min(tc.Nodes, g.N())
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
	// runRounds makes its initial all-done and cancel checks on the
	// local twins before start spawns any process: construction is
	// deterministic, so the twins' initial state equals the remote
	// instances'.
	res, err := runRounds(nodes, cfg, func() (roundFunc, error) {
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
		router := newTCPRouter(g, owner, shards, cfg.Fault)
		var ob outbox
		return func(round int, rt *RoundTraffic) (bool, error) {
			for s := 0; s < shards; s++ {
				run.buf = router.frame(run.buf[:0], round, s)
				if err := run.send(s, frameRound, run.buf); err != nil {
					return false, &NodeError{Shard: s, Round: round, Err: err}
				}
			}
			doneAll := true
			for s := 0; s < shards; s++ {
				payload, err := run.recv(s, frameOutbox)
				if err == nil {
					err = ob.decode(payload)
				}
				if err == nil {
					err = ob.apply(round, bounds[s], bounds[s+1], nodes)
				}
				if err != nil {
					return false, &NodeError{Shard: s, Round: round, Err: err}
				}
				doneAll = doneAll && ob.done
				for _, b := range ob.bs {
					if b.from < bounds[s] || b.from >= bounds[s+1] {
						return false, &NodeError{Shard: s, Round: round,
							Err: fmt.Errorf("broadcast from vertex %d outside shard [%d, %d)",
								b.from, bounds[s], bounds[s+1])}
					}
					rt.count(b.m.Kind, int64(b.m.Size()), router.route(round, b))
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

// apply checks one shard's decoded outbox for round and applies its
// state entries, which must come from the shard's vertex range [lo, hi),
// to the twins.
func (ob *outbox) apply(round, lo, hi int, nodes []Node) error {
	if ob.round != round {
		return fmt.Errorf("outbox for round %d, want %d", ob.round, round)
	}
	for _, st := range ob.states {
		if st.vertex < lo || st.vertex >= hi {
			return fmt.Errorf("state of vertex %d outside shard [%d, %d)", st.vertex, lo, hi)
		}
		if err := nodes[st.vertex].(StateNode).ApplyChanges(st.blob); err != nil {
			return fmt.Errorf("state of vertex %d: %w", st.vertex, err)
		}
	}
	return nil
}

// tcpRouter is the coordinator's routing stage. Each broadcast becomes
// one record per destination shard holding a surviving receiver,
// encoded straight into that shard's next round frame. The fault
// injector is asked about every delivery here, in RunSync's call
// order (ascending sender, then adjacency order), and its verdicts
// travel as drop lists, so node processes never see it.
type tcpRouter struct {
	g        *graph.Graph
	owner    []int32
	segs     shardSegments
	fault    FaultInjector
	body     [][]byte // per destination shard: the next round frame's records
	count    []int    // per destination shard: records in body
	dropped  []int32  // one broadcast's dropped receivers, adjacency order
	segDrops []int32  // the part of dropped inside one segment
}

func newTCPRouter(g *graph.Graph, owner []int32, shards int, fault FaultInjector) *tcpRouter {
	return &tcpRouter{
		g:     g,
		owner: owner,
		segs:  buildShardSegments(g, owner, shards, nil),
		fault: fault,
		body:  make([][]byte, shards),
		count: make([]int, shards),
	}
}

// route appends b's records to the pending round frames and returns
// how many of its deliveries survived the fault injector.
func (r *tcpRouter) route(round int, b broadcast) int64 {
	if r.fault != nil {
		r.dropped = askDrops(r.fault, round, b.m, r.g.Neighbors(b.from), r.dropped[:0])
	}
	for _, sg := range r.segs.of(b.from) {
		drops := r.segDrops[:0]
		if len(r.dropped) > 0 {
			drops = appendOwned(drops, r.dropped, r.owner, sg.dst)
			r.segDrops = drops
			if int32(len(drops)) == sg.hi-sg.lo {
				continue // every receiver in this shard dropped
			}
		}
		r.body[sg.dst] = appendRecord(r.body[sg.dst], b.from, b.raw, drops)
		r.count[sg.dst]++
	}
	return int64(r.g.Degree(b.from) - len(r.dropped))
}

// frame appends shard d's round frame payload to buf and empties d's
// pending records.
func (r *tcpRouter) frame(buf []byte, round, d int) []byte {
	buf = appendRound(buf, round, r.count[d], r.body[d])
	r.body[d] = r.body[d][:0]
	r.count[d] = 0
	return buf
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
