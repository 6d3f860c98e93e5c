package net_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
)

// TestMain lets this test binary serve as its own node process: RunTCP
// with an empty Command re-execs the running binary, and MaybeNodeMain
// diverts spawned copies into the node loop before any test runs.
func TestMain(m *testing.M) {
	net.MaybeNodeMain()
	os.Exit(m.Run())
}

func init() {
	net.RegisterNodeFactory("test/gossip/v1", gossipFactory)
	net.RegisterNodeFactory("test/kill/v1", killFactory)
	net.RegisterNodeFactory("test/hang/v1", hangFactory)
	net.RegisterNodeFactory("test/forge/v1", forgeFactory)
	net.RegisterNodeFactory("test/reverse/v1", reverseFactory)
	net.RegisterNodeFactory("test/plain/v1", func(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
		nodes := make([]net.Node, 0, hi-lo)
		for u := lo; u < hi; u++ {
			nodes = append(nodes, plainNode{id: u})
		}
		return nodes, nil
	})
}

// gossipNode is a deterministic test protocol: for `rounds` rounds each
// node broadcasts one message tagged with its id and the round, and
// folds everything it hears into a running sum plus a per-round receipt
// log. The sum and log make up the state it ships every round, so the
// test can compare remote executions field by field against RunSync.
type gossipNode struct {
	id     int
	rounds int
	sum    int64
	log    []int
	sent   int // log entries already shipped (node processes only)
}

func gossipSpec(rounds int) []byte { return binary.AppendUvarint(nil, uint64(rounds)) }

func gossipFactory(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
	rounds, n := binary.Uvarint(spec)
	if n <= 0 || n != len(spec) {
		return nil, fmt.Errorf("bad gossip spec")
	}
	nodes := make([]net.Node, 0, hi-lo)
	for u := lo; u < hi; u++ {
		nodes = append(nodes, &gossipNode{id: u, rounds: int(rounds)})
	}
	return nodes, nil
}

func (n *gossipNode) ID() int { return n.id }

func (n *gossipNode) Done() bool { return len(n.log) >= n.rounds }

func (n *gossipNode) Step(round int, inbox []msg.Message) []msg.Message {
	for _, m := range inbox {
		n.sum += int64(m.From)*1000 + int64(m.Edge) + int64(m.Color)
	}
	n.log = append(n.log, len(inbox))
	if n.Done() {
		return nil
	}
	return []msg.Message{{
		Kind: msg.KindInvite, From: int32(n.id), To: msg.Broadcast,
		Edge: int32(n.id*7 + round), Color: int32(round),
	}}
}

// AppendChanges ships the sum and the log entries added since the
// previous call.
func (n *gossipNode) AppendChanges(buf []byte) []byte {
	if n.sent == len(n.log) {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(n.sum))
	buf = binary.AppendUvarint(buf, uint64(len(n.log)-n.sent))
	for _, v := range n.log[n.sent:] {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	n.sent = len(n.log)
	return buf
}

// gossipState is the coordinator's view of a gossip run: each vertex's
// sum and receipt log, as its node ships them.
type gossipState struct {
	rounds int
	sum    []int64
	log    [][]int
}

// tcpSpec returns the node spec of a RunTCP run of the named factory
// with spec on g, whose nodes gossip for rounds rounds, with a fresh
// gossipState as its state sink.
func tcpSpec(factory string, spec []byte, g *graph.Graph, rounds int) net.NodeSpec {
	st := &gossipState{rounds: rounds, sum: make([]int64, g.N()), log: make([][]int, g.N())}
	return net.NodeSpec{Factory: factory, Spec: spec, State: st}
}

// Done mirrors gossipNode.Done over the shipped logs.
func (s *gossipState) Done() bool {
	for _, l := range s.log {
		if len(l) < s.rounds {
			return false
		}
	}
	return true
}

// Apply loads a blob gossipNode.AppendChanges made.
func (s *gossipState) Apply(u int, data []byte) error {
	sum, c := binary.Uvarint(data)
	if c <= 0 {
		return fmt.Errorf("bad gossip state")
	}
	data = data[c:]
	count, c := binary.Uvarint(data)
	if c <= 0 {
		return fmt.Errorf("bad gossip log count")
	}
	data = data[c:]
	s.sum[u] = int64(sum)
	for i := uint64(0); i < count; i++ {
		v, c := binary.Uvarint(data)
		if c <= 0 {
			return fmt.Errorf("bad gossip log entry")
		}
		data = data[c:]
		s.log[u] = append(s.log[u], int(v))
	}
	if len(data) != 0 {
		return fmt.Errorf("%d trailing bytes in gossip state", len(data))
	}
	return nil
}

// killNode SIGKILLs its own process when its trigger vertex reaches the
// trigger round — the kill -9 regression harness. Only node processes
// ever build it (the coordinator builds no nodes), so the test process
// itself is safe.
type killNode struct {
	gossipNode
	killVertex, killRound int
}

func killSpec(rounds, killVertex, killRound int) []byte {
	buf := binary.AppendUvarint(nil, uint64(rounds))
	buf = binary.AppendUvarint(buf, uint64(killVertex))
	return binary.AppendUvarint(buf, uint64(killRound))
}

func killFactory(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
	var vals [3]uint64
	for i := range vals {
		v, n := binary.Uvarint(spec)
		if n <= 0 {
			return nil, fmt.Errorf("bad kill spec")
		}
		vals[i] = v
		spec = spec[n:]
	}
	nodes := make([]net.Node, 0, hi-lo)
	for u := lo; u < hi; u++ {
		nodes = append(nodes, &killNode{
			gossipNode: gossipNode{id: u, rounds: int(vals[0])},
			killVertex: int(vals[1]),
			killRound:  int(vals[2]),
		})
	}
	return nodes, nil
}

func (n *killNode) Step(round int, inbox []msg.Message) []msg.Message {
	if n.id == n.killVertex && round == n.killRound {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	return n.gossipNode.Step(round, inbox)
}

// hangNode blocks forever at its trigger, simulating a wedged node that
// must be caught by the barrier timeout (its process is then killed by
// teardown, so the sleep never finishes).
type hangNode struct{ killNode }

func hangFactory(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
	nodes, err := killFactory(g, spec, lo, hi)
	for i, n := range nodes {
		nodes[i] = &hangNode{killNode: *n.(*killNode)}
	}
	return nodes, err
}

func (n *hangNode) Step(round int, inbox []msg.Message) []msg.Message {
	if n.id == n.killVertex && round == n.killRound {
		select {}
	}
	return n.gossipNode.Step(round, inbox)
}

// forgeNode sends one message whose From names the next vertex at its
// trigger, breaking the Node contract.
type forgeNode struct{ killNode }

func forgeFactory(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
	nodes, err := killFactory(g, spec, lo, hi)
	for i, n := range nodes {
		nodes[i] = &forgeNode{killNode: *n.(*killNode)}
	}
	return nodes, err
}

func (n *forgeNode) Step(round int, inbox []msg.Message) []msg.Message {
	out := n.gossipNode.Step(round, inbox)
	if n.id == n.killVertex && round == n.killRound {
		out[0].From++
	}
	return out
}

// testGraph builds a deterministic connected graph with some extra
// chords so shards exchange real traffic.
func testGraph(n int) *graph.Graph {
	g := graph.New(n)
	for u := 1; u < n; u++ {
		g.MustAddEdge(u-1, u)
	}
	for u := 0; u+3 < n; u += 2 {
		g.MustAddEdge(u, u+3)
	}
	return g
}

func gossipNodes(g *graph.Graph, rounds int) []net.Node {
	nodes, err := gossipFactory(g, gossipSpec(rounds), 0, g.N())
	if err != nil {
		panic(err)
	}
	return nodes
}

// leakCheck snapshots goroutine and FD counts and verifies both return
// to baseline (teardown leaves no goroutines, FDs, or children).
func leakCheck(t *testing.T) func() {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	fds := countFDs(t)
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			g, f := runtime.NumGoroutine(), countFDs(t)
			if g <= goroutines && f <= fds {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("leak after teardown: %d goroutines (was %d), %d fds (was %d)",
					g, goroutines, f, fds)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		assertNoChildren(t)
	}
}

func countFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc fd accounting: %v", err)
	}
	return len(ents)
}

// assertNoChildren verifies no child process of this test binary
// survives a run (spawned nodes are reaped by teardown).
func assertNoChildren(t *testing.T) {
	t.Helper()
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var kids []string
		for _, task := range tasks {
			b, err := os.ReadFile("/proc/self/task/" + task.Name() + "/children")
			if err == nil {
				kids = append(kids, strings.Fields(string(b))...)
			}
		}
		if len(kids) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("child processes leaked after teardown: pids %v", kids)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunTCPMatchesRunSync is the transport-level equivalence property:
// identical Results, per-round traffic streams, and node state in the
// state sink at every shard count, with and without faults.
func TestRunTCPMatchesRunSync(t *testing.T) {
	g := testGraph(23)
	faults := []net.FaultInjector{nil, net.DropRate{Seed: 7, P: 0.2}}
	for _, fault := range faults {
		var wantTraffic []net.RoundTraffic
		syncNodes := gossipNodes(g, 6)
		wantRes, err := net.RunSync(g, syncNodes, net.Config{
			Fault:   fault,
			Observe: func(rt net.RoundTraffic) { wantTraffic = append(wantTraffic, rt) },
		})
		if err != nil {
			t.Fatalf("RunSync: %v", err)
		}
		for _, shards := range []int{1, 2, 3, 5, 31} {
			t.Run(fmt.Sprintf("fault=%v/shards=%d", fault != nil, shards), func(t *testing.T) {
				defer leakCheck(t)()
				tc := &net.TCPCluster{Nodes: shards, BarrierTimeout: 30 * time.Second}
				var gotTraffic []net.RoundTraffic
				spec := tcpSpec("test/gossip/v1", gossipSpec(6), g, 6)
				st := spec.State.(*gossipState)
				// The sink is in step when the observer sees a round:
				// every node has logged that round.
				lagging := -1
				observe := func(rt net.RoundTraffic) {
					gotTraffic = append(gotTraffic, rt)
					for u, l := range st.log {
						if len(l) != rt.Round+1 && lagging < 0 {
							lagging = u
						}
					}
				}
				gotRes, err := net.RunTCP(tc, spec, g, net.Config{Fault: fault, Observe: observe})
				if err != nil {
					t.Fatalf("RunTCP: %v", err)
				}
				if gotRes != wantRes {
					t.Errorf("Result mismatch:\n tcp  %+v\n sync %+v", gotRes, wantRes)
				}
				if !reflect.DeepEqual(gotTraffic, wantTraffic) {
					t.Errorf("round traffic mismatch:\n tcp  %+v\n sync %+v", gotTraffic, wantTraffic)
				}
				if lagging >= 0 {
					t.Errorf("sink state of node %d lagged its remote node when the observer ran", lagging)
				}
				for u := range st.log {
					want := syncNodes[u].(*gossipNode)
					if st.sum[u] != want.sum || !reflect.DeepEqual(st.log[u], want.log) {
						t.Fatalf("node %d state: tcp sum=%d log=%v, sync sum=%d log=%v",
							u, st.sum[u], st.log[u], want.sum, want.log)
					}
				}
			})
		}
	}
}

// TestRunTCPCancel verifies mid-run cancellation aborts at the same
// round barrier RunSync aborts at, with identical partial results.
func TestRunTCPCancel(t *testing.T) {
	defer leakCheck(t)()
	g := testGraph(17)
	// Cancel from the round-3 observation point: both engines observe
	// rounds at the same barrier, so both abort after round 4.
	run := func(engine func([]net.Node, net.Config) (net.Result, error)) (net.Result, []net.RoundTraffic) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var traffic []net.RoundTraffic
		res, err := engine(gossipNodes(g, 10), net.Config{
			Ctx: ctx,
			Observe: func(rt net.RoundTraffic) {
				traffic = append(traffic, rt)
				if rt.Round == 3 {
					cancel()
				}
			},
		})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		return res, traffic
	}
	wantRes, wantTraffic := run(func(nodes []net.Node, cfg net.Config) (net.Result, error) {
		return net.RunSync(g, nodes, cfg)
	})
	tc := &net.TCPCluster{Nodes: 3}
	gotRes, gotTraffic := run(func(_ []net.Node, cfg net.Config) (net.Result, error) {
		return net.RunTCP(tc, tcpSpec("test/gossip/v1", gossipSpec(10), g, 10), g, cfg)
	})
	if !wantRes.Aborted || gotRes != wantRes {
		t.Errorf("aborted Result mismatch:\n tcp  %+v\n sync %+v", gotRes, wantRes)
	}
	if !reflect.DeepEqual(gotTraffic, wantTraffic) {
		t.Errorf("aborted traffic mismatch:\n tcp  %+v\n sync %+v", gotTraffic, wantTraffic)
	}
}

// TestRunTCPNodeKilled is the kill -9 regression: a node process dying
// mid-round must surface as a NodeError naming the shard and round —
// never a silent partial result — and teardown must reap everything.
func TestRunTCPNodeKilled(t *testing.T) {
	defer leakCheck(t)()
	g := testGraph(20)
	// 4 shards of 5 vertices; vertex 12 (shard 2) kills its process at
	// round 3.
	tc := &net.TCPCluster{Nodes: 4, BarrierTimeout: 10 * time.Second}
	_, err := net.RunTCP(tc, tcpSpec("test/kill/v1", killSpec(50, 12, 3), g, 50), g, net.Config{MaxRounds: 100})
	var ne *net.NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("want *net.NodeError, got %v", err)
	}
	if ne.Shard != 2 || ne.Round != 3 {
		t.Errorf("NodeError names shard %d round %d, want shard 2 round 3 (%v)", ne.Shard, ne.Round, ne)
	}
	if !strings.Contains(err.Error(), "killed") && !strings.Contains(err.Error(), "exited") {
		t.Errorf("error does not mention the process death: %v", err)
	}
}

// TestRunTCPNodeHang verifies a wedged node trips the barrier timeout
// as a typed error instead of hanging the coordinator.
func TestRunTCPNodeHang(t *testing.T) {
	defer leakCheck(t)()
	g := testGraph(12)
	tc := &net.TCPCluster{Nodes: 2, BarrierTimeout: time.Second}
	start := time.Now()
	_, err := net.RunTCP(tc, tcpSpec("test/hang/v1", killSpec(50, 9, 2), g, 50), g, net.Config{MaxRounds: 100})
	var ne *net.NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("want *net.NodeError, got %v", err)
	}
	if ne.Shard != 1 || ne.Round != 2 {
		t.Errorf("NodeError names shard %d round %d, want shard 1 round 2 (%v)", ne.Shard, ne.Round, ne)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("hang detection took %v, want about the 1s barrier timeout", d)
	}
}

// TestRunTCPForgedFrom: a node whose Step returns a message from
// another vertex fails its node process in that round, since the
// coordinator routes each broadcast by its From.
func TestRunTCPForgedFrom(t *testing.T) {
	defer leakCheck(t)()
	g := testGraph(12)
	_, err := net.RunTCP(&net.TCPCluster{Nodes: 2}, tcpSpec("test/forge/v1", killSpec(50, 3, 2), g, 50),
		g, net.Config{MaxRounds: 100})
	var ne *net.NodeError
	if !errors.As(err, &ne) || ne.Shard != 0 || ne.Round != 2 ||
		!strings.Contains(err.Error(), "vertex 3 sent a message from 4") {
		t.Fatalf("want a NodeError for shard 0 round 2 naming the forged sender, got %v", err)
	}
}

// TestRunTCPValidation covers the error paths that must fail before any
// process spawns.
func TestRunTCPValidation(t *testing.T) {
	g := testGraph(6)
	spec := tcpSpec("test/gossip/v1", gossipSpec(2), g, 2)
	t.Run("no cluster", func(t *testing.T) {
		if _, err := net.RunTCP(nil, spec, g, net.Config{}); err == nil {
			t.Error("nil cluster accepted")
		}
	})
	t.Run("zero nodes", func(t *testing.T) {
		if _, err := net.RunTCP(&net.TCPCluster{}, spec, g, net.Config{}); err == nil {
			t.Error("zero node count accepted")
		}
	})
	t.Run("unknown factory", func(t *testing.T) {
		bad := tcpSpec("test/没有/v0", nil, g, 2)
		if _, err := net.RunTCP(&net.TCPCluster{Nodes: 2}, bad, g, net.Config{}); err == nil {
			t.Error("unknown factory accepted")
		}
	})
	t.Run("no state sink", func(t *testing.T) {
		bad := net.NodeSpec{Factory: spec.Factory, Spec: spec.Spec}
		if _, err := net.RunTCP(&net.TCPCluster{Nodes: 2}, bad, g, net.Config{}); err == nil ||
			!strings.Contains(err.Error(), "state sink") {
			t.Errorf("run without a state sink: err = %v", err)
		}
	})
	t.Run("non-StateNode", func(t *testing.T) {
		// Node processes refuse a factory whose nodes cannot ship state.
		defer leakCheck(t)()
		plain := tcpSpec("test/plain/v1", nil, g, 2)
		_, err := net.RunTCP(&net.TCPCluster{Nodes: 2}, plain, g, net.Config{})
		var ne *net.NodeError
		if !errors.As(err, &ne) || ne.Round != -1 || !strings.Contains(err.Error(), "want StateNode") {
			t.Errorf("non-StateNode accepted, or refused other than at setup: %v", err)
		}
	})
	t.Run("removal holes", func(t *testing.T) {
		h := testGraph(6)
		if _, err := h.RemoveEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := net.RunTCP(&net.TCPCluster{Nodes: 2}, spec, h, net.Config{}); err == nil {
			t.Error("graph with removal holes accepted")
		}
	})
	t.Run("recycled edge ids", func(t *testing.T) {
		// RemoveEdge + AddEdge refills the hole with the same id but
		// appends the edge to both adjacency lists: hole-free, yet out
		// of the edge-id order node processes rebuild the graph in.
		h := testGraph(6)
		for _, id := range []graph.EdgeID{0, 3} {
			e := h.EdgeAt(id)
			if _, err := h.RemoveEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			h.MustAddEdge(e.U, e.V)
		}
		if h.EdgeIDBound() != h.M() {
			t.Fatal("recycling left removal holes")
		}
		_, err := net.RunTCP(&net.TCPCluster{Nodes: 2}, spec, h, net.Config{})
		if err == nil || !strings.Contains(err.Error(), "graph.Compacted") {
			t.Errorf("graph with recycled edge ids: err = %v, want a pointer to graph.Compacted", err)
		}
	})
}

type plainNode struct{ id int }

func (p plainNode) ID() int                               { return p.id }
func (p plainNode) Done() bool                            { return true }
func (p plainNode) Step(int, []msg.Message) []msg.Message { return nil }

// TestRunTCPInitialDone checks the pre-spawn fast paths: a state sink
// whose nodes are all done terminates, and a pre-canceled context
// aborts, both without launching any process.
func TestRunTCPInitialDone(t *testing.T) {
	g := testGraph(8)
	spec := tcpSpec("test/gossip/v1", gossipSpec(0), g, 0)
	res, err := net.RunTCP(&net.TCPCluster{Nodes: 2}, spec, g, net.Config{})
	if err != nil || !res.Terminated || res.Rounds != 0 {
		t.Errorf("all-done run: res=%+v err=%v", res, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = net.RunTCP(&net.TCPCluster{Nodes: 2}, tcpSpec("test/gossip/v1", gossipSpec(3), g, 3), g, net.Config{Ctx: ctx})
	if err != nil || !res.Aborted || res.Rounds != 0 {
		t.Errorf("pre-canceled run: res=%+v err=%v", res, err)
	}
}

// TestRunTCPExternalMode drives the External arm in-process: the test
// dials the coordinator itself, standing in for operator-launched
// dimanode processes.
func TestRunTCPExternalMode(t *testing.T) {
	defer leakCheck(t)()
	g := testGraph(14)
	const shards = 2
	// External mode publishes no address before RunTCP returns, so pick
	// a loopback port up front by binding and releasing it.
	addr := freeLoopbackAddr(t)
	tc := &net.TCPCluster{Nodes: shards, External: true, Listen: addr, BarrierTimeout: 10 * time.Second}
	// The "operator-launched" node halves run as goroutines of this
	// process, retrying until the coordinator has bound its listener.
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := net.NodeMain(addr, s, shards, 0); err == nil {
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
		}(s)
	}
	syncNodes := gossipNodes(g, 5)
	wantRes, err := net.RunSync(g, syncNodes, net.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := net.RunTCP(tc, tcpSpec("test/gossip/v1", gossipSpec(5), g, 5), g, net.Config{})
	wg.Wait()
	if err != nil {
		t.Fatalf("RunTCP external: %v", err)
	}
	if gotRes != wantRes {
		t.Errorf("external Result mismatch:\n tcp  %+v\n sync %+v", gotRes, wantRes)
	}
}

func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	l, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// dialRetry dials addr until the coordinator has bound its listener.
func dialRetry(addr string) (stdnet.Conn, error) {
	var err error
	for i := 0; i < 200; i++ {
		var c stdnet.Conn
		if c, err = stdnet.DialTimeout("tcp", addr, time.Second); err == nil {
			return c, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, err
}

// TestRunTCPExternalOldHandshake: a node built against the version-1
// frame grammar (per-delivery round frames) must be refused at setup
// with a typed NodeError, not misread later.
func TestRunTCPExternalOldHandshake(t *testing.T) {
	if msg.HandshakeVersion == 1 {
		t.Fatal("handshake version still 1")
	}
	defer leakCheck(t)()
	g := testGraph(10)
	addr := freeLoopbackAddr(t)
	tc := &net.TCPCluster{Nodes: 2, External: true, Listen: addr, BarrierTimeout: 10 * time.Second}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := dialRetry(addr)
		if err != nil {
			return
		}
		defer conn.Close()
		hello := msg.Hello{Shard: 0, Shards: 2}.Append(nil)
		hello[4] = 1 // the version byte follows the 4-byte magic
		if msg.WriteFrame(conn, 0x01, hello) == nil {
			io.Copy(io.Discard, conn) // until the coordinator hangs up
		}
	}()
	_, err := net.RunTCP(tc, tcpSpec("test/gossip/v1", gossipSpec(3), g, 3), g, net.Config{})
	wg.Wait()
	var ne *net.NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("want *net.NodeError, got %v", err)
	}
	if ne.Round != -1 || !strings.Contains(err.Error(), "handshake version 1") {
		t.Errorf("want a setup failure naming the handshake version, got round %d: %v", ne.Round, err)
	}
}

// faultCall is one FaultInjector.Drop invocation.
type faultCall struct {
	round int
	m     msg.Message
	to    int
}

// recordingFault logs every Drop call of the injector it wraps, in
// order — the sequence a stateful injector would observe.
type recordingFault struct {
	inner net.FaultInjector
	calls []faultCall
}

func (r *recordingFault) Drop(round int, m msg.Message, to int) bool {
	r.calls = append(r.calls, faultCall{round: round, m: m, to: to})
	return r.inner.Drop(round, m, to)
}

// wholeSegmentDropped reports whether side cuts some sender off from
// every one of its neighbors in some shard of a k-way split, so the
// coordinator has a record whose whole segment is dropped.
func wholeSegmentDropped(g *graph.Graph, side []bool, k int) bool {
	n := g.N()
	for u := 0; u < n; u++ {
		for s := 0; s < k; s++ {
			lo, hi := s*n/k, (s+1)*n/k
			seen, cut := 0, 0
			for _, v := range g.Neighbors(u) {
				if v >= lo && v < hi {
					seen++
					if side[v] != side[u] {
						cut++
					}
				}
			}
			if seen > 0 && cut == seen {
				return true
			}
		}
	}
	return false
}

// TestRunTCPFaultCallOrder holds RunTCP to the promise in
// docs/CLUSTER.md: Fault.Drop is called with the same (round, message,
// receiver) sequence as RunSync, so even stateful injectors behave
// identically; Result, traffic, and node state match too.
func TestRunTCPFaultCallOrder(t *testing.T) {
	g := testGraph(23)
	side := make([]bool, g.N())
	side[13], side[15] = true, true
	faults := []struct {
		name  string
		fault net.FaultInjector
	}{
		{"droprate", net.DropRate{Seed: 7, P: 0.2}},
		{"partition", net.Partition{Side: side}},
	}
	for _, fc := range faults {
		want := &recordingFault{inner: fc.fault}
		var wantTraffic []net.RoundTraffic
		syncNodes := gossipNodes(g, 6)
		wantRes, err := net.RunSync(g, syncNodes, net.Config{
			Fault:   want,
			Observe: func(rt net.RoundTraffic) { wantTraffic = append(wantTraffic, rt) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3, 5} {
			t.Run(fmt.Sprintf("%s/shards=%d", fc.name, shards), func(t *testing.T) {
				if fc.name == "partition" && !wholeSegmentDropped(g, side, shards) {
					t.Fatalf("partition drops no whole segment at %d shards", shards)
				}
				defer leakCheck(t)()
				got := &recordingFault{inner: fc.fault}
				var gotTraffic []net.RoundTraffic
				spec := tcpSpec("test/gossip/v1", gossipSpec(6), g, 6)
				st := spec.State.(*gossipState)
				gotRes, err := net.RunTCP(&net.TCPCluster{Nodes: shards}, spec, g, net.Config{
					Fault:   got,
					Observe: func(rt net.RoundTraffic) { gotTraffic = append(gotTraffic, rt) },
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.calls, want.calls) {
					t.Errorf("Drop call sequence differs: tcp %d calls, sync %d", len(got.calls), len(want.calls))
				}
				if gotRes != wantRes {
					t.Errorf("Result mismatch:\n tcp  %+v\n sync %+v", gotRes, wantRes)
				}
				if !reflect.DeepEqual(gotTraffic, wantTraffic) {
					t.Errorf("round traffic mismatch:\n tcp  %+v\n sync %+v", gotTraffic, wantTraffic)
				}
				for u := range st.log {
					want := syncNodes[u].(*gossipNode)
					if st.sum[u] != want.sum || !reflect.DeepEqual(st.log[u], want.log) {
						t.Fatalf("node %d state: tcp sum=%d log=%v, sync sum=%d log=%v",
							u, st.sum[u], st.log[u], want.sum, want.log)
					}
				}
			})
		}
	}
}

// TestRunShardFaultCallOrder: RunShard at one worker builds its
// records with the router RunTCP's coordinator uses, and asks Fault.Drop
// with RunSync's (round, message, receiver) sequence too.
func TestRunShardFaultCallOrder(t *testing.T) {
	g := testGraph(23)
	side := make([]bool, g.N())
	side[13], side[15] = true, true
	for _, fault := range []net.FaultInjector{net.DropRate{Seed: 7, P: 0.2}, net.Partition{Side: side}} {
		want := &recordingFault{inner: fault}
		if _, err := net.RunSync(g, gossipNodes(g, 6), net.Config{Fault: want}); err != nil {
			t.Fatal(err)
		}
		got := &recordingFault{inner: fault}
		if _, err := net.RunShard(g, gossipNodes(g, 6), net.Config{Fault: got, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if len(want.calls) == 0 || !reflect.DeepEqual(got.calls, want.calls) {
			t.Errorf("%T: Drop call sequence differs: shard %d calls, sync %d", fault, len(got.calls), len(want.calls))
		}
	}
}

// hostileRound hand-encodes a round frame carrying one record: uvarint
// round, uvarint record count, then uvarint sender, the message,
// uvarint drop count, and the dropped vertices.
func hostileRound(from int, drops []int) []byte {
	return appendRecord([]byte{0, 1}, from, 1, drops)
}

// appendRecord appends one round-frame record: uvarint sender from, its
// invitation on edge, uvarint drop count and the drops.
func appendRecord(buf []byte, from, edge int, drops []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = msg.Message{Kind: msg.KindInvite, From: int32(from), To: msg.Broadcast, Edge: int32(edge)}.Append(buf)
	buf = binary.AppendUvarint(buf, uint64(len(drops)))
	for _, v := range drops {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// serveThroughProxy runs shard 0's node half behind a man in the middle
// that relays every frame but swaps the first frame of the given kind,
// in whichever direction it travels, for payload. It returns the node's
// ServeNode error once everything has shut down.
func serveThroughProxy(addr string, shards int, kind msg.FrameKind, payload []byte) <-chan error {
	res := make(chan error, 1)
	go func() {
		coord, err := dialRetry(addr)
		if err != nil {
			res <- err
			return
		}
		nodeEnd, proxyEnd := stdnet.Pipe()
		served := make(chan error, 1)
		go func() { served <- net.ServeNode(nodeEnd, 0, shards, 0) }()
		up := make(chan struct{})
		go func() {
			relayFrames(coord, proxyEnd, kind, payload)
			close(up)
		}()
		relayFrames(proxyEnd, coord, kind, payload)
		proxyEnd.Close()
		coord.Close()
		<-up
		res <- <-served
	}()
	return res
}

// relayFrames copies frames from src to dst until either side fails,
// swapping the first frame of the given kind for payload.
func relayFrames(dst io.Writer, src io.Reader, kind msg.FrameKind, payload []byte) {
	fr := msg.NewFrameReader(src, 0)
	swapped := false
	for {
		k, p, err := fr.Next()
		if err != nil {
			return
		}
		if k == kind && !swapped {
			p, swapped = payload, true
		}
		if msg.WriteFrame(dst, k, p) != nil {
			return
		}
	}
}

// hostileTwoShardRun runs the gossip protocol on g with two external
// node processes, shard 0 behind serveThroughProxy, and returns the
// coordinator's error and shard 0's ServeNode error.
func hostileTwoShardRun(t *testing.T, g *graph.Graph, kind msg.FrameKind, payload []byte) (error, error) {
	t.Helper()
	addr := freeLoopbackAddr(t)
	tc := &net.TCPCluster{Nodes: 2, External: true, Listen: addr, BarrierTimeout: 10 * time.Second}
	node0 := serveThroughProxy(addr, 2, kind, payload)
	node1 := make(chan error, 1)
	go func() {
		conn, err := dialRetry(addr)
		if err != nil {
			node1 <- err
			return
		}
		node1 <- net.ServeNode(conn, 1, 2, 0)
	}()
	_, err := net.RunTCP(tc, tcpSpec("test/gossip/v1", gossipSpec(4), g, 4), g, net.Config{})
	nodeErr := <-node0
	<-node1
	return err, nodeErr
}

// TestRunTCPHostileRoundFrame feeds a node process round frames the
// coordinator can never send. Each must end the node with an error
// frame and surface as a NodeError for shard 0, round 0 — never a
// panic, never a silent misdelivery.
func TestRunTCPHostileRoundFrame(t *testing.T) {
	g := testGraph(14) // 2 shards: [0, 7) and [7, 14)
	// Vertex 7's neighbors in shard 0, in adjacency order.
	var seg []int
	for _, v := range g.Neighbors(7) {
		if v < 7 {
			seg = append(seg, v)
		}
	}
	if len(seg) < 2 || g.HasEdge(7, 5) || g.HasEdge(12, 6) || g.Degree(12) == 0 {
		t.Fatalf("test graph lost its shape: vertex 7 neighbors %v", g.Neighbors(7))
	}
	cases := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"sender out of range", hostileRound(14, nil), "graph has 14"},
		{"sender without neighbor in shard", hostileRound(12, nil), "no neighbor in shard"},
		{"drop outside shard", hostileRound(7, []int{8}), "vertex 8 is not its next neighbor"},
		{"drop of non-neighbor", hostileRound(7, []int{5}), "vertex 5 is not its next neighbor"},
		{"drops out of order", hostileRound(7, []int{seg[1], seg[0]}), fmt.Sprintf("vertex %d is not its next neighbor", seg[0])},
		{"duplicate drop", hostileRound(7, []int{seg[0], seg[0]}), fmt.Sprintf("vertex %d is not its next neighbor", seg[0])},
		{"records of one sender out of order", appendRecord(appendRecord([]byte{0, 2}, 7, 2, nil), 7, 1, nil),
			"records from vertex 7 out of msg.Less order"},
		{"trailing bytes", append(hostileRound(7, nil), 0), "trailing bytes"},
		{"truncated record", hostileRound(7, []int{seg[0]})[:5], "net: "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer leakCheck(t)()
			err, nodeErr := hostileTwoShardRun(t, g, 0x04, c.frame)
			var ne *net.NodeError
			if !errors.As(err, &ne) {
				t.Fatalf("want *net.NodeError, got %v", err)
			}
			if ne.Shard != 0 || ne.Round != 0 || !strings.Contains(err.Error(), "node reported") ||
				!strings.Contains(err.Error(), c.want) {
				t.Errorf("want shard 0 round 0 relaying %q, got %v", c.want, err)
			}
			if nodeErr == nil || !strings.Contains(nodeErr.Error(), c.want) {
				t.Errorf("node returned %v, want an error containing %q", nodeErr, c.want)
			}
		})
	}
}

// hostileOutbox hand-encodes shard 0's round-0 outbox frame: uvarint
// round, flags byte, uvarint broadcast count, then per broadcast the
// uvarint sender senders[i][0] and an invitation whose From is
// senders[i][1] on edge len(senders)-i, so that two broadcasts of one
// sender are out of msg.Less order, uvarint entry count, then (uvarint
// vertex, uvarint blob length, blob) entries.
func hostileOutbox(senders [][2]int, vertices []int, blobs [][]byte) []byte {
	buf := []byte{0, 0}
	buf = binary.AppendUvarint(buf, uint64(len(senders)))
	for i, s := range senders {
		buf = binary.AppendUvarint(buf, uint64(s[0]))
		buf = msg.Message{Kind: msg.KindInvite, From: int32(s[1]), To: msg.Broadcast, Edge: int32(len(senders) - i)}.Append(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(vertices)))
	for i, v := range vertices {
		buf = binary.AppendUvarint(buf, uint64(v))
		buf = binary.AppendUvarint(buf, uint64(len(blobs[i])))
		buf = append(buf, blobs[i]...)
	}
	return buf
}

// TestRunTCPHostileStateSection feeds the coordinator outbox frames
// whose broadcasts or state section no node process can send. Each must fail the run
// with a NodeError for shard 0, round 0 — never a panic, never a state
// sink silently written out of step.
func TestRunTCPHostileStateSection(t *testing.T) {
	g := testGraph(14) // 2 shards: [0, 7) and [7, 14)
	state := []byte{5, 1, 2}
	cases := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"vertex outside shard", hostileOutbox(nil, []int{9}, [][]byte{state}), "state of vertex 9 outside shard [0, 7)"},
		{"vertex out of order", hostileOutbox(nil, []int{3, 2}, [][]byte{state, state}), "state of vertex 2 after vertex 3"},
		{"repeated vertex", hostileOutbox(nil, []int{3, 3}, [][]byte{state, state}), "state of vertex 3 after vertex 3"},
		{"blob the twin rejects", hostileOutbox(nil, []int{4}, [][]byte{{5, 0, 7}}), "state of vertex 4: 1 trailing bytes in gossip state"},
		{"truncated blob", hostileOutbox(nil, []int{4}, [][]byte{state})[:6], "net: state blob of 3 bytes exceeds"},
		{"broadcast outside shard", hostileOutbox([][2]int{{9, 9}}, nil, nil), "broadcast from vertex 9 outside shard [0, 7)"},
		{"broadcast out of order", hostileOutbox([][2]int{{3, 3}, {2, 2}}, nil, nil), "broadcast from vertex 2 after vertex 3"},
		{"one sender's broadcasts out of order", hostileOutbox([][2]int{{3, 3}, {3, 3}}, nil, nil),
			"broadcasts from vertex 3 out of msg.Less order"},
		{"broadcast From mismatch", hostileOutbox([][2]int{{3, 4}}, nil, nil), "broadcast from vertex 3 carries a message from 4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer leakCheck(t)()
			err, _ := hostileTwoShardRun(t, g, 0x05, c.frame)
			var ne *net.NodeError
			if !errors.As(err, &ne) {
				t.Fatalf("want *net.NodeError, got %v", err)
			}
			if ne.Shard != 0 || ne.Round != 0 || !strings.Contains(err.Error(), c.want) {
				t.Errorf("want shard 0 round 0 failing with %q, got %v", c.want, err)
			}
		})
	}
}
