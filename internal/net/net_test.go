package net

import (
	"runtime"
	"sync"
	"testing"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/msg"
)

// echoNode broadcasts one message in round 0 carrying its id, then
// collects everything it hears for a fixed number of rounds.
type echoNode struct {
	id     int
	rounds int
	heard  []msg.Message
	mu     sync.Mutex
}

func (e *echoNode) ID() int { return e.id }

func (e *echoNode) Step(round int, inbox []msg.Message) []msg.Message {
	e.mu.Lock()
	e.heard = append(e.heard, inbox...)
	e.mu.Unlock()
	if round == 0 {
		return []msg.Message{{Kind: msg.KindUpdate, From: int32(e.id), To: msg.Broadcast, Edge: -1, Color: -1}}
	}
	return nil
}

func (e *echoNode) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.heard) > 0 || e.rounds > 0
}

func echoNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &echoNode{id: i}
	}
	return nodes
}

// shardWith pins RunShard to a fixed worker count so the shared engine
// tests cover single-shard and multi-shard (cross-shard merge) layouts.
func shardWith(workers int) Engine {
	return func(g *graph.Graph, nodes []Node, cfg Config) (Result, error) {
		cfg.Workers = workers
		return RunShard(g, nodes, cfg)
	}
}

// oversubscribed is a shard worker count above GOMAXPROCS, so the
// workers' goroutines interleave on shared processors (under -race
// too).
func oversubscribed() int { return runtime.GOMAXPROCS(0) + 2 }

func engines() map[string]Engine {
	return map[string]Engine{
		"sync":          RunSync,
		"shard":         RunShard,
		"shard-1":       shardWith(1),
		"shard-3":       shardWith(3),
		"shard-oversub": shardWith(oversubscribed()),
	}
}

func TestValidation(t *testing.T) {
	g := gen.Path(3)
	for name, run := range engines() {
		if _, err := run(g, echoNodes(2), Config{}); err == nil {
			t.Fatalf("%s: accepted wrong node count", name)
		}
		nodes := echoNodes(3)
		nodes[1] = nil
		if _, err := run(g, nodes, Config{}); err == nil {
			t.Fatalf("%s: accepted nil node", name)
		}
		nodes = echoNodes(3)
		nodes[1].(*echoNode).id = 5
		if _, err := run(g, nodes, Config{}); err == nil {
			t.Fatalf("%s: accepted misnumbered node", name)
		}
	}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	// Star: center 0 with 3 leaves. Leaf broadcasts reach only the
	// center; the center's broadcast reaches every leaf.
	g := gen.Star(4)
	for name, run := range engines() {
		nodes := echoNodes(4)
		res, err := run(g, nodes, Config{MaxRounds: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Terminated {
			t.Fatalf("%s: did not terminate", name)
		}
		center := nodes[0].(*echoNode)
		if len(center.heard) != 3 {
			t.Fatalf("%s: center heard %d messages, want 3", name, len(center.heard))
		}
		for i := 1; i < 4; i++ {
			leaf := nodes[i].(*echoNode)
			if len(leaf.heard) != 1 || leaf.heard[0].From != 0 {
				t.Fatalf("%s: leaf %d heard %v", name, i, leaf.heard)
			}
		}
		if res.Messages != 4 {
			t.Fatalf("%s: %d broadcasts, want 4", name, res.Messages)
		}
		if res.Deliveries != 6 {
			t.Fatalf("%s: %d deliveries, want 6", name, res.Deliveries)
		}
	}
}

func TestInboxSorted(t *testing.T) {
	// A triangle where 1 and 2 both send to 0 in round 0; node 0 must
	// see them sorted by From regardless of engine scheduling.
	g := gen.Complete(3)
	for name, run := range engines() {
		var got []msg.Message
		var mu sync.Mutex
		nodes := []Node{
			&fnNode{id: 0, step: func(round int, inbox []msg.Message) []msg.Message {
				if round == 1 {
					mu.Lock()
					got = append([]msg.Message(nil), inbox...)
					mu.Unlock()
				}
				return nil
			}, done: func() bool { return true }},
			&fnNode{id: 1, step: func(round int, inbox []msg.Message) []msg.Message {
				if round == 0 {
					return []msg.Message{{Kind: msg.KindInvite, From: 1, To: 0, Edge: 1, Color: 1}}
				}
				return nil
			}, done: func() bool { return true }},
			&fnNode{id: 2, step: func(round int, inbox []msg.Message) []msg.Message {
				if round == 0 {
					return []msg.Message{{Kind: msg.KindInvite, From: 2, To: 0, Edge: 2, Color: 2}}
				}
				return nil
			}, done: func() bool { return true }},
		}
		// Force at least 2 rounds: done only after round 1.
		fin := false
		nodes[0].(*fnNode).done = func() bool { return fin }
		res, err := run(g, nodes, Config{MaxRounds: 3})
		_ = res
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		if len(got) != 2 || got[0].From != 1 || got[1].From != 2 {
			t.Fatalf("%s: inbox %v not sorted/complete", name, got)
		}
		mu.Unlock()
		fin = false
	}
}

// fnNode adapts closures to Node for scripted tests.
type fnNode struct {
	id   int
	step func(int, []msg.Message) []msg.Message
	done func() bool
}

func (f *fnNode) ID() int                                    { return f.id }
func (f *fnNode) Step(r int, in []msg.Message) []msg.Message { return f.step(r, in) }
func (f *fnNode) Done() bool                                 { return f.done() }

func TestMaxRoundsBound(t *testing.T) {
	g := gen.Path(2)
	for name, run := range engines() {
		nodes := []Node{
			&fnNode{id: 0, step: func(int, []msg.Message) []msg.Message { return nil },
				done: func() bool { return false }},
			&fnNode{id: 1, step: func(int, []msg.Message) []msg.Message { return nil },
				done: func() bool { return false }},
		}
		res, err := run(g, nodes, Config{MaxRounds: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Terminated {
			t.Fatalf("%s: reported termination for never-done nodes", name)
		}
		if res.Rounds != 7 {
			t.Fatalf("%s: ran %d rounds, want 7", name, res.Rounds)
		}
	}
}

func TestImmediateTermination(t *testing.T) {
	g := gen.Path(3)
	for name, run := range engines() {
		nodes := make([]Node, 3)
		for i := range nodes {
			i := i
			nodes[i] = &fnNode{id: i,
				step: func(int, []msg.Message) []msg.Message { t.Errorf("%s: Step called on pre-done node", name); return nil },
				done: func() bool { return true }}
		}
		res, err := run(g, nodes, Config{MaxRounds: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Terminated || res.Rounds != 0 {
			t.Fatalf("%s: res = %+v, want immediate termination", name, res)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(0)
	for name, run := range engines() {
		res, err := run(g, nil, Config{})
		if err != nil || !res.Terminated {
			t.Fatalf("%s: empty graph: %v %+v", name, err, res)
		}
	}
}

// dropAll drops every delivery to a specific vertex.
type dropAll struct{ victim int }

func (d dropAll) Drop(round int, m msg.Message, to int) bool { return to == d.victim }

func TestFaultInjection(t *testing.T) {
	g := gen.Star(4)
	for name, run := range engines() {
		nodes := echoNodes(4)
		res, err := run(g, nodes, Config{MaxRounds: 5, Fault: dropAll{victim: 0}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		center := nodes[0].(*echoNode)
		if len(center.heard) != 0 {
			t.Fatalf("%s: center heard %d messages despite drop-all", name, len(center.heard))
		}
		// Leaves still hear the center.
		for i := 1; i < 4; i++ {
			if len(nodes[i].(*echoNode).heard) != 1 {
				t.Fatalf("%s: leaf %d deliveries wrong", name, i)
			}
		}
		if res.Deliveries != 3 {
			t.Fatalf("%s: deliveries = %d, want 3", name, res.Deliveries)
		}
	}
}

func TestBytesCounted(t *testing.T) {
	g := gen.Path(2)
	m := msg.Message{Kind: msg.KindUpdate, From: 0, To: msg.Broadcast, Edge: -1, Color: -1}
	m.SetPaints([]msg.Paint{{Edge: 3, Color: 1}})
	for name, run := range engines() {
		sent := false
		nodes := []Node{
			&fnNode{id: 0, step: func(r int, _ []msg.Message) []msg.Message {
				if r == 0 {
					sent = true
					return []msg.Message{m}
				}
				return nil
			}, done: func() bool { return sent }},
			&fnNode{id: 1, step: func(int, []msg.Message) []msg.Message { return nil },
				done: func() bool { return true }},
		}
		res, err := run(g, nodes, Config{MaxRounds: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Bytes != int64(m.Size()) {
			t.Fatalf("%s: bytes = %d, want %d", name, res.Bytes, m.Size())
		}
		sent = false
	}
}

// TestRoundsAllocateNothing checks that, once its buffers reach their
// steady size, a round allocates nothing: not in the shared round loop
// and not in the in-process engines' rounds. A run ten times longer
// must cost no more allocations.
func TestRoundsAllocateNothing(t *testing.T) {
	g := gen.Cycle(8)
	for name, run := range map[string]Engine{"sync": RunSync, "shard-1": shardWith(1), "shard-3": shardWith(3)} {
		allocs := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := run(g, chatterNodes(8, rounds), Config{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(20), allocs(200); long > short {
			t.Errorf("%s: %v allocations for 20 rounds but %v for 200", name, short, long)
		}
	}
}
