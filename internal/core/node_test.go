package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"dima/internal/automaton"
	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/msg"
	"dima/internal/net"
	"dima/internal/rng"
)

// Tests of the node skeleton both algorithms share (node.go).

// skeletonAlgs builds every node of g for one algorithm, and names the
// number of communication rounds per computation round.
var skeletonAlgs = []struct {
	name   string
	phases int
	nodes  func(g *graph.Graph, opt *Options) ([]net.Node, []*colorNode)
}{
	{"edge", ecPhases, func(g *graph.Graph, opt *Options) ([]net.Node, []*colorNode) {
		return asNodes(newECNodes(g, 0, g.N(), opt))
	}},
	{"strong", scPhases, func(g *graph.Graph, opt *Options) ([]net.Node, []*colorNode) {
		return asNodes(newSCNodes(graph.NewSymmetric(g), 0, g.N(), opt))
	}},
}

// stamped returns inbox as an engine delivers it to vertex v: each
// message stamped with its arrival port, the position of its sender in
// v's neighbor list.
func stamped(g *graph.Graph, v int, inbox ...msg.Message) []msg.Message {
	for i := range inbox {
		inbox[i].Port = int32(slices.Index(g.Neighbors(v), int(inbox[i].From)))
	}
	return inbox
}

// TestEventRecordDoesNotGrowWithRounds: a node's event memory is fixed
// for the run. Without a Metrics sink no node keeps a per-round record
// at all; with one, running 30 more computation rounds allocates under
// 8 bytes per node per round beyond what the same runs allocate without
// a sink — the round fold's per-round ByKind map and nothing per node. A
// per-node, per-round log costs at least the 40 bytes of one round's
// event counts.
func TestEventRecordDoesNotGrowWithRounds(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(5), 600, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range skeletonAlgs {
		t.Run(alg.name, func(t *testing.T) {
			opt := Options{Seed: 32}
			nets, nodes := alg.nodes(g, &opt)
			if _, err := opt.color(context.Background(), g, nets, nodes, "", alg.phases, g.M()<<nodes[0].arcs); err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				if n.ev.rec != nil {
					t.Fatalf("node %d keeps an event record without a Metrics sink", n.id)
				}
			}
			// bytes allocated by a run of rounds computation rounds.
			bytes := func(sink metrics.Sink, rounds int) uint64 {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				opt := Options{Seed: 32, MaxCompRounds: rounds, Metrics: sink}
				nets, nodes := alg.nodes(g, &opt)
				res, err := opt.color(context.Background(), g, nets, nodes, "", alg.phases, g.M()<<nodes[0].arcs)
				runtime.ReadMemStats(&m1)
				if err != nil || res.Terminated {
					t.Fatalf("run of %d rounds: terminated %v, err %v", rounds, res != nil && res.Terminated, err)
				}
				return m1.TotalAlloc - m0.TotalAlloc
			}
			overhead := func(rounds int) int64 {
				return int64(bytes(discardSink{}, rounds)) - int64(bytes(nil, rounds))
			}
			short, long := overhead(10), overhead(40)
			perNodeRound := float64(long-short) / float64(30*g.N())
			if perNodeRound >= 8 {
				t.Fatalf("Metrics overhead grows by %.1f bytes per node per round (%d B at 10 rounds, %d B at 40)",
					perNodeRound, short, long)
			}
			t.Logf("Metrics overhead: %d B at 10 rounds, %d B at 40 (%.2f B per node per round)", short, long, perNodeRound)
		})
	}
}

// walkRecorder is an automaton.Hook that checks every transition it sees
// is legal and continues from the state the node last reached, except
// that a finished node may be restarted from Choose (Machine.Restart).
type walkRecorder struct {
	t     *testing.T
	state map[int]automaton.State
	walks map[int][]automaton.State
}

func newWalkRecorder(t *testing.T) *walkRecorder {
	return &walkRecorder{t: t, state: map[int]automaton.State{}, walks: map[int][]automaton.State{}}
}

func (w *walkRecorder) hook(node int, from, to automaton.State) {
	last, seen := w.state[node]
	if !seen {
		last = automaton.Choose
	}
	if from != last && !(last == automaton.Done && from == automaton.Choose) {
		w.t.Fatalf("node %d jumped from %v to %v", node, last, from)
	}
	if !from.CanTransitionTo(to) {
		w.t.Fatalf("node %d: illegal transition %v -> %v", node, from, to)
	}
	w.state[node] = to
	w.walks[node] = append(w.walks[node], to)
}

// TestIsolatedNodesWalkLegallyToDone: a vertex without edges is Done at
// construction, having walked the listener's cycle C→L→R→U→E→D through
// the hook, in both algorithms.
func TestIsolatedNodesWalkLegallyToDone(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1) // vertices 2 and 3 are isolated
	want := []automaton.State{automaton.Listen, automaton.Respond, automaton.Update, automaton.Exchange, automaton.Done}
	for _, alg := range skeletonAlgs {
		t.Run(alg.name, func(t *testing.T) {
			w := newWalkRecorder(t)
			_, nodes := alg.nodes(g, &Options{Hook: w.hook})
			for _, u := range []int{2, 3} {
				if !nodes[u].Done() || !slices.Equal(w.walks[u], want) {
					t.Fatalf("isolated node %d: done %v, walk %v, want %v", u, nodes[u].Done(), w.walks[u], want)
				}
			}
			if len(w.walks[0])+len(w.walks[1]) != 0 {
				t.Fatal("a node with edges moved at construction")
			}
		})
	}
}

// TestRecoveryResumesInTheStateItsPhaseExpects: when recovery traffic
// reopens an item of a finished node, the node re-enters the cycle in
// the state a listener holds after that phase, so the next phase finds
// the state it expects: Listen after the invitation phase, Respond after
// the response phase and, for Algorithm 2, Choose after the decide
// phase. Each case finishes a reliable run on the path 0-1-2, hands
// finished node 0 the message that reopens one of its items in that
// phase, and steps it on through the next phase; every walk the hook
// sees must be legal and continuous.
func TestRecoveryResumesInTheStateItsPhaseExpects(t *testing.T) {
	cases := []struct {
		alg   int // index into skeletonAlgs
		phase int
		want  automaton.State
	}{
		{0, 0, automaton.Listen}, {0, 1, automaton.Respond},
		{1, 0, automaton.Listen}, {1, 1, automaton.Respond}, {1, 3, automaton.Choose},
	}
	g := gen.Path(3)
	for _, c := range cases {
		alg := skeletonAlgs[c.alg]
		t.Run(fmt.Sprintf("%s/phase-%d", alg.name, c.phase), func(t *testing.T) {
			w := newWalkRecorder(t)
			opt := Options{Seed: 5, Hook: w.hook, Recovery: automaton.Recovery{Enabled: true}}
			nets, nodes := alg.nodes(g, &opt)
			res, err := net.RunSync(g, nets, net.Config{MaxRounds: 100 * alg.phases})
			if err != nil || !res.Terminated {
				t.Fatalf("reliable run failed: %v", err)
			}
			n := nodes[0]
			inbox := reopen(t, alg.name, c.phase, n)
			round := res.Rounds - res.Rounds%alg.phases + alg.phases + c.phase
			nets[0].Step(round, inbox)
			if n.Done() || n.mach.State() != c.want {
				t.Fatalf("resumed into %v (done %v), want %v", n.mach.State(), n.Done(), c.want)
			}
			nets[0].Step(round+1, nil) // the next phase accepts the state
		})
	}
}

// reopen returns the inbox that reopens one of finished node n's items
// in the given phase: a keep-Decide for a conflicting arc in Algorithm
// 2's announcement phase, which n's arc loses, and otherwise a negative
// acknowledgement from n's neighbor 1.
func reopen(t *testing.T, alg string, phase int, n *colorNode) []msg.Message {
	for s, c := range n.colors {
		if c < 0 {
			continue
		}
		item := n.itemAt(s)
		if alg == "edge" || phase != 0 {
			return stamped(n.g, n.ID(), ackMsg(1, n.id, int32(item), c, false))
		}
		// Both arcs of edge 1-2 conflict with n's arcs on edge 0-1.
		for b := graph.ArcID(2); b < 4; b++ {
			if !staleWins(graph.ArcID(item), b) {
				return stamped(n.g, n.ID(), msg.Message{Kind: msg.KindDecide, From: 1, To: msg.Broadcast, Edge: int32(b), Color: c, Keep: true})
			}
		}
	}
	t.Fatal("no colored item to reopen")
	return nil
}

// TestListenersRejectForeignItems: an invitation naming an item the
// listener does not have, even an id out of range, is a defensive
// rejection in both algorithms, never a panic or an acceptance.
func TestListenersRejectForeignItems(t *testing.T) {
	g := gen.Path(3)
	for _, alg := range skeletonAlgs {
		t.Run(alg.name, func(t *testing.T) {
			for seed := uint64(0); ; seed++ {
				nets, nodes := alg.nodes(g, &Options{Seed: seed})
				if nets[1].Step(0, nil); nodes[1].mach.State() != automaton.Listen {
					continue // the coin made node 1 an inviter; try another seed
				}
				inbox := stamped(g, 1,
					msg.Message{Kind: msg.KindInvite, From: 0, To: 1, Edge: -5, Color: 0},
					msg.Message{Kind: msg.KindInvite, From: 0, To: 1, Edge: 999, Color: 0},
				)
				if out := nets[1].Step(1, inbox); len(out) != 0 {
					t.Fatalf("listener answered foreign invitations: %v", out)
				}
				if r := nodes[1].ev.total[evReject]; r != len(inbox) {
					t.Fatalf("%d defensive rejections, want %d", r, len(inbox))
				}
				return
			}
		})
	}
}
