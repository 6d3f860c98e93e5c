package net_test

import (
	"slices"
	"testing"
	"time"

	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
)

// reverseNode checks the sorted-inbox contract from inside Step. Each
// round it broadcasts three messages in reverse msg.Less order, so an
// engine that delivered an outbox as returned would hand the neighbors
// unsorted inboxes, and it counts the inboxes it is handed out of Less
// order. It keeps gossipNode's state with sum holding that count, so a
// RunTCP run's gossipState sink carries the count back.
type reverseNode struct{ gossipNode }

func reverseFactory(g *graph.Graph, spec []byte, lo, hi int) ([]net.Node, error) {
	nodes, err := gossipFactory(g, spec, lo, hi)
	for i, n := range nodes {
		nodes[i] = &reverseNode{gossipNode: *n.(*gossipNode)}
	}
	return nodes, err
}

func (n *reverseNode) Step(round int, inbox []msg.Message) []msg.Message {
	if !slices.IsSortedFunc(inbox, msg.Compare) {
		n.sum++
	}
	n.log = append(n.log, len(inbox))
	if n.Done() {
		return nil
	}
	// Descending edges: DropRate hashes the edge, so a fault drops
	// each of the three on its own.
	out := make([]msg.Message, 3)
	for i := range out {
		out[i] = msg.Message{Kind: msg.KindInvite, From: int32(n.id), To: msg.Broadcast,
			Edge: int32(n.id*7 + round + len(out) - i), Color: int32(round)}
	}
	return out
}

// TestInboxesArriveSorted is the sorted-inbox property: on every engine,
// reliable or faulty, every inbox Step is handed is msg.Less-sorted,
// though every node returns its outbox in reverse Less order.
func TestInboxesArriveSorted(t *testing.T) {
	const rounds = 6
	g := testGraph(23)
	side := make([]bool, g.N())
	for v := range side {
		side[v] = v%3 == 0
	}
	faults := []struct {
		name  string
		fault net.FaultInjector
	}{
		{"reliable", nil},
		{"drop", net.DropRate{Seed: 7, P: 0.2}},
		{"partition", net.Partition{Side: side}},
	}
	shard := func(workers int) net.Engine {
		return func(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
			cfg.Workers = workers
			return net.RunShard(g, nodes, cfg)
		}
	}
	engines := []struct {
		name string
		run  net.Engine
	}{
		{"sync", net.RunSync},
		{"shard-1", shard(1)},
		{"shard-3", shard(3)},
	}
	// check fails on any unsorted inbox, and on a run that delivered
	// nothing, which would show no order at all.
	check := func(t *testing.T, unsorted []int64, log [][]int) {
		t.Helper()
		delivered := 0
		for u := range unsorted {
			if unsorted[u] != 0 {
				t.Errorf("vertex %d was handed %d inboxes out of msg.Less order", u, unsorted[u])
			}
			for _, l := range log[u] {
				delivered += l
			}
		}
		if delivered == 0 {
			t.Fatal("no message was delivered")
		}
	}
	for _, f := range faults {
		for _, e := range engines {
			t.Run(f.name+"/"+e.name, func(t *testing.T) {
				nodes, err := reverseFactory(g, gossipSpec(rounds), 0, g.N())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.run(g, nodes, net.Config{Fault: f.fault}); err != nil {
					t.Fatal(err)
				}
				unsorted, log := make([]int64, g.N()), make([][]int, g.N())
				for u, n := range nodes {
					unsorted[u], log[u] = n.(*reverseNode).sum, n.(*reverseNode).log
				}
				check(t, unsorted, log)
			})
		}
		t.Run(f.name+"/tcp-2", func(t *testing.T) {
			defer leakCheck(t)()
			spec := tcpSpec("test/reverse/v1", gossipSpec(rounds), g, rounds)
			tc := &net.TCPCluster{Nodes: 2, BarrierTimeout: 30 * time.Second}
			if _, err := net.RunTCP(tc, spec, g, net.Config{Fault: f.fault}); err != nil {
				t.Fatal(err)
			}
			st := spec.State.(*gossipState)
			check(t, st.sum, st.log)
		})
	}
}
