package core

import (
	"runtime"

	"dima/internal/graph"
	"dima/internal/net"
)

// shardWorkers pins net.RunShard to a fixed worker count regardless of
// Options.Workers, so the equivalence tests cover both the single-shard
// layout and a multi-shard layout with cross-shard merges.
func shardWorkers(workers int) net.Engine {
	return func(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
		cfg.Workers = workers
		return net.RunShard(g, nodes, cfg)
	}
}

type testEngine struct {
	name string
	run  net.Engine
}

// testEngines is the engine set every cross-engine property test
// iterates: the equivalence guarantee is that all of them replay the
// sequential engine exactly. shard-oversub runs more workers than
// GOMAXPROCS, so worker goroutines interleave on shared processors.
var testEngines = []testEngine{
	{"sync", net.RunSync},
	{"shard-1", shardWorkers(1)},
	{"shard-3", shardWorkers(3)},
	{"shard-oversub", shardWorkers(runtime.GOMAXPROCS(0) + 2)},
}
