// Command dimanode is a cluster node process for the tcp engine
// (docs/CLUSTER.md): it owns one contiguous vertex shard of a coloring
// run coordinated by a dimacolor process started with -engine tcp
// -external.
//
// Usage:
//
//	dimacolor -in big.graph -engine tcp -nodes 4 -external -listen :7600 &
//	for s in 0 1 2 3; do dimanode -connect host:7600 -shard $s -shards 4 & done
//
// The node dials the coordinator, handshakes (shard index, shard count,
// launch token), receives its graph shard and node factory, then serves
// round frames until the coordinator sends shutdown. It holds no state
// across runs: one process, one run, one shard.
//
// The coordinator's spawn mode (without -external) does not use this
// binary — it re-execs itself with the DIMA_NODE_* environment set —
// but dimanode honors that environment too, so it can serve as the
// spawn target via TCPCluster.Command.
package main

import (
	"flag"
	"fmt"
	stdnet "net"
	"os"
	"strconv"

	_ "dima/internal/core" // registers the dima/edge/v3 and dima/strong/v3 node factories
	"dima/internal/net"
)

func main() {
	net.MaybeNodeMain()
	var (
		connect = flag.String("connect", "", "coordinator address (host:port); required")
		shard   = flag.Int("shard", -1, "shard index this node owns, in [0, shards)")
		shards  = flag.Int("shards", 0, "total shard count of the run")
		token   = flag.Uint64("token", 0, "launch token (0 for -external coordinators)")
	)
	flag.Parse()

	if flag.NArg() != 0 {
		usage(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *connect == "" {
		usage(fmt.Errorf("-connect is required"))
	}
	if _, port, err := stdnet.SplitHostPort(*connect); err != nil {
		usage(fmt.Errorf("-connect wants host:port, got %q: %v", *connect, err))
	} else if p, err := strconv.Atoi(port); err != nil || p < 1 || p > 65535 {
		usage(fmt.Errorf("-connect wants a numeric port in [1, 65535], got %q", port))
	}
	if *shards < 1 {
		usage(fmt.Errorf("-shards wants a positive count, got %d", *shards))
	}
	if *shard < 0 || *shard >= *shards {
		usage(fmt.Errorf("-shard wants an index in [0, %d), got %d", *shards, *shard))
	}

	if err := net.NodeMain(*connect, *shard, *shards, *token); err != nil {
		fmt.Fprintf(os.Stderr, "dimanode: %v\n", err)
		os.Exit(1)
	}
}

// usage reports a bad flag value and exits 2, the conventional status
// for a usage error (runtime failures exit 1).
func usage(err error) {
	fmt.Fprintf(os.Stderr, "dimanode: %v\n", err)
	flag.Usage()
	os.Exit(2)
}
