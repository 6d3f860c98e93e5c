// Command graphgen generates graphs from the families used in the
// paper's evaluation and writes them in the dima edge-list format.
//
// Usage:
//
//	graphgen -family er -n 200 -deg 8 -seed 1 > er.graph
//	graphgen -family ws -n 256 -k 23 -beta 0.1 -o dense.graph
//	graphgen -family ba -n 400 -k 2 -power 1.5
//
// Families: er (Erdős–Rényi by average degree), gnp, gnm, ba
// (scale-free), ws (small-world), regular, geometric, powerlaw
// (configuration model over a power-law degree sequence), tree,
// bipartite, complete, cycle, path, star, grid, hypercube.
package main

import (
	"flag"
	"fmt"
	"os"

	"dima/internal/gen"
	"dima/internal/graphio"
)

func main() {
	var spec gen.Spec
	flag.StringVar(&spec.Family, "family", "er", "graph family")
	flag.IntVar(&spec.N, "n", 100, "number of vertices")
	flag.Float64Var(&spec.Deg, "deg", 8, "average degree (er)")
	flag.Float64Var(&spec.P, "p", 0.1, "edge probability (gnp, bipartite)")
	flag.IntVar(&spec.M, "m", 100, "edge count (gnm)")
	flag.IntVar(&spec.K, "k", 2, "attachment edges (ba) / lattice half-degree (ws) / regular degree / max degree/8 (powerlaw)")
	flag.Float64Var(&spec.Power, "power", 1.0, "attachment weighting exponent (ba) / degree exponent - 1.5 (powerlaw)")
	flag.Float64Var(&spec.Beta, "beta", 0.1, "rewire probability (ws)")
	flag.IntVar(&spec.Rows, "rows", 10, "grid rows")
	flag.IntVar(&spec.Cols, "cols", 10, "grid cols")
	flag.IntVar(&spec.Dim, "dim", 6, "hypercube dimension")
	flag.Float64Var(&spec.Radius, "radius", 0.15, "connection radius (geometric)")
	flag.IntVar(&spec.Left, "left", 50, "left part size (bipartite)")
	flag.IntVar(&spec.Right, "right", 50, "right part size (bipartite)")
	flag.Uint64Var(&spec.Seed, "seed", 1, "random seed")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	// A bad flag value exits 2, before any generator runs; a generator
	// that cannot satisfy valid parameters exits 1.
	if err := spec.Validate(); err != nil {
		usage(err)
	}
	g, err := spec.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := graphio.WriteGraph(w, g); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "graphgen: %s n=%d m=%d Δ=%d\n", spec.Family, g.N(), g.M(), g.MaxDegree())
}

// usage reports a bad flag value and exits 2, the conventional status
// for a usage error (runtime failures exit 1).
func usage(err error) {
	fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
	os.Exit(2)
}
