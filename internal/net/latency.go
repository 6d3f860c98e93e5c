package net

import (
	"fmt"

	"dima/internal/graph"
	"dima/internal/rng"
)

// Running a synchronous protocol over a reliable asynchronous network
// with an α-synchronizer — each node sends one (possibly empty) batch
// per link per round and advances to round r+1 the moment it holds all
// of its neighbors' round-r batches — makes the wall-clock completion
// time over links with heterogeneous delays a critical path, not
// (rounds × slowest link). LatencyModel computes it.

// LatencyModel assigns a fixed positive delay to each directed link.
type LatencyModel interface {
	// Delay returns the delivery delay (in abstract time units) of a
	// message sent from u to v along an edge. Must be > 0 and constant
	// for the analysis to be meaningful.
	Delay(u, v int) float64
}

// UniformLatency delays every link by the same constant.
type UniformLatency float64

// Delay implements LatencyModel.
func (c UniformLatency) Delay(u, v int) float64 { return float64(c) }

// RandomLatency draws an independent delay per directed link, uniform in
// [Min, Max], deterministically from the seed.
type RandomLatency struct {
	Seed     uint64
	Min, Max float64
}

// Validate reports configuration errors. Makespan rejects invalid
// models up front instead of letting Delay silently collapse the range
// to Min; a degenerate Min == Max range stays valid (constant delay).
func (r RandomLatency) Validate() error {
	if r.Min < 0 {
		return fmt.Errorf("net: RandomLatency.Min %v is negative", r.Min)
	}
	if r.Max < r.Min {
		return fmt.Errorf("net: RandomLatency range [%v, %v] inverted", r.Min, r.Max)
	}
	return nil
}

// Delay implements LatencyModel.
func (r RandomLatency) Delay(u, v int) float64 {
	if r.Max <= r.Min {
		return r.Min
	}
	// Chain each endpoint through its own Mix64 step. Packing both ids
	// into one word (u<<32 | low32(v)) would truncate ids >= 2^32 and
	// alias unrelated links onto the same delay.
	h := rng.Mix64(r.Seed ^ rng.Mix64(uint64(int64(u))))
	h = rng.Mix64(h ^ uint64(int64(v)))
	frac := float64(h>>11) / (1 << 53)
	return r.Min + frac*(r.Max-r.Min)
}

// Makespan computes the completion time of a rounds-round synchronous
// execution over g under the α-synchronizer with the given link delays:
// node u finishes round r once it has finished round r-1 and received
// every neighbor's round-(r-1) message, so
//
//	finish[u][r] = max( finish[u][r-1],
//	                    max_v ( finish[v][r-1] + Delay(v, u) ) )
//
// with finish[·][0] = 0. The returned value is the time by which every
// node has finished the last round; it equals rounds × maxDelay only in
// the worst case — on real delay distributions the critical path is
// shorter, which is the point of measuring it.
func Makespan(g *graph.Graph, rounds int, lat LatencyModel) (float64, error) {
	if rounds < 0 {
		return 0, fmt.Errorf("net: negative round count %d", rounds)
	}
	if v, ok := lat.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return 0, err
		}
	}
	n := g.N()
	finish := make([]float64, n)
	next := make([]float64, n)
	for r := 0; r < rounds; r++ {
		for u := 0; u < n; u++ {
			t := finish[u]
			for _, v := range g.Neighbors(u) {
				d := lat.Delay(v, u)
				if d <= 0 {
					return 0, fmt.Errorf("net: non-positive delay on link %d->%d", v, u)
				}
				if cand := finish[v] + d; cand > t {
					t = cand
				}
			}
			next[u] = t
		}
		finish, next = next, finish
	}
	makespan := 0.0
	for _, t := range finish {
		if t > makespan {
			makespan = t
		}
	}
	return makespan, nil
}
