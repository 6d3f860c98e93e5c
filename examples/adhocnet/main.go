// Ad-hoc network channel assignment: the paper's motivating application
// for strong edge coloring (§I, citing Barrett et al.). Radios are
// placed uniformly in the unit square; two radios within range share a
// bidirectional link; every directed link needs a channel such that no
// two links within interference distance (one hop) share one — exactly
// a strong distance-2 coloring of the symmetric digraph.
//
//	go run ./examples/adhocnet
package main

import (
	"fmt"
	"log"

	"dima"
)

func main() {
	const (
		radios = 60
		radius = 0.22
		seed   = 7
	)
	g, err := dima.Geometric(dima.NewRand(seed), radios, radius)
	if err != nil {
		log.Fatal(err)
	}
	d := dima.NewSymmetric(g)
	fmt.Printf("ad-hoc network: %d radios, %d bidirectional links, %d directed links, Δ=%d\n",
		g.N(), g.M(), d.A(), g.MaxDegree())

	// Distributed assignment: every radio runs the DiMa2Ed automaton;
	// the shard runtime steps the radios on three worker goroutines.
	res, err := dima.ColorStrong(d, dima.Options{Seed: seed, Engine: dima.Shard, Workers: 3})
	if err != nil {
		log.Fatal(err)
	}
	if v := dima.VerifyStrongColoring(d, res.Colors); len(v) != 0 {
		log.Fatalf("interference violation: %v", v[0])
	}

	// Centralized greedy reference for the channel count.
	greedy := dima.GreedyStrongSequential(d)
	greedyChannels := distinct(greedy)

	fmt.Printf("distributed (DiMa2Ed): %d channels in %d rounds, %d messages, %d claim conflicts resolved\n",
		res.NumColors, res.CompRounds, res.Messages, res.ConflictsDropped)
	fmt.Printf("centralized greedy:    %d channels (not achievable without global knowledge)\n", greedyChannels)
	fmt.Printf("interference-free: every channel is unique within one hop of both endpoints\n\n")

	// Show the busiest radio's assignment.
	hub := 0
	for u := 1; u < g.N(); u++ {
		if g.Degree(u) > g.Degree(hub) {
			hub = u
		}
	}
	fmt.Printf("busiest radio %d (degree %d):\n", hub, g.Degree(hub))
	for _, v := range g.SortedNeighbors(hub) {
		out, _ := d.ArcIDOf(hub, v)
		in, _ := d.ArcIDOf(v, hub)
		fmt.Printf("  link %2d<->%-2d  tx channel %2d, rx channel %2d\n",
			hub, v, res.Colors[out], res.Colors[in])
	}
}

func distinct(colors []int) int {
	seen := map[int]bool{}
	for _, c := range colors {
		if c >= 0 {
			seen[c] = true
		}
	}
	return len(seen)
}
