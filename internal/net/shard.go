package net

import (
	"runtime"

	"dima/internal/graph"
	"dima/internal/msg"
)

// Worker commands, sent on a shard's cmd channel. Values >= 0 mean
// "step this round"; the negative values select the other phases.
const (
	cmdMerge = -1
	cmdStop  = -2
)

// shardDelivery is one delivery record: a message plus the receivers
// it reaches in one destination shard, flat[lo:hi] — the sender's
// neighbor segment for that shard (shardSegments.flat). The fill
// phase expands each record into those neighbors' inboxes, so a
// broadcast costs one record per destination shard, not one per
// delivery.
type shardDelivery struct {
	lo, hi int32
	m      msg.Message
}

// dropSpan locates one record's drop list, drops[lo:hi] of its batch.
type dropSpan struct{ lo, hi int32 }

// recordBatch is a run of records in ascending sender order. spans[i],
// when spans is set, locates recs[i]'s drop list: the receivers in its
// segment that the fault injector dropped, in segment order. A batch
// without drops fills as a reliable one. RunShard keeps one batch per
// (source worker, destination shard); a TCP node process decodes one
// per round frame.
type recordBatch struct {
	recs  []shardDelivery
	spans []dropSpan
	drops []int32
}

// shardInbox is one shard's inbox arena: the messages of every vertex
// the shard owns, laid out back to back in one flat buffer. Vertex
// lo+i's inbox is buf[off[i]:off[i+1]]. The buffer, the offset table
// and the fill scratch are reused across rounds, so steady-state
// rounds allocate nothing — the struct-of-arrays replacement for the
// per-vertex ragged [][]msg.Message layout.
type shardInbox struct {
	buf []msg.Message
	off []int32
	cnt []int32  // fill scratch: one cursor per vertex
	idx []uint64 // fill scratch: each buf slot's record number<<32 | arrival port
}

// newShardInbox returns the empty arena of a shard of size vertices.
func newShardInbox(size int) shardInbox {
	return shardInbox{off: make([]int32, size+1), cnt: make([]int32, size)}
}

// inbox returns the inbox of the shard's i-th vertex.
func (a *shardInbox) inbox(i int) []msg.Message {
	return a.buf[a.off[i]:a.off[i+1]]
}

// grow returns s resized to n elements, reallocating geometrically:
// inbox volume swings by phase (invitations, responses, exchanges),
// and sizing to each round's exact total would reallocate every time
// the volume climbs.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// fill rebuilds the arena of the shard whose first vertex is base from
// the records of batches, taken in order, expanded over the segments
// of ss. Three passes: count per-vertex arrivals and prefix-sum them
// into the offset table; place each delivery's record number, counted
// across the batches, packed with its arrival port (ss.port) into its
// inbox slot — one 8-byte scattered store rather than a 40-byte
// message; then gather the messages into buf in slot order, stamping
// each with its port, one sequential write. When the records arrive in
// ascending sender order, as both RunShard's merge and RunTCP's round
// frames guarantee, every inbox fills in ascending sender id: exactly
// the append order RunSync produces.
func (a *shardInbox) fill(base int32, ss *shardSegments, batches []recordBatch) {
	flat := ss.flat
	cnt := a.cnt
	for i := range cnt {
		cnt[i] = 0
	}
	total := int32(0)
	for _, b := range batches {
		for i, r := range b.recs {
			total += r.hi - r.lo
			if len(b.drops) == 0 {
				for _, v := range flat[r.lo:r.hi] {
					cnt[v-base]++
				}
				continue
			}
			sp := b.spans[i]
			total -= sp.hi - sp.lo
			drops := b.drops[sp.lo:sp.hi]
			for _, v := range flat[r.lo:r.hi] {
				if len(drops) > 0 && drops[0] == v {
					drops = drops[1:]
					continue
				}
				cnt[v-base]++
			}
		}
	}
	size := len(cnt)
	a.off[0] = 0
	for i := 0; i < size; i++ {
		a.off[i+1] = a.off[i] + cnt[i]
	}
	a.buf = grow(a.buf, int(total))
	a.idx = grow(a.idx, int(total))
	copy(cnt, a.off[:size])
	idx := a.idx
	first := uint64(0) // the number of the batch's first record
	for _, b := range batches {
		for i, r := range b.recs {
			rec := (first + uint64(i)) << 32
			port := ss.port[r.lo:r.hi]
			if len(b.drops) == 0 {
				for j, v := range flat[r.lo:r.hi] {
					idx[cnt[v-base]] = rec | uint64(port[j])
					cnt[v-base]++
				}
				continue
			}
			sp := b.spans[i]
			drops := b.drops[sp.lo:sp.hi]
			for j, v := range flat[r.lo:r.hi] {
				if len(drops) > 0 && drops[0] == v {
					drops = drops[1:]
					continue
				}
				idx[cnt[v-base]] = rec | uint64(port[j])
				cnt[v-base]++
			}
		}
		first += uint64(len(b.recs))
	}
	// Gather. Record numbers run across the batches, so record r is
	// found by stepping past whole batches: one comparison when there
	// is one batch, as at one worker and in every TCP node process.
	for i, x := range idx {
		r, b := int(x>>32), 0
		for r >= len(batches[b].recs) {
			r -= len(batches[b].recs)
			b++
		}
		m := &a.buf[i]
		*m = batches[b].recs[r].m
		m.Port = int32(uint32(x))
	}
}

// nbrSeg is one segment of a vertex's shard-grouped neighbor list: the
// neighbors owned by shard dst occupy flat[lo:hi].
type nbrSeg struct {
	dst    int32
	lo, hi int32
}

// shardSegments is the per-run CSR of shard-grouped neighbor lists:
// vertex u's segments are segs[segOf[u]:segOf[u+1]], each naming a
// destination shard and a slice of flat holding u's neighbors in that
// shard. Built once per run, it is what lets a sender emit one record
// per (message, destination shard) and the fill phase expand records
// to receivers without the sender ever touching per-neighbor state.
// port, beside flat, holds each receiver's arrival port for a message
// from u: the port fill stamps.
type shardSegments struct {
	flat  []int32
	port  []int32
	segs  []nbrSeg
	segOf []int32
}

// of returns vertex u's segments in ascending destination order.
func (ss *shardSegments) of(u int) []nbrSeg {
	return ss.segs[ss.segOf[u]:ss.segOf[u+1]]
}

// segment returns the range of flat holding u's neighbors in shard d;
// ok is false when d holds none of them.
func (ss *shardSegments) segment(u int, d int32) (lo, hi int32, ok bool) {
	for _, sg := range ss.of(u) {
		if sg.dst == d {
			return sg.lo, sg.hi, true
		}
	}
	return 0, 0, false
}

// shardBounds splits n vertices into k contiguous ascending shards:
// shard s owns [bounds[s], bounds[s+1]), and owner[v] names v's shard.
// Concatenating per-shard outputs in shard order therefore reproduces
// RunSync's ascending-vertex order.
func shardBounds(n, k int) (bounds []int, owner []int32) {
	bounds = make([]int, k+1)
	for s := 0; s <= k; s++ {
		bounds[s] = s * n / k
	}
	owner = make([]int32, n)
	for s := 0; s < k; s++ {
		for u := bounds[s]; u < bounds[s+1]; u++ {
			owner[u] = int32(s)
		}
	}
	return bounds, owner
}

// buildShardSegments groups every vertex's neighbor list by owning
// shard. Within one segment the adjacency order is preserved; segments
// are emitted in ascending shard order. The port column is filled from
// ports, and left nil when ports is (the TCP coordinator only routes).
// O(n·workers + m) time, one pass of scratch counters.
func buildShardSegments(g *graph.Graph, owner []int32, workers int, ports graph.Ports) shardSegments {
	n := g.N()
	total := 0
	for u := 0; u < n; u++ {
		total += g.Degree(u)
	}
	ss := shardSegments{
		flat:  make([]int32, total),
		segOf: make([]int32, n+1),
	}
	if ports != nil {
		ss.port = make([]int32, total)
	}
	cnt := make([]int32, workers)
	cur := make([]int32, workers)
	pos := int32(0)
	for u := 0; u < n; u++ {
		ss.segOf[u] = int32(len(ss.segs))
		adj := g.Neighbors(u)
		if len(adj) == 0 {
			continue
		}
		for _, v := range adj {
			cnt[owner[v]]++
		}
		for d := 0; d < workers; d++ {
			c := cnt[d]
			if c == 0 {
				continue
			}
			ss.segs = append(ss.segs, nbrSeg{dst: int32(d), lo: pos, hi: pos + c})
			cur[d] = pos
			pos += c
			cnt[d] = 0
		}
		for i, v := range adj {
			d := owner[v]
			ss.flat[cur[d]] = int32(v)
			if ports != nil {
				ss.port[cur[d]] = ports.Port(g.IncidentEdges(u)[i], u, v)
			}
			cur[d]++
		}
	}
	ss.segOf[n] = int32(len(ss.segs))
	return ss
}

// router is the one record builder of both multi-shard engines. route
// turns one broadcast into a shardDelivery per destination shard that
// keeps a surviving receiver, appended to that shard's batch in out.
// RunShard gives each worker a router whose out holds the worker's
// buckets; RunTCP's coordinator routes every shard's outbox through one
// router whose out holds the next round frames (appendRound).
type router struct {
	g     *graph.Graph
	owner []int32
	segs  *shardSegments
	fault FaultInjector
	out   []recordBatch
}

// route appends the records of u's broadcast m and returns how many of
// its deliveries survive the fault injector. The injector is asked
// about every delivery in u's adjacency order — RunSync's call order —
// and each dropped receiver is appended straight to its shard's drop
// list: u's segments lie in distinct batches, and a batch's drops end
// where its last span does, so the drops appended here are exactly one
// record's drop list, in segment order.
func (r *router) route(round, u int, m msg.Message) int64 {
	segs := r.segs.of(u)
	if r.fault == nil {
		for _, sg := range segs {
			b := &r.out[sg.dst]
			b.recs = append(b.recs, shardDelivery{lo: sg.lo, hi: sg.hi, m: m})
		}
		return int64(r.g.Degree(u))
	}
	adj := r.g.Neighbors(u)
	dropped := 0
	for _, v := range adj {
		if r.fault.Drop(round, m, v) {
			b := &r.out[r.owner[v]]
			b.drops = append(b.drops, int32(v))
			dropped++
		}
	}
	for _, sg := range segs {
		b := &r.out[sg.dst]
		lo := int32(0)
		if len(b.spans) > 0 {
			lo = b.spans[len(b.spans)-1].hi
		}
		hi := int32(len(b.drops))
		if hi-lo == sg.hi-sg.lo {
			b.drops = b.drops[:lo] // every receiver in this shard dropped
			continue
		}
		b.spans = append(b.spans, dropSpan{lo: lo, hi: hi})
		b.recs = append(b.recs, shardDelivery{lo: sg.lo, hi: sg.hi, m: m})
	}
	return int64(len(adj) - dropped)
}

// reset empties every batch, keeping their storage.
func (r *router) reset() {
	for d := range r.out {
		b := &r.out[d]
		b.recs, b.spans, b.drops = b.recs[:0], b.spans[:0], b.drops[:0]
	}
}

// RunShard executes the protocol with cfg.Workers goroutines, each
// owning a contiguous shard of the vertex range. It is the scale
// engine: its costs grow with Workers rather than with the vertex
// count, so million-vertex graphs run without scheduler pressure, and
// on multi-core machines the per-round work parallelizes across the
// shards.
//
// Each round has two barrier-separated phases:
//
//  1. Merge (every round but the first): every worker refills its
//     shard's one inbox arena from the non-empty buckets the previous
//     round addressed to it, scanned in ascending sender shard order,
//     expanding each record to the sender's neighbors inside this
//     shard (shardInbox.fill, shared with the TCP node processes).
//     Within one sender shard the records are already in sender id
//     order (workers step in id order), so each inbox fills in
//     ascending sender id — exactly the append order RunSync produces.
//     The merge runs behind the barrier, after every node finished
//     the Step that read the arena, so it overwrites the arena in
//     place. It belongs to the round that reads the inboxes because
//     only a following round needs it.
//  2. Step: every worker steps its own vertices in id order, sorting
//     each inbox with msg.Sort first, and routes each outbound
//     broadcast into its own buckets with router.route, RunTCP's
//     record builder too: one shardDelivery per destination shard that
//     holds a surviving receiver. A fault injector is asked about
//     every delivery there, where the sender's adjacency order fixes
//     the call order; its verdicts ride along as per-record drop
//     lists. Workers touch only their own vertices' inboxes and their
//     own outbound buckets, so the phase is data-race free by
//     partitioning.
//
// Identical pre-sort inboxes plus the shared msg.Sort make the
// executions byte-identical to RunSync: same final colorings, same
// Result, same per-round RoundTraffic stream, for any Workers. Each
// worker tallies its shard's traffic in a RoundTraffic, and the
// coordinator adds the tallies in shard order.
//
// cfg.Fault, when non-nil, is called concurrently from all workers and
// must be safe for concurrent use; the injectors in this package are
// stateless hashes and qualify. Stateful injectors that are sensitive
// to call order (e.g. consuming a shared RNG) only reproduce RunSync
// under Workers == 1.
func RunShard(g *graph.Graph, nodes []Node, cfg Config) (Result, error) {
	if err := validate(g, nodes); err != nil {
		return Result{}, err
	}
	var broadcast func(c int)
	defer func() {
		// Stop the workers, which are parked on cmd between rounds, and
		// wait until each has: no worker outlives the run.
		if broadcast != nil {
			broadcast(cmdStop)
		}
	}()
	return runRounds(allDone(nodes), cfg, func() (roundFunc, error) {
		n := g.N()
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = max(min(workers, n), 1)

		bounds, owner := shardBounds(n, workers)
		segs := buildShardSegments(g, owner, workers, graph.NewPorts(g))

		// routers[s].out[d] buffers shard s's records addressed to
		// shard d. Worker s resets its buckets at the start of each
		// step.
		routers := make([]router, workers)
		for s := range routers {
			routers[s] = router{g: g, owner: owner, segs: &segs, fault: cfg.Fault,
				out: make([]recordBatch, workers)}
		}

		tally := make([]RoundTraffic, workers)
		done := make([]bool, workers)
		cmd := make([]chan int, workers)
		rep := make([]chan struct{}, workers)
		for s := 0; s < workers; s++ {
			cmd[s] = make(chan int, 1)
			rep[s] = make(chan struct{}, 1)
		}

		for s := 0; s < workers; s++ {
			go func(s int) {
				lo, hi := bounds[s], bounds[s+1]
				// One worker-local inbox arena, refilled in place by each
				// merge: the only cross-worker traffic is the routers'
				// buckets, synchronized by the phase barriers.
				arena := newShardInbox(hi - lo)
				rtr := &routers[s]
				var batches []recordBatch
				for {
					c := <-cmd[s]
					switch {
					case c >= 0: // step phase for round c
						var t RoundTraffic
						rtr.reset()
						for u := lo; u < hi; u++ {
							inbox := arena.inbox(u - lo)
							msg.Sort(inbox)
							for _, m := range nodes[u].Step(c, inbox) {
								t.count(m.Kind, int64(m.Size()), rtr.route(c, u, m))
							}
						}
						// Done is evaluated here, after the shard's steps
						// and before any next-round delivery — the same
						// evaluation point as RunSync.
						d := true
						for u := lo; u < hi && d; u++ {
							d = nodes[u].Done()
						}
						tally[s], done[s] = t, d
						rep[s] <- struct{}{}
					case c == cmdMerge:
						// Ascending source order fixes the fill order.
						batches = batches[:0]
						for src := range routers {
							if b := routers[src].out[s]; len(b.recs) > 0 {
								batches = append(batches, b)
							}
						}
						arena.fill(int32(lo), &segs, batches)
						rep[s] <- struct{}{}
					default: // cmdStop
						rep[s] <- struct{}{}
						return
					}
				}
			}(s)
		}

		broadcast = func(c int) {
			for s := 0; s < workers; s++ {
				cmd[s] <- c
			}
			for s := 0; s < workers; s++ {
				<-rep[s]
			}
		}

		return func(round int, rt *RoundTraffic) (bool, error) {
			if round > 0 {
				broadcast(cmdMerge)
			}
			broadcast(round)
			finished := true
			for s := 0; s < workers; s++ {
				rt.add(&tally[s])
				finished = finished && done[s]
			}
			return finished, nil
		}, nil
	})
}
