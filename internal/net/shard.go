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

// recordBatch is a run of records in ascending sender order. When a
// fault injector is configured, spans[i] locates recs[i]'s drop list:
// the receivers in its segment that the injector dropped, in segment
// order. Reliable batches leave spans empty. RunShard keeps one batch
// per (source worker, destination shard); a TCP node process decodes
// one per round frame.
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
	cnt []int32 // fill scratch: one cursor per vertex
	idx []int32 // fill scratch: the record number of each buf slot
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
// the records of batches, taken in order. Three passes: count
// per-vertex arrivals and prefix-sum them into the offset table; place
// each delivery's record number, counted across the batches, into its
// inbox slot — a 4-byte scattered store rather than a 72-byte message;
// then gather the messages into buf in slot order, one sequential
// write. When the records arrive in ascending sender order, as both
// RunShard's merge and RunTCP's round frames guarantee, every inbox
// fills in ascending sender id: exactly the append order RunSync
// produces.
func (a *shardInbox) fill(base int32, flat []int32, batches []recordBatch) {
	cnt := a.cnt
	for i := range cnt {
		cnt[i] = 0
	}
	total := int32(0)
	for _, b := range batches {
		for i, r := range b.recs {
			total += r.hi - r.lo
			if len(b.spans) == 0 {
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
	first := int32(0) // the number of the batch's first record
	for _, b := range batches {
		for i, r := range b.recs {
			rec := first + int32(i)
			if len(b.spans) == 0 {
				for _, v := range flat[r.lo:r.hi] {
					idx[cnt[v-base]] = rec
					cnt[v-base]++
				}
				continue
			}
			sp := b.spans[i]
			drops := b.drops[sp.lo:sp.hi]
			for _, v := range flat[r.lo:r.hi] {
				if len(drops) > 0 && drops[0] == v {
					drops = drops[1:]
					continue
				}
				idx[cnt[v-base]] = rec
				cnt[v-base]++
			}
		}
		first += int32(len(b.recs))
	}
	// Gather. Record numbers run across the batches, so record r is
	// found by stepping past whole batches: one comparison when there
	// is one batch, as at one worker and in every TCP node process.
	for i, r := range idx {
		b := 0
		for int(r) >= len(batches[b].recs) {
			r -= int32(len(batches[b].recs))
			b++
		}
		a.buf[i] = batches[b].recs[r].m
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
type shardSegments struct {
	flat  []int32
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
// are emitted in ascending shard order. O(n·workers + m) time, one
// pass of scratch counters.
func buildShardSegments(g *graph.Graph, owner []int32, workers int) shardSegments {
	n := g.N()
	total := 0
	for u := 0; u < n; u++ {
		total += g.Degree(u)
	}
	ss := shardSegments{
		flat:  make([]int32, total),
		segOf: make([]int32, n+1),
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
		for _, v := range adj {
			d := owner[v]
			ss.flat[cur[d]] = int32(v)
			cur[d]++
		}
	}
	ss.segOf[n] = int32(len(ss.segs))
	return ss
}

// askDrops asks f about every delivery of m from a sender with
// neighbor list adj, in adjacency order — RunSync's call order — and
// appends the dropped receivers to buf in that order.
func askDrops(f FaultInjector, round int, m msg.Message, adj []int, buf []int32) []int32 {
	for _, v := range adj {
		if f.Drop(round, m, v) {
			buf = append(buf, int32(v))
		}
	}
	return buf
}

// appendOwned appends the vertices of dropped that shard d owns, in
// order: one segment's drop list, since a segment keeps its receivers
// in adjacency order.
func appendOwned(buf, dropped, owner []int32, d int32) []int32 {
	for _, v := range dropped {
		if owner[v] == d {
			buf = append(buf, v)
		}
	}
	return buf
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
//     each inbox with msg.Sort first, and buffers each outbound
//     broadcast as one shardDelivery per destination shard that holds
//     a surviving receiver. A fault injector is asked about every
//     delivery at fan-out, where the sender's adjacency order fixes
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
	return runRounds(nodes, cfg, func() (roundFunc, error) {
		n := g.N()
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = max(min(workers, n), 1)

		bounds, owner := shardBounds(n, workers)
		segs := buildShardSegments(g, owner, workers)

		// out[s][d] buffers shard s's records addressed to shard d.
		// Worker s truncates all of its buckets at the start of each
		// step.
		out := make([][]recordBatch, workers)
		for s := range out {
			out[s] = make([]recordBatch, workers)
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
				// merge: the only cross-worker traffic is the out
				// buckets, synchronized by the phase barriers.
				arena := newShardInbox(hi - lo)
				myOut := out[s]
				var dropped []int32
				var batches []recordBatch
				for {
					c := <-cmd[s]
					switch {
					case c >= 0: // step phase for round c
						var t RoundTraffic
						for d := range myOut {
							myOut[d].recs = myOut[d].recs[:0]
							myOut[d].spans = myOut[d].spans[:0]
							myOut[d].drops = myOut[d].drops[:0]
						}
						for u := lo; u < hi; u++ {
							inbox := arena.inbox(u - lo)
							msg.Sort(inbox)
							msgs := nodes[u].Step(c, inbox)
							if len(msgs) == 0 {
								continue
							}
							deg := int64(g.Degree(u))
							usegs := segs.of(u)
							for _, m := range msgs {
								if cfg.Fault != nil {
									dropped = askDrops(cfg.Fault, c, m, g.Neighbors(u), dropped[:0])
								}
								t.count(m.Kind, int64(m.Size()), deg-int64(len(dropped)))
								for _, sg := range usegs {
									b := &myOut[sg.dst]
									if cfg.Fault != nil {
										dlo := int32(len(b.drops))
										b.drops = appendOwned(b.drops, dropped, owner, sg.dst)
										if int32(len(b.drops))-dlo == sg.hi-sg.lo {
											// Every receiver in this shard dropped.
											b.drops = b.drops[:dlo]
											continue
										}
										b.spans = append(b.spans, dropSpan{lo: dlo, hi: int32(len(b.drops))})
									}
									b.recs = append(b.recs, shardDelivery{lo: sg.lo, hi: sg.hi, m: m})
								}
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
						for src := range out {
							if b := out[src][s]; len(b.recs) > 0 {
								batches = append(batches, b)
							}
						}
						arena.fill(int32(lo), segs.flat, batches)
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
