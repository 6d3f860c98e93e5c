package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"dima/internal/core"
	"dima/internal/graph"
	"dima/internal/msg"
	"dima/internal/net"
)

// The traced run measures each layer from outside, by timing calls into
// its public functions:
//
//   - an engine wrapper, a net.Engine closure in core.Options.Engine,
//     times the engine call, reads getrusage around it and timestamps
//     every net.Config.Observe callback, which gives per-round times;
//   - at workers=1 a shim around every net.Node times Step, folds the
//     time per round, counts inbox sizes and keeps a corpus of outboxes;
//   - runtime.MemStats and runtime/metrics are read around each call.
//
// The msg microbenchmarks then run on the corpus. End-to-end numbers
// never come from a traced call.

// engineSpan is what the engine wrapper records for one call.
type engineSpan struct {
	entry, exit time.Time
	rounds      []time.Time   // one per Observe callback, in round order
	cpu         time.Duration // process CPU time during the engine call
}

// traceEngine wraps inner so that each call fills sp; a non-nil rec also
// puts the Step shim around every node.
func traceEngine(inner net.Engine, sp *engineSpan, rec *stepRecorder) net.Engine {
	return func(g *graph.Graph, nodes []net.Node, cfg net.Config) (net.Result, error) {
		if rec != nil {
			shimmed := make([]net.Node, len(nodes))
			for i, n := range nodes {
				shimmed[i] = stepShim{n, rec}
			}
			nodes = shimmed
		}
		observe := cfg.Observe
		cfg.Observe = func(rt net.RoundTraffic) {
			sp.rounds = append(sp.rounds, time.Now())
			if observe != nil {
				observe(rt)
			}
		}
		cpu0 := cpuTime(syscall.RUSAGE_SELF)
		sp.entry = time.Now()
		res, err := inner(g, nodes, cfg)
		sp.exit = time.Now()
		sp.cpu = cpuTime(syscall.RUSAGE_SELF) - cpu0
		return res, err
	}
}

// cpuTime is the user plus system time getrusage reports for who.
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stepShim times one node's Step calls into a recorder.
type stepShim struct {
	net.Node
	rec *stepRecorder
}

func (s stepShim) Step(round int, inbox []msg.Message) []msg.Message {
	t := time.Now()
	out := s.Node.Step(round, inbox)
	s.rec.step(s.ID(), round, inbox, time.Since(t), out)
	return out
}

// Corpus bounds: outboxes are kept for every corpusStride-th computation
// round until corpusMaxMsgs messages are kept, and the inboxes Step
// received are kept for about corpusReceivers vertices.
const (
	corpusStride    = 8
	corpusMaxMsgs   = 400_000
	corpusReceivers = 2000
)

// stepRecorder is the Step shim's state. The shim runs only at
// workers=1, where the engine steps every node from one goroutine in
// ascending id order, so the recorder needs no lock.
type stepRecorder struct {
	phases    int     // communication rounds per computation round
	stepNs    []int64 // Step time folded per communication round
	calls     int64
	inboxLens []int64 // inboxLens[k]: Step calls that got a k-message inbox

	// Corpus, nil unless kept: outs[r][u] is node u's outbox of kept
	// round r; got[r+1][v] the sorted inbox sampled receiver v got at the
	// round after.
	outs    map[int][][]msg.Message
	got     map[int]map[int][]msg.Message
	n       int
	sample  int
	round   int
	keeping bool
	kept    int
}

func newStepRecorder(n, phases int, corpus bool) *stepRecorder {
	r := &stepRecorder{phases: phases, n: n, round: -1}
	if corpus {
		r.outs = map[int][][]msg.Message{}
		r.got = map[int]map[int][]msg.Message{}
		r.sample = max(1, n/corpusReceivers)
	}
	return r
}

func (r *stepRecorder) step(u, round int, inbox []msg.Message, d time.Duration, out []msg.Message) {
	for len(r.stepNs) <= round {
		r.stepNs = append(r.stepNs, 0)
	}
	r.stepNs[round] += d.Nanoseconds()
	r.calls++
	for len(r.inboxLens) <= len(inbox) {
		r.inboxLens = append(r.inboxLens, 0)
	}
	r.inboxLens[len(inbox)]++
	if r.outs == nil {
		return
	}
	if round != r.round {
		r.round = round
		r.keeping = (round/r.phases)%corpusStride == 0 && r.kept < corpusMaxMsgs
	}
	if r.keeping {
		if r.outs[round] == nil {
			r.outs[round] = make([][]msg.Message, r.n)
		}
		r.outs[round][u] = slices.Clone(out)
		r.kept += len(out)
	}
	if _, ok := r.outs[round-1]; ok && u%r.sample == 0 {
		if r.got[round] == nil {
			r.got[round] = map[int][]msg.Message{}
		}
		r.got[round][u] = slices.Clone(inbox)
	}
}

func (r *stepRecorder) stepTotal() time.Duration {
	var s int64
	for _, ns := range r.stepNs {
		s += ns
	}
	return time.Duration(s)
}

// inboxQuantile is the p-quantile of the inbox sizes Step saw.
func (r *stepRecorder) inboxQuantile(p float64) float64 {
	need := p * float64(r.calls)
	var cum int64
	for k, c := range r.inboxLens {
		cum += c
		if float64(cum) >= need {
			return float64(k)
		}
	}
	return float64(len(r.inboxLens) - 1)
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// presortInboxes rebuilds, for every kept round r and sampled receiver
// v, the inbox v got at round r+1 as it stood before msg.Sort: the
// outboxes of v's neighbors in ascending sender order, which is the
// order RunSync delivers in. It returns each rebuilt inbox paired with
// the sorted inbox Step received.
func (r *stepRecorder) presortInboxes(g *graph.Graph) (pre, got [][]msg.Message) {
	for _, rd := range sortedKeys(r.got) {
		outs := r.outs[rd-1]
		for _, v := range sortedKeys(r.got[rd]) {
			var in []msg.Message
			for _, u := range g.SortedNeighbors(v) {
				in = append(in, outs[u]...)
			}
			pre = append(pre, in)
			got = append(got, r.got[rd][v])
		}
	}
	return pre, got
}

// batches returns each kept round's outboxes concatenated in node order:
// the messages one round puts on the wire.
func (r *stepRecorder) batches() [][]msg.Message {
	var bs [][]msg.Message
	for _, rd := range sortedKeys(r.outs) {
		var b []msg.Message
		for _, out := range r.outs[rd] {
			b = append(b, out...)
		}
		if len(b) > 0 {
			bs = append(bs, b)
		}
	}
	return bs
}

func sameMessages(a, b []msg.Message) bool {
	return slices.EqualFunc(a, b, msg.Equal)
}

// checkPresort is the corpus gate: each rebuilt inbox must sort to
// exactly what Step received.
func checkPresort(pre, got [][]msg.Message) error {
	for i := range pre {
		s := slices.Clone(pre[i])
		msg.Sort(s)
		if !sameMessages(s, got[i]) {
			return fmt.Errorf("rebuilt inbox %d sorts to %d messages unlike the %d Step received", i, len(s), len(got[i]))
		}
	}
	return nil
}

// microTime is how long each msg microbenchmark repeats its pass.
const microTime = 100 * time.Millisecond

// benchSort times msg.Sort on the pre-sort inboxes, in ns per message.
func benchSort(inboxes [][]msg.Message) float64 {
	var src []msg.Message
	ends := make([]int, len(inboxes))
	for i, in := range inboxes {
		src = append(src, in...)
		ends[i] = len(src)
	}
	if len(src) == 0 {
		return 0
	}
	work := make([]msg.Message, len(src))
	var spent time.Duration
	reps := 0
	for spent < microTime {
		copy(work, src)
		t := time.Now()
		lo := 0
		for _, hi := range ends {
			msg.Sort(work[lo:hi])
			lo = hi
		}
		spent += time.Since(t)
		reps++
	}
	return float64(spent.Nanoseconds()) / float64(reps*len(src))
}

// benchCodec times msg.AppendMessages and msg.DecodeMessages on the
// per-round batches, in ns per message, and returns the encoded batches.
// Every decoded batch must equal its original.
func benchCodec(batches [][]msg.Message) (encNs, decNs float64, encoded [][]byte, err error) {
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	if total == 0 {
		return 0, 0, nil, errors.New("empty corpus")
	}
	encoded = make([][]byte, len(batches))
	var spent time.Duration
	reps := 0
	for spent < microTime {
		t := time.Now()
		for i, b := range batches {
			encoded[i] = msg.AppendMessages(encoded[i][:0], b)
		}
		spent += time.Since(t)
		reps++
	}
	encNs = float64(spent.Nanoseconds()) / float64(reps*total)
	for i, e := range encoded {
		ms, err := msg.DecodeMessages(e)
		if err != nil {
			return 0, 0, nil, err
		}
		if !sameMessages(ms, batches[i]) {
			return 0, 0, nil, fmt.Errorf("batch %d does not survive an encode/decode round trip", i)
		}
	}
	spent, reps = 0, 0
	for spent < microTime {
		t := time.Now()
		for _, e := range encoded {
			if _, err := msg.DecodeMessages(e); err != nil {
				return 0, 0, nil, err
			}
		}
		spent += time.Since(t)
		reps++
	}
	decNs = float64(spent.Nanoseconds()) / float64(reps*total)
	return encNs, decNs, encoded, nil
}

// benchFrames times msg.WriteFrame plus msg.FrameReader.Next over the
// payloads in memory, in ns per KB of payload.
func benchFrames(payloads [][]byte) (float64, error) {
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	var buf bytes.Buffer
	var spent time.Duration
	reps := 0
	for spent < microTime {
		buf.Reset()
		t := time.Now()
		for _, p := range payloads {
			if err := msg.WriteFrame(&buf, 1, p); err != nil {
				return 0, err
			}
		}
		fr := msg.NewFrameReader(&buf, 0)
		for range payloads {
			if _, _, err := fr.Next(); err != nil {
				return 0, err
			}
		}
		if _, _, err := fr.Next(); err != io.EOF {
			return 0, fmt.Errorf("frame stream does not end after %d frames: %v", len(payloads), err)
		}
		spent += time.Since(t)
		reps++
	}
	return float64(spent.Nanoseconds()) / (float64(reps) * float64(size) / 1024), nil
}

// gcStat is a runtime/metrics reading. The runtime folds GC CPU time
// into its counter at the end of each cycle, so deltas are summed over
// many calls before they are divided.
type gcStat struct {
	cpu    float64 // seconds
	cycles uint64
}

func readGC() gcStat {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return gcStat{cpu: s[0].Value.Float64(), cycles: s[1].Value.Uint64()}
}

// tracedCall is one call through the engine wrapper.
type tracedCall struct {
	res        *core.Result
	start, end time.Time
	span       engineSpan
	gc0, gc1   gcStat
	cpu        time.Duration // process CPU time during the call
}

func (w engineWorkload) traced(in instance, seed uint64, workers int, rec *stepRecorder) (tracedCall, error) {
	var c tracedCall
	opt := shardOptions(seed, workers)
	opt.Engine = traceEngine(net.RunShard, &c.span, rec)
	c.gc0 = readGC()
	cpu0 := cpuTime(syscall.RUSAGE_SELF)
	c.start = time.Now()
	res, err := w.color(in, opt)
	c.end = time.Now()
	c.cpu = cpuTime(syscall.RUSAGE_SELF) - cpu0
	c.gc1 = readGC()
	c.res = res
	return c, err
}

// phases is the number of communication rounds per computation round:
// Algorithm 1 invites, responds and exchanges; Algorithm 2 adds a
// confirm round.
func (w engineWorkload) phases() int {
	if w.strong {
		return 4
	}
	return 3
}

// trace measures the per-layer metrics on graph 0 of the workload. Each pass
// set makes five calls with one seed: untraced at workers 2 (the
// reference) and 1, traced at workers 1 with the Step shim, traced at
// workers 2 with the engine wrapper only, and the TCP engine with two
// node processes. All five colorings must be identical. Pass sets repeat
// until the budget is spent; the first keeps the msg corpus.
func (w engineWorkload) trace(seed uint64, budget time.Duration, tw *traceWriter) (*runResult, error) {
	rr := &runResult{Workload: w.name, Seed: seed}
	in, genDur, symDur, err := w.build(0)
	if err != nil {
		return nil, err
	}
	rr.add("gen.er_s", "s", genDur.Seconds(), 1)
	if w.strong {
		rr.add("graph.symmetric_s", "s", symDur.Seconds(), 1)
	}
	if _, err := w.color(in, shardOptions(colorSeed(seed, -1), 2)); err != nil {
		return nil, fmt.Errorf("warm-up call: %w", err)
	}
	m := float64(in.g.M())
	var med medians
	var corpus *stepRecorder
	var roundMs []float64
	var gcCPU, callCPU float64
	var gcCycles uint64

	runStart := time.Now()
	for i := 0; i == 0 || time.Since(runStart) < budget; i++ {
		cs := colorSeed(seed, i)
		rr.Attempted++
		ref, err := w.timed(in, shardOptions(cs, 2))
		if err == nil {
			err = w.check(in, ref.res)
		}
		if err != nil {
			rr.fail("pass set %d reference call: %v", i, err)
			continue
		}
		one, err := w.timed(in, shardOptions(cs, 1))
		if err != nil {
			rr.fail("pass set %d workers=1 call: %v", i, err)
			continue
		}
		rec := newStepRecorder(in.g.N(), w.phases(), corpus == nil)
		a, err := w.traced(in, cs, 1, rec)
		if err != nil {
			rr.fail("pass set %d step-shim call: %v", i, err)
			continue
		}
		b, err := w.traced(in, cs, 2, nil)
		if err != nil {
			rr.fail("pass set %d engine-wrapper call: %v", i, err)
			continue
		}
		self0, kids0 := cpuTime(syscall.RUSAGE_SELF), cpuTime(syscall.RUSAGE_CHILDREN)
		tcp, err := w.timed(in, core.Options{Seed: cs, Cluster: &net.TCPCluster{Nodes: 2}})
		coordCPU, nodesCPU := cpuTime(syscall.RUSAGE_SELF)-self0, cpuTime(syscall.RUSAGE_CHILDREN)-kids0
		if err != nil {
			rr.fail("pass set %d tcp call: %v", i, err)
			continue
		}
		for _, c := range []struct {
			name string
			res  *core.Result
		}{{"workers=1", one.res}, {"step-shim", a.res}, {"engine-wrapper", b.res}, {"tcp", tcp.res}} {
			if err := sameColoring(ref.res, c.res); err != nil {
				rr.fail("pass set %d %s call against the reference: %v", i, c.name, err)
			}
		}
		if corpus == nil {
			corpus = rec
		}
		tw.call(w.name, 1, i, a, rec.stepNs)
		tw.call(w.name, 2, i, b, nil)

		refS := ref.wall.Seconds()
		stepS := rec.stepTotal().Seconds()
		engineS := b.span.exit.Sub(b.span.entry).Seconds()
		med.put("core.build_s", "s", b.span.entry.Sub(b.start).Seconds())
		med.put("core.assemble_s", "s", b.end.Sub(b.span.exit).Seconds())
		med.put("core.step_s", "s", stepS)
		med.put("core.step_ns_per_call", "ns", float64(rec.stepTotal().Nanoseconds())/float64(rec.calls))
		med.put("core.allocs_per_edge", "ratio", float64(ref.mallocs)/m)
		med.put("core.msgs_per_edge", "ratio", float64(ref.res.Messages)/m)
		med.put("msg.bytes_per_msg", "B", float64(ref.res.Bytes)/float64(ref.res.Messages))
		med.put("net.engine_s", "s", engineS)
		med.put("net.nonstep_s", "s", a.span.exit.Sub(a.span.entry).Seconds()-stepS)
		med.put("net.cpu_per_wall", "ratio", b.span.cpu.Seconds()/engineS)
		med.put("net.speedup_w2", "ratio", one.wall.Seconds()/refS)
		med.put("net.tcp_overhead", "ratio", tcp.wall.Seconds()/refS)
		med.put("net.tcp_coord_cpu_s", "s", coordCPU.Seconds())
		med.put("net.tcp_nodes_cpu_s", "s", nodesCPU.Seconds())
		med.put("bench.trace_overhead", "ratio", b.end.Sub(b.start).Seconds()/refS)
		prev := b.span.entry
		for _, t := range b.span.rounds {
			roundMs = append(roundMs, float64(t.Sub(prev).Nanoseconds())/1e6)
			prev = t
		}
		gcCPU += b.gc1.cpu - b.gc0.cpu
		callCPU += b.cpu.Seconds()
		gcCycles += b.gc1.cycles - b.gc0.cycles
	}
	tw.whole(w.name, runStart, time.Now())
	if corpus == nil {
		return rr, nil
	}
	med.emit(rr)

	pre, got := corpus.presortInboxes(in.g)
	if err := checkPresort(pre, got); err != nil {
		rr.fail("msg corpus: %v", err)
	}
	encNs, decNs, encoded, err := benchCodec(corpus.batches())
	if err != nil {
		rr.fail("msg codec: %v", err)
	}
	frameNs, err := benchFrames(encoded)
	if err != nil {
		rr.fail("msg frames: %v", err)
	}
	nPre := 0
	for _, p := range pre {
		nPre += len(p)
	}
	rr.add("msg.sort_ns_per_msg", "ns", benchSort(pre), nPre)
	rr.add("msg.inbox_p50", "msgs", corpus.inboxQuantile(0.5), int(corpus.calls))
	rr.add("msg.inbox_p99", "msgs", corpus.inboxQuantile(0.99), int(corpus.calls))
	rr.add("msg.encode_ns_per_msg", "ns", encNs, len(encoded))
	rr.add("msg.decode_ns_per_msg", "ns", decNs, len(encoded))
	rr.add("msg.frame_ns_per_kb", "ns", frameNs, len(encoded))
	rr.add("net.round_ms_p50", "ms", quantile(roundMs, 0.5), len(roundMs))
	rr.add("net.round_ms_p90", "ms", quantile(roundMs, 0.9), len(roundMs))
	passes := len(med.vals["net.engine_s"])
	rr.add("runtime.gc_cpu_frac", "fraction", gcCPU/callCPU, passes)
	rr.add("runtime.gc_cycles", "count", float64(gcCycles)/float64(passes), passes)
	return rr, nil
}

// medians collects one sample per pass set for each metric and emits
// each metric as the median of its samples.
type medians struct {
	names []string
	units map[string]string
	vals  map[string][]float64
}

func (md *medians) put(name, unit string, v float64) {
	if md.vals == nil {
		md.units, md.vals = map[string]string{}, map[string][]float64{}
	}
	if _, ok := md.vals[name]; !ok {
		md.names = append(md.names, name)
		md.units[name] = unit
	}
	md.vals[name] = append(md.vals[name], v)
}

func (md *medians) emit(rr *runResult) {
	for _, name := range md.names {
		rr.add(name, md.units[name], quantile(md.vals[name], 0.5), len(md.vals[name]))
	}
}

// traceWriter keeps the traced run's spans in memory and writes them as
// a Chrome trace (chrome://tracing, Perfetto) at exit.
type traceWriter struct {
	base   time.Time
	events []chromeEvent
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

func newTraceWriter() *traceWriter { return &traceWriter{base: time.Now()} }

func (tw *traceWriter) span(cat string, tid int, name string, start, end time.Time, args map[string]any) {
	tw.events = append(tw.events, chromeEvent{
		Name: name, Cat: cat, Ph: "X", Pid: 1, Tid: tid,
		Ts:   float64(start.Sub(tw.base).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(start).Nanoseconds()) / 1e3,
		Args: args,
	})
}

// call records one traced call as rep → core.build / net.engine /
// core.assemble → net.round spans; stepNs, when given, is the Step time
// folded per round. Tid 1 holds the workers=1 shim calls, tid 2 the
// workers=2 wrapper calls.
func (tw *traceWriter) call(workload string, tid, rep int, c tracedCall, stepNs []int64) {
	tw.span(workload, tid, "rep", c.start, c.end, map[string]any{"rep": rep})
	tw.span(workload, tid, "core.build", c.start, c.span.entry, nil)
	tw.span(workload, tid, "net.engine", c.span.entry, c.span.exit, nil)
	prev := c.span.entry
	for r, t := range c.span.rounds {
		args := map[string]any{"round": r}
		if r < len(stepNs) {
			args["step_ms"] = float64(stepNs[r]) / 1e6
		}
		tw.span(workload, tid, "net.round", prev, t, args)
		prev = t
	}
	tw.span(workload, tid, "core.assemble", c.span.exit, c.end, nil)
}

// whole records the workload span enclosing every rep on both threads.
func (tw *traceWriter) whole(workload string, start, end time.Time) {
	for _, tid := range []int{1, 2} {
		tw.span(workload, tid, workload, start, end, nil)
	}
}

func (tw *traceWriter) write(path string) error {
	b, err := json.Marshal(map[string]any{"traceEvents": tw.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
