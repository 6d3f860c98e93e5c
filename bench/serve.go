package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/rng"
	"dima/internal/service"
	"dima/internal/verify"
)

// serveMix is the open-loop service workload: operations arrive on a
// seeded Poisson schedule whether or not earlier ones have finished, and
// each is timed from the moment it was due.
type serveMix struct {
	rate     float64 // offered operations per second
	jobShare float64 // share of operations that are coloring jobs; the rest mutate
	n        int     // job graph: Erdős–Rényi on n vertices
	deg      float64 // job graph average degree
	batch    int     // insertions per mutate batch
	// paletteCut sets a mutate's palette to its job's color count minus
	// paletteCut, tight enough that a share of batches take the automaton
	// repair instead of the greedy fast path.
	paletteCut int
	// minAge: a mutate targets a job that was due at least this long
	// before it, so the job has finished by then.
	minAge time.Duration
	warmup time.Duration // operations due before it run but are not measured
	poll   time.Duration // status poll interval while a job runs
	conns  int           // keep-alive connections to the server
	limit  time.Duration // a job done later than this after its due time misses goodput
}

var serveMixDefault = serveMix{
	rate: 12, jobShare: 0.7, n: 2000, deg: 6, batch: 20, paletteCut: 4,
	minAge: time.Second, warmup: 3 * time.Second, poll: 5 * time.Millisecond,
	conns: 2, limit: 250 * time.Millisecond,
}

// serveSpawns is how many times a run starts dimaserve and times it to
// ready; the last server takes the load.
const serveSpawns = 9

// serveOp is one scheduled operation.
type serveOp struct {
	due  time.Duration // since the start of the schedule
	job  bool
	seed uint64 // job: generator and run seed; mutate: repair seed
	// Mutates only: the index of the job operation whose result it
	// mutates, and the edges it inserts.
	target  int
	inserts [][2]int
}

func (m serveMix) jobGraph(seed uint64) (*graph.Graph, error) {
	return gen.ErdosRenyiAvgDegree(rng.New(seed), m.n, m.deg)
}

// schedule draws the operations due within span. It is a pure function
// of seed: arrival times, kinds, job graphs, mutate targets and the
// inserted edges, which are chosen against each target graph as earlier
// batches left it.
func (m serveMix) schedule(seed uint64, span time.Duration) ([]serveOp, error) {
	r := rng.New(seed)
	var ops []serveOp
	var jobs []int // indices of job operations, in due order
	graphs := map[int]*graph.Graph{}
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / m.rate
		op := serveOp{due: time.Duration(t * float64(time.Second)), seed: r.Uint64()}
		if op.due >= span {
			return ops, nil
		}
		eligible := sort.Search(len(jobs), func(k int) bool { return ops[jobs[k]].due > op.due-m.minAge })
		op.job = r.Float64() < m.jobShare || eligible == 0
		if op.job {
			jobs = append(jobs, len(ops))
			ops = append(ops, op)
			continue
		}
		op.target = jobs[r.Intn(eligible)]
		g := graphs[op.target]
		if g == nil {
			var err error
			if g, err = m.jobGraph(ops[op.target].seed); err != nil {
				return nil, err
			}
			graphs[op.target] = g
		}
		pick := rng.New(op.seed)
		for len(op.inserts) < m.batch {
			u, v := pick.Intn(m.n), pick.Intn(m.n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v)
			op.inserts = append(op.inserts, [2]int{u, v})
		}
		ops = append(ops, op)
	}
}

// serveOutcome is what one operation measured.
type serveOutcome struct {
	err      error
	late     time.Duration // how late the generator started it
	latency  time.Duration // due time to the last byte of its final response
	rejected bool          // the submit got 429
	// Jobs.
	submit, detect, result time.Duration
	queueWait, run         time.Duration
	colors                 []int
	numColors, rounds      int
	// Mutates.
	repairRounds int
	automaton    bool
}

// jobState lets mutates find the job they target.
type jobState struct {
	ready  chan struct{} // closed when the job operation ends
	id     string        // set, with colors, before ready closes if the job succeeded
	colors int
}

type serveClient struct {
	base string
	http *http.Client
	mix  serveMix
}

// decodeBody reads and closes resp's body and decodes it into v when the
// status is 2xx; any other status is an error carrying the body.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

func (c *serveClient) get(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	return decodeBody(resp, v)
}

// job submits a generator spec, polls the status until the job ends and
// reads the result.
func (c *serveClient) job(op serveOp, due time.Time, st *jobState) (o serveOutcome) {
	defer close(st.ready)
	body, err := json.Marshal(service.SubmitRequest{
		Gen:  &service.GenSpec{Family: "er", N: c.mix.n, Deg: c.mix.deg, Seed: op.seed},
		Seed: op.seed,
	})
	if err != nil {
		o.err = err
		return o
	}
	t := time.Now()
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.rejected = resp.StatusCode == http.StatusTooManyRequests
	var js service.JobStatus
	if err := decodeBody(resp, &js); err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.submit = time.Since(t)
	for js.State == service.StateQueued || js.State == service.StateRunning {
		time.Sleep(c.mix.poll)
		if err := c.get("/jobs/"+js.ID, &js); err != nil {
			o.err = fmt.Errorf("status: %w", err)
			return o
		}
	}
	detected := time.Now()
	if js.State != service.StateDone || js.FinishedAt == nil || js.StartedAt == nil {
		o.err = fmt.Errorf("job %s ended %s: %s", js.ID, js.State, js.Error)
		return o
	}
	t = time.Now()
	var jr service.JobResult
	if err := c.get("/jobs/"+js.ID+"/result", &jr); err != nil {
		o.err = fmt.Errorf("result: %w", err)
		return o
	}
	end := time.Now()
	if jr.Result == nil || !jr.Result.Terminated {
		o.err = fmt.Errorf("job %s result did not terminate", js.ID)
		return o
	}
	o.latency = end.Sub(due)
	o.result = end.Sub(t)
	o.detect = detected.Sub(*js.FinishedAt)
	o.queueWait = js.StartedAt.Sub(js.SubmittedAt)
	o.run = js.FinishedAt.Sub(*js.StartedAt)
	o.colors, o.numColors, o.rounds = jr.Colors, jr.Result.Colors, jr.Result.Rounds
	st.id, st.colors = js.ID, jr.Result.Colors
	return o
}

// mutate sends one insertion batch to its target job and requires the
// response to report the batch applied and the coloring valid.
func (c *serveClient) mutate(op serveOp, due time.Time, target *jobState) (o serveOutcome) {
	<-target.ready
	if target.id == "" {
		o.err = errors.New("target job failed")
		return o
	}
	batch := service.MutateBatch{Seq: 1}
	for _, e := range op.inserts {
		batch.Muts = append(batch.Muts, service.MutateMutation{Op: "+", U: e[0], V: e[1]})
	}
	line, err := json.Marshal(batch)
	if err != nil {
		o.err = err
		return o
	}
	url := fmt.Sprintf("%s/jobs/%s/mutate?palette=%d&seed=%d", c.base, target.id, max(1, target.colors-c.mix.paletteCut), op.seed)
	resp, err := c.http.Post(url, "application/x-ndjson", bytes.NewReader(append(line, '\n')))
	if err != nil {
		o.err = fmt.Errorf("mutate: %w", err)
		return o
	}
	var mr service.MutateResponse
	if err := decodeBody(resp, &mr); err != nil {
		o.err = fmt.Errorf("mutate: %w", err)
		return o
	}
	o.latency = time.Since(due)
	if !mr.Applied || mr.Valid == nil || !*mr.Valid {
		o.err = fmt.Errorf("mutate of %s not applied with \"valid\":true: %+v", target.id, mr)
		return o
	}
	o.repairRounds, o.automaton = mr.RepairRounds, mr.RegionEdges > 0
	return o
}

// scrape reads the unlabeled samples of the server's /metrics.
func (c *serveClient) scrape() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// run offers the schedule of seed to the server at base for the warm-up
// plus window, then verifies every measured job by regenerating its
// graph from the spec, and adds the metrics to rr.
func (m serveMix) run(base string, seed uint64, window time.Duration, rr *runResult) error {
	ops, err := m.schedule(seed, m.warmup+window)
	if err != nil {
		return err
	}
	tr := &http.Transport{MaxConnsPerHost: m.conns, MaxIdleConnsPerHost: m.conns}
	defer tr.CloseIdleConnections()
	c := &serveClient{base: base, http: &http.Client{Transport: tr, Timeout: time.Minute}, mix: m}

	states := make([]jobState, len(ops))
	for i := range states {
		states[i].ready = make(chan struct{})
	}
	outs := make([]serveOutcome, len(ops))
	var before map[string]float64
	var beforeErr error
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(start.Add(m.warmup)))
		before, beforeErr = c.scrape()
	}()
	for i, op := range ops {
		due := start.Add(op.due)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		wg.Add(1)
		go func(i int, op serveOp) {
			defer wg.Done()
			if op.job {
				outs[i] = c.job(op, due, &states[i])
			} else {
				outs[i] = c.mutate(op, due, &states[op.target])
			}
			outs[i].late = late
		}(i, op)
	}
	wg.Wait()
	after, err := c.scrape()
	if err == nil {
		err = beforeErr
	}
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}

	var jobMs, mutMs, submitMs, waitMs, runMs, detectMs, resultMs []float64
	var colorsPerLB, roundsPerDelta, repairRounds []float64
	var jobs, good, rejected, automaton int
	var lateMax time.Duration
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for i, op := range ops {
		if op.due < m.warmup {
			continue
		}
		o := outs[i]
		lateMax = max(lateMax, o.late)
		rr.Attempted++
		if op.job {
			jobs++
			if o.rejected {
				rejected++
			}
		}
		if o.err != nil {
			rr.fail("operation %d: %v", i, o.err)
			continue
		}
		if !op.job {
			mutMs = append(mutMs, ms(o.latency))
			repairRounds = append(repairRounds, float64(o.repairRounds))
			if o.automaton {
				automaton++
			}
			continue
		}
		g, err := m.jobGraph(op.seed)
		if err != nil {
			return err
		}
		delta := g.MaxDegree()
		if v := verify.EdgeColoring(g, o.colors); len(v) > 0 || len(o.colors) != g.M() || o.numColors > 2*delta-1 {
			rr.fail("job %d: %d colors for %d edges fail verification (%d violations, %d colors, 2Δ-1 = %d)",
				i, len(o.colors), g.M(), len(v), o.numColors, 2*delta-1)
			continue
		}
		if o.latency <= m.limit {
			good++
		}
		jobMs = append(jobMs, ms(o.latency))
		submitMs = append(submitMs, ms(o.submit))
		waitMs = append(waitMs, ms(o.queueWait))
		runMs = append(runMs, ms(o.run))
		detectMs = append(detectMs, ms(o.detect))
		resultMs = append(resultMs, ms(o.result))
		colorsPerLB = append(colorsPerLB, float64(o.numColors)/float64(delta))
		roundsPerDelta = append(roundsPerDelta, float64(o.rounds)/float64(delta))
	}
	if len(jobMs) == 0 {
		return errors.New("no job completed in the window")
	}

	done := len(jobMs)
	allocMB := (after["go_total_alloc_bytes"] - before["go_total_alloc_bytes"]) / 1e6 / float64(done)
	repairN := after["serve_mutate_repair_usec_count"] - before["serve_mutate_repair_usec_count"]
	repairMs := (after["serve_mutate_repair_usec_sum"] - before["serve_mutate_repair_usec_sum"]) / 1e3 / repairN
	rr.add("color_p10_ms", "ms", quantile(jobMs, 0.1), done)
	rr.add("color_p50_ms", "ms", quantile(jobMs, 0.5), done)
	rr.add("alloc_mb", "MB", allocMB, done)
	rr.add("colors_per_lb", "ratio", mean(colorsPerLB), done)
	rr.add("rounds_per_delta", "ratio", mean(roundsPerDelta), done)
	rr.add("job_p90_ms", "ms", quantile(jobMs, 0.9), done)
	rr.add("mutate_p50_ms", "ms", quantile(mutMs, 0.5), len(mutMs))
	rr.add("goodput_frac", "fraction", float64(good)/float64(jobs), jobs)
	rr.add("service.submit_ms_p50", "ms", quantile(submitMs, 0.5), done)
	rr.add("service.queue_wait_ms_p50", "ms", quantile(waitMs, 0.5), done)
	rr.add("service.queue_wait_ms_p90", "ms", quantile(waitMs, 0.9), done)
	rr.add("service.run_ms_p50", "ms", quantile(runMs, 0.5), done)
	rr.add("service.run_ms_p90", "ms", quantile(runMs, 0.9), done)
	rr.add("service.detect_ms_p50", "ms", quantile(detectMs, 0.5), done)
	rr.add("service.result_ms_p50", "ms", quantile(resultMs, 0.5), done)
	rr.add("service.rejected_frac", "fraction", float64(rejected)/float64(jobs), jobs)
	rr.add("dynamic.repair_ms_mean", "ms", repairMs, int(repairN))
	rr.add("dynamic.automaton_frac", "fraction", float64(automaton)/float64(len(mutMs)), len(mutMs))
	rr.add("dynamic.repair_rounds_mean", "rounds", mean(repairRounds), len(mutMs))
	rr.add("loadgen.late_ms_max", "ms", ms(lateMax), rr.Attempted)
	return nil
}

// server is a spawned dimaserve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// addrWatcher receives dimaserve's stderr and reports the address from
// its "listening on http://ADDR " line.
type addrWatcher struct {
	buf   []byte
	found bool
	addr  chan string
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	if w.found {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	const marker = "listening on http://"
	if i := bytes.Index(w.buf, []byte(marker)); i >= 0 {
		rest := w.buf[i+len(marker):]
		if j := bytes.IndexAny(rest, " \n"); j >= 0 {
			w.found = true
			w.addr <- string(rest[:j])
			w.buf = nil
		}
	}
	return len(p), nil
}

// defaultGOMAXPROCS drops GOMAXPROCS from env: the server runs with
// every CPU, as deployed, even when the benchmark itself runs on one.
func defaultGOMAXPROCS(env []string) []string {
	var out []string
	for _, kv := range env {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			out = append(out, kv)
		}
	}
	return out
}

// spawnServer starts dimaserve on a free loopback port and returns once
// /readyz answers 200, with the time that took.
func spawnServer(bin string) (*server, time.Duration, error) {
	w := &addrWatcher{addr: make(chan string, 1)}
	// One shard worker per job: with two, every round of a job crosses a
	// barrier between threads, and the job latency spread twice as far
	// between runs (README.md).
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-shard-workers", "1")
	cmd.Env = defaultGOMAXPROCS(os.Environ())
	cmd.Stderr = w
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dimaserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	select {
	case addr := <-w.addr:
		s.base = "http://" + addr
	case err := <-s.exited:
		return nil, 0, fmt.Errorf("dimaserve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, errors.New("dimaserve did not report its address within 30s")
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("dimaserve not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, which drains the server, and waits for it to exit,
// killing it after 10s.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// serveRun is one serve-mix run: it times serveSpawns server start-ups
// as set-up, then offers the mix to the last server. A traced run also
// measures one serve-mix job's engine layers in-process.
func serveRun(bin string, seed uint64, window time.Duration, tw *traceWriter) (*runResult, error) {
	rr := &runResult{Workload: "serve-mix", Seed: seed}
	var setup []float64
	var srv *server
	for i := 0; i < serveSpawns; i++ {
		s, dt, err := spawnServer(bin)
		if err != nil {
			return nil, err
		}
		setup = append(setup, dt.Seconds())
		if i < serveSpawns-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	rr.add("setup_s", "s", quantile(setup, 0.5), len(setup))
	if err := serveMixDefault.run(srv.base, seed, window, rr); err != nil {
		return nil, err
	}
	if tw == nil {
		return rr, nil
	}
	job := engineWorkload{name: "serve-mix", n: serveMixDefault.n, deg: serveMixDefault.deg, inputs: 1}
	tr, err := job.trace(seed, window, tw)
	if err != nil {
		return nil, err
	}
	rr.Metrics = append(rr.Metrics, tr.Metrics...)
	rr.Attempted += tr.Attempted
	rr.Failed += tr.Failed
	rr.Errors = append(rr.Errors, tr.Errors...)
	return rr, nil
}
