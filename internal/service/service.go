// Package service implements dimaserve: an HTTP coloring service over
// the shard engine. Clients submit a graph (an uploaded edge list or a
// generator spec), the job enters a bounded queue drained by a worker
// pool, and the run can be watched, fetched, and canceled over HTTP.
//
// The queue applies backpressure: a submit that finds it full is
// rejected immediately with 429 rather than parked, so a burst degrades
// into explicit retries instead of unbounded memory. Cancellation rides
// the engines' context support (net.Config.Ctx): a canceled job stops
// at its next round barrier and frees its worker; its partial coloring
// remains fetchable. See docs/SERVING.md for the API.
package service

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dima/internal/automaton"
	"dima/internal/core"
	"dima/internal/dynamic"
	"dima/internal/graph"
	"dima/internal/metrics"
	"dima/internal/net"
)

// Config configures a Server. The zero value is usable: one worker, a
// 16-deep queue, no per-job deadline, shard workers at GOMAXPROCS.
type Config struct {
	// QueueSize bounds the number of jobs waiting for a worker; a submit
	// beyond it is rejected with 429. 0 means 16.
	QueueSize int
	// Workers is the number of jobs colored concurrently. 0 means 1.
	Workers int
	// ShardWorkers is the shard engine's worker count per job
	// (net.Config.Workers); 0 means GOMAXPROCS.
	ShardWorkers int
	// JobTimeout bounds each run's wall clock; past it the run aborts at
	// its next round barrier and the job finishes canceled. 0 = no bound.
	JobTimeout time.Duration
	// MaxRounds caps a job's computation rounds; a request may ask for
	// fewer but not more. 0 means the core default (100,000).
	MaxRounds int
	// MaxBodyBytes bounds an upload's size. 0 means 32 MiB.
	MaxBodyBytes int64
	// Registry, when non-nil, receives the service counters and gauges
	// and is additionally served at /metrics (with /debug/pprof/) on the
	// service mux. Nil keeps the instruments internal and unexposed.
	Registry *metrics.Registry
	// Runner executes one job; nil means the shard engine via
	// core.ColorEdgesCtx / core.ColorStrongCtx (ShardRunner). Tests
	// inject deterministic runners here; cluster mode injects a
	// dispatching runner (internal/cluster) that ships jobs to remote
	// worker processes.
	Runner Runner
	// Cluster, when non-nil, reports the cluster backend behind Runner:
	// /readyz gates on it having at least one registered worker and
	// /healthz grows per-worker rows and dispatch counters. Nil means
	// local execution (always ready).
	Cluster ClusterStatus
}

// ClusterStatus is what the HTTP plane needs to know about a cluster
// backend. internal/cluster's front end implements it; the indirection
// keeps service free of a dependency on the cluster package.
type ClusterStatus interface {
	// ClusterHealth snapshots the worker registry and dispatch counters.
	ClusterHealth() ClusterHealth
}

// ClusterHealth is the registry snapshot served under /healthz's
// "cluster" key and consulted by /readyz.
type ClusterHealth struct {
	// Ready reports whether the cluster can accept a job right now (at
	// least one registered worker).
	Ready bool `json:"ready"`
	// Workers lists the live registry, in registration order.
	Workers []WorkerInfo `json:"workers"`
	// Dispatched counts job dispatch attempts (retries included),
	// Retries the re-dispatches after a worker failure, and WorkerErrors
	// the worker failures observed (evictions and broken connections
	// with jobs in flight included).
	Dispatched   int64 `json:"dispatched"`
	Retries      int64 `json:"retries"`
	WorkerErrors int64 `json:"workerErrors"`
}

// WorkerInfo is one registry row.
type WorkerInfo struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Addr string `json:"addr"`
	// Running and Queued are the worker's own last heartbeat report;
	// Inflight is the front end's count of jobs dispatched to it and not
	// yet concluded.
	Running  int `json:"running"`
	Queued   int `json:"queued"`
	Inflight int `json:"inflight"`
	// HeartbeatAgeSec is how stale the last heartbeat is; past the
	// registry's deadline the worker is evicted.
	HeartbeatAgeSec float64 `json:"heartbeatAgeSec"`
}

// Runner executes one coloring job. The sink receives the run's
// per-round stats (delivered during the run by the local runner, and
// after the attempt by a cluster front end); implementations must
// honor ctx by returning a Result with Aborted set.
type Runner func(ctx context.Context, req JobRequest, sink metrics.Sink) (*core.Result, error)

// JobRequest is a parsed, validated submission.
type JobRequest struct {
	// Graph is the instance to color.
	Graph *graph.Graph
	// Strong selects Algorithm 2 (strong distance-2 coloring of the
	// symmetric digraph) instead of Algorithm 1 (edge coloring).
	Strong bool
	// Seed determines every random choice of the run.
	Seed uint64
	// MaxRounds caps computation rounds (0 = server default).
	MaxRounds int
	// Recovery enables the loss-recovery protocol layer for this run
	// (core.Options.Recovery with defaults). Deterministic like
	// everything else: equal requests yield equal results with it on.
	Recovery bool
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// job is one submission's full record. mu guards every mutable field;
// stats is written only by the job's worker while running and read by
// handlers only in a terminal state, so it needs no lock of its own.
type job struct {
	id  string
	req JobRequest

	mu        sync.Mutex
	state     State
	cancel    context.CancelFunc // set while running
	submitted time.Time
	started   time.Time
	finished  time.Time
	res       *core.Result
	errMsg    string
	stats     *metrics.Memory

	// bcast is the job's live event stream (GET /jobs/{id}/events):
	// status transitions, per-round RoundStats, and mutation-repair
	// reports fan out to SSE subscribers through it. It is created at
	// submit time and never blocks a publisher — slow subscribers drop
	// events with a counted marker (metrics.BroadcastSink).
	bcast *metrics.BroadcastSink

	// Dynamic recoloring state (POST /jobs/{id}/mutate). rec is created
	// lazily on the first mutate call and guarded by recMu, which also
	// serializes concurrent mutation streams; the mut* summary fields are
	// snapshots updated under mu after each batch so status reads never
	// touch the recolorer. Lock order: recMu before mu, never the
	// reverse.
	recMu          sync.Mutex
	rec            *dynamic.Recolorer
	mutBatches     int
	mutM           int
	mutColors      int
	mutMaxColor    int
	mutIDBound     int
	mutMaintain    int // maintenance passes run for this job
	mutCompactions int
	mutRebalances  int
}

// Server is the coloring service. It implements http.Handler; create
// one with New and stop it with Shutdown (drain) or Close (abort).
type Server struct {
	cfg    Config
	runner Runner
	mux    *http.ServeMux

	baseCtx    context.Context // canceled by Close / Shutdown deadline
	baseCancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for listing
	nextID int
	closed bool

	queue chan *job
	wg    sync.WaitGroup

	// abandoned counts jobs still queued or running when a Shutdown
	// deadline expired; they were canceled rather than drained. Guarded
	// by mu, reported by Abandoned for the shutdown log line.
	abandoned int

	started time.Time // server start, for /healthz uptime

	// Instruments (registered on cfg.Registry when present).
	submitted, rejected, done, failed, canceled *metrics.Counter
	queued, running                             *metrics.Gauge
	mutBatches, mutRejected, mutRepaired        *metrics.Counter
	maintPasses, maintCompact, maintRebalance   *metrics.Counter
	eventsDropped                               *metrics.Counter
	eventSubs                                   *metrics.Gauge
	queueWait, runTime, repairTime, maintTime   *metrics.Histogram
}

// latencyBucketsUsec are the bucket bounds, in microseconds, shared by
// the service latency histograms: 50µs to 10s, roughly logarithmic —
// wide enough for queue waits under backpressure, fine enough to place
// the µs-scale dynamic repairs.
var latencyBucketsUsec = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
	250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:       cfg,
		runner:    cfg.Runner,
		jobs:      map[string]*job{},
		queue:     make(chan *job, cfg.QueueSize),
		started:   time.Now(),
		submitted: reg.Counter("serve_jobs_submitted_total"),
		rejected:  reg.Counter("serve_jobs_rejected_total"),
		done:      reg.Counter("serve_jobs_done_total"),
		failed:    reg.Counter("serve_jobs_failed_total"),
		canceled:  reg.Counter("serve_jobs_canceled_total"),
		queued:    reg.Gauge("serve_jobs_queued"),
		running:   reg.Gauge("serve_jobs_running"),

		mutBatches:  reg.Counter("serve_mutate_batches_total"),
		mutRejected: reg.Counter("serve_mutate_batches_rejected_total"),
		mutRepaired: reg.Counter("serve_mutate_edges_repaired_total"),

		maintPasses:    reg.Counter("serve_maintain_passes_total"),
		maintCompact:   reg.Counter("serve_maintain_compactions_total"),
		maintRebalance: reg.Counter("serve_maintain_rebalances_total"),

		eventsDropped: reg.Counter("serve_events_dropped_total"),
		eventSubs:     reg.Gauge("serve_event_subscribers"),
		queueWait:     reg.Histogram("serve_queue_wait_usec", latencyBucketsUsec...),
		runTime:       reg.Histogram("serve_run_usec", latencyBucketsUsec...),
		repairTime:    reg.Histogram("serve_mutate_repair_usec", latencyBucketsUsec...),
		maintTime:     reg.Histogram("serve_maintain_usec", latencyBucketsUsec...),
	}
	describeMetrics(reg)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if s.runner == nil {
		s.runner = ShardRunner(cfg.ShardWorkers)
	}
	s.mux = s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// describeMetrics attaches # HELP text to every service-level
// instrument; docs/OBSERVABILITY.md carries the same inventory.
func describeMetrics(reg *metrics.Registry) {
	for name, help := range map[string]string{
		"serve_jobs_submitted_total":          "Jobs accepted into the queue since start.",
		"serve_jobs_rejected_total":           "Submissions bounced with 429 because the queue was full.",
		"serve_jobs_done_total":               "Jobs finished with a complete coloring.",
		"serve_jobs_failed_total":             "Jobs finished with a runner error.",
		"serve_jobs_canceled_total":           "Jobs canceled while queued or aborted mid-run.",
		"serve_jobs_queued":                   "Jobs currently waiting for a worker.",
		"serve_jobs_running":                  "Jobs currently being colored (busy workers).",
		"serve_mutate_batches_total":          "Mutation batches applied across all jobs.",
		"serve_mutate_batches_rejected_total": "Mutation batches rejected atomically (validation failure).",
		"serve_mutate_edges_repaired_total":   "Frontier edges recolored by incremental repair.",
		"serve_maintain_passes_total":         "Maintenance passes run between mutation batches.",
		"serve_maintain_compactions_total":    "Maintenance passes that compacted the edge-id space.",
		"serve_maintain_rebalances_total":     "Maintenance passes that rebalanced colors off the palette top.",
		"serve_maintain_usec":                 "Microseconds per maintenance pass (compaction + rebalance).",
		"serve_events_dropped_total":          "Job-stream events dropped for slow SSE subscribers.",
		"serve_event_subscribers":             "Live SSE subscriptions across all jobs.",
		"serve_queue_wait_usec":               "Microseconds jobs spent queued before a worker picked them up.",
		"serve_run_usec":                      "Microseconds of wall clock per coloring run.",
		"serve_mutate_repair_usec":            "Microseconds per mutation batch spent in incremental repair.",
	} {
		reg.Help(name, help)
	}
}

// ShardRunner is the production runner: the shard engine under the
// job's context, per docs/PERFORMANCE.md the fastest at every size.
// workers is the shard worker count per job (0 = GOMAXPROCS). Exported
// because cluster workers (internal/cluster) execute dispatched jobs
// through exactly this runner — remote execution differs only in where
// the runner runs.
func ShardRunner(workers int) Runner {
	return func(ctx context.Context, req JobRequest, sink metrics.Sink) (*core.Result, error) {
		opt := core.Options{
			Seed:          req.Seed,
			Engine:        net.RunShard,
			Workers:       workers,
			MaxCompRounds: req.MaxRounds,
			Metrics:       sink,
			Recovery:      automaton.Recovery{Enabled: req.Recovery},
		}
		if req.Strong {
			return core.ColorStrongCtx(ctx, graph.NewSymmetric(req.Graph), opt)
		}
		return core.ColorEdgesCtx(ctx, req.Graph, opt)
	}
}

// ServeHTTP dispatches to the service routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// submit enqueues a validated request, returning the new job or an
// ErrQueueFull / ErrClosed sentinel for the handler to map to a status.
func (s *Server) submit(req JobRequest) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	j := &job{
		id:        fmt.Sprintf("j%06d", s.nextID+1),
		req:       req,
		state:     StateQueued,
		submitted: time.Now(),
		stats:     &metrics.Memory{},
		bcast:     metrics.NewBroadcastSink(eventLogKeep),
	}
	j.bcast.SetDropCounter(s.eventsDropped)
	select {
	case s.queue <- j:
	default:
		s.rejected.Inc()
		return nil, ErrQueueFull
	}
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.submitted.Inc()
	s.queued.Add(1)
	j.publishStatus()
	return j, nil
}

// eventLogKeep bounds each job's retained event log for SSE replay: a
// run's full RoundStats stream plus a generous tail of mutation
// reports. A long-lived dynamic job can outgrow it; late subscribers
// then see a dropped marker before the retained suffix.
const eventLogKeep = 4096

// publishStatus broadcasts the job's current status snapshot.
func (j *job) publishStatus() { j.bcast.Publish(metrics.EventStatus, j.status()) }

// ErrQueueFull and ErrClosed are submit's rejection reasons.
var (
	ErrQueueFull = fmt.Errorf("service: job queue full")
	ErrClosed    = fmt.Errorf("service: server is shutting down")
)

// get looks a job up by id.
func (s *Server) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// worker drains the queue until it is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end: claim it (unless canceled while
// queued), run under a cancelable context, record the outcome.
func (s *Server) runJob(j *job) {
	s.queued.Add(-1)
	j.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	j.state = StateRunning
	j.cancel = cancel
	j.started = time.Now()
	// The run's RoundStats go to the job record (for /stats) and to the
	// live event stream; the broadcast never blocks the emitting worker.
	sink := metrics.Multi(j.stats, j.bcast)
	req := j.req
	if s.cfg.MaxRounds > 0 && (req.MaxRounds <= 0 || req.MaxRounds > s.cfg.MaxRounds) {
		req.MaxRounds = s.cfg.MaxRounds
	}
	wait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	s.queueWait.Observe(wait.Microseconds())
	s.running.Add(1)
	j.publishStatus()

	res, err := s.runner(ctx, req, sink)
	cancel()

	s.running.Add(-1)
	j.mu.Lock()
	j.cancel = nil
	j.finished = time.Now()
	s.runTime.Observe(j.finished.Sub(j.started).Microseconds())
	switch {
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.failed.Inc()
	case res.Aborted:
		// The engine stopped at a round barrier; the partial coloring
		// stays fetchable from the result endpoint.
		j.state = StateCanceled
		j.res = res
		s.canceled.Inc()
	default:
		j.state = StateDone
		j.res = res
		s.done.Inc()
	}
	j.mu.Unlock()
	// Terminal status is published after the round stream, so an SSE
	// subscriber that sees it knows the per-round records precede it.
	j.publishStatus()
}

// cancelJob requests cancellation: a queued job finishes immediately, a
// running one aborts at its next round barrier (best effort — a run
// that completes in the same round finishes done). It reports the
// state observed after the request.
func (s *Server) cancelJob(j *job) State {
	j.mu.Lock()
	state := j.state
	canceledQueued := false
	switch state {
	case StateQueued:
		// The worker that eventually pops it sees the state and skips.
		j.state = StateCanceled
		j.finished = time.Now()
		s.canceled.Inc()
		state = j.state
		canceledQueued = true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	if canceledQueued {
		j.publishStatus()
	}
	return state
}

// Shutdown stops accepting submissions and waits for the queue and all
// running jobs to drain. If ctx expires first, every remaining run is
// canceled (aborting at its round barrier) and Shutdown returns ctx's
// error once the workers exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		// Count what the deadline is about to cut off before canceling,
		// so the operator's shutdown log can say how many jobs were
		// abandoned rather than drained. Lock order s.mu then j.mu
		// matches the handlers; nothing takes them in reverse.
		s.mu.Lock()
		for _, id := range s.order {
			j := s.jobs[id]
			j.mu.Lock()
			if !j.state.terminal() {
				s.abandoned++
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
		s.baseCancel()
		<-drained
		return ctx.Err()
	}
}

// Abandoned reports how many jobs were still queued or running when a
// Shutdown deadline expired and were canceled instead of drained. Zero
// after a clean drain.
func (s *Server) Abandoned() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abandoned
}

// Close aborts every queued and running job and waits for the workers
// to exit. Equivalent to Shutdown with an already-expired context.
func (s *Server) Close() {
	s.baseCancel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
}

// defaultShardWorkers resolves the effective shard worker count, for
// reporting in /healthz.
func (s *Server) defaultShardWorkers() int {
	if s.cfg.ShardWorkers > 0 {
		return s.cfg.ShardWorkers
	}
	return runtime.GOMAXPROCS(0)
}
