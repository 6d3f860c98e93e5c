package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"dima/internal/metrics"
)

// The HTTP API (docs/SERVING.md has the full contract):
//
//	POST   /jobs              submit a job; 202 with its status,
//	                          400 bad request, 429 queue full,
//	                          503 shutting down
//	GET    /jobs              list every job's status
//	GET    /jobs/{id}         one job's status
//	GET    /jobs/{id}/result  the coloring (done or canceled jobs)
//	GET    /jobs/{id}/stats   per-round telemetry as JSON Lines
//	GET    /jobs/{id}/events  live Server-Sent-Events stream: status
//	                          transitions, per-round stats, mutation
//	                          reports (events.go)
//	POST   /jobs/{id}/mutate  stream mutation batches into a finished
//	                          edge-coloring job (incremental repair)
//	POST   /jobs/{id}/cancel  request cancellation (also DELETE /jobs/{id})
//	GET    /healthz           liveness, queue depth, workers, uptime;
//	                          in cluster mode also per-worker registry
//	                          rows and dispatch counters
//	GET    /readyz            readiness: 200 when the service can accept
//	                          and execute a job right now, 503 while
//	                          draining or when cluster mode has no
//	                          registered workers
//
// With Config.Registry set, /metrics (Prometheus text exposition) and
// /debug/pprof/ are mounted too.

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/stats", s.handleStats)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /jobs/{id}/mutate", s.handleMutate)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.Registry != nil {
		mux.Handle("GET /metrics", metrics.PromHandler(s.cfg.Registry))
		mux.Handle("GET /debug/pprof/", metrics.DebugHandler(s.cfg.Registry))
	}
	return mux
}

// JobStatus is the wire form of one job.
type JobStatus struct {
	ID          string         `json:"id"`
	State       State          `json:"state"`
	Strong      bool           `json:"strong"`
	Recovery    bool           `json:"recovery,omitempty"`
	N           int            `json:"n"`
	M           int            `json:"m"`
	Seed        uint64         `json:"seed"`
	SubmittedAt time.Time      `json:"submittedAt"`
	StartedAt   *time.Time     `json:"startedAt,omitempty"`
	FinishedAt  *time.Time     `json:"finishedAt,omitempty"`
	Error       string         `json:"error,omitempty"`
	Result      *ResultSummary `json:"result,omitempty"`
	// Mutations summarizes the dynamic recoloring state when the job has
	// had mutation batches applied (POST /jobs/{id}/mutate).
	Mutations *MutationSummary `json:"mutations,omitempty"`
}

// MutationSummary reports the maintained coloring after mutations.
// EdgeIDBound vs M exposes id-space fragmentation: their ratio
// (HoleRatio) is what the maintenance hole trigger watches, and the
// maintain* fields count the passes that have reclaimed it.
type MutationSummary struct {
	Batches     int     `json:"batches"`
	M           int     `json:"m"`
	Colors      int     `json:"colors"`
	MaxColor    int     `json:"maxColor"`
	EdgeIDBound int     `json:"edgeIDBound"`
	HoleRatio   float64 `json:"holeRatio"`
	// Maintenance pass counts (0 unless the stream opted in with
	// maintain=true).
	MaintainPasses int `json:"maintainPasses"`
	Compactions    int `json:"compactions"`
	Rebalances     int `json:"rebalances"`
}

// ResultSummary is the scalar outcome; the full coloring lives at the
// result endpoint.
type ResultSummary struct {
	Colors     int   `json:"colors"`
	MaxColor   int   `json:"maxColor"`
	Rounds     int   `json:"rounds"`
	CommRounds int   `json:"commRounds"`
	Messages   int64 `json:"messages"`
	Items      int   `json:"items"`
	Colored    int   `json:"colored"`
	Terminated bool  `json:"terminated"`
	Aborted    bool  `json:"aborted"`
}

// status snapshots a job under its lock.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Strong:      j.req.Strong,
		Recovery:    j.req.Recovery,
		N:           j.req.Graph.N(),
		M:           j.req.Graph.M(),
		Seed:        j.req.Seed,
		SubmittedAt: j.submitted,
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.mutBatches > 0 {
		ms := &MutationSummary{
			Batches: j.mutBatches, M: j.mutM,
			Colors: j.mutColors, MaxColor: j.mutMaxColor,
			EdgeIDBound:    j.mutIDBound,
			MaintainPasses: j.mutMaintain,
			Compactions:    j.mutCompactions,
			Rebalances:     j.mutRebalances,
		}
		if j.mutM > 0 {
			ms.HoleRatio = float64(j.mutIDBound) / float64(j.mutM)
		}
		st.Mutations = ms
	}
	if j.res != nil {
		colored := 0
		for _, c := range j.res.Colors {
			if c >= 0 {
				colored++
			}
		}
		st.Result = &ResultSummary{
			Colors:     j.res.NumColors,
			MaxColor:   j.res.MaxColor,
			Rounds:     j.res.CompRounds,
			CommRounds: j.res.CommRounds,
			Messages:   j.res.Messages,
			Items:      len(j.res.Colors),
			Colored:    colored,
			Terminated: j.res.Terminated,
			Aborted:    j.res.Aborted,
		}
	}
	return st
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := s.parseSubmit(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Jittered Retry-After so a synchronized client burst spreads
		// its retries instead of stampeding the queue again in unison.
		w.Header().Set("Retry-After", strconv.Itoa(1+rand.IntN(3)))
		httpError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// JobResult is the full coloring payload. For a job that has had
// mutation batches applied, M counts live edges and Colors is indexed
// by edge id with -1 at ids freed by deletions.
type JobResult struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"` // "edge" or "arc"
	N      int    `json:"n"`
	M      int    `json:"m"`
	Colors []int  `json:"colors"` // by graph.EdgeID / graph.ArcID; -1 = uncolored
	JobStatus
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	// A mutated job serves its maintained (possibly holey) state; the
	// snapshot is taken under recMu so a concurrent mutation stream
	// cannot tear it.
	j.recMu.Lock()
	if j.rec != nil {
		m := j.rec.Graph().M()
		colors := append([]int(nil), j.rec.Colors()...)
		j.recMu.Unlock()
		st := j.status()
		writeJSON(w, http.StatusOK, JobResult{
			ID: st.ID, Kind: "edge", N: st.N, M: m,
			Colors: colors, JobStatus: st,
		})
		return
	}
	j.recMu.Unlock()
	st := j.status()
	if st.Result == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s: no result yet", st.ID, st.State))
		return
	}
	kind := "edge"
	if st.Strong {
		kind = "arc"
	}
	// res.Colors is immutable once the job reaches a terminal state, so
	// reading it outside the lock is safe.
	writeJSON(w, http.StatusOK, JobResult{
		ID: st.ID, Kind: kind, N: st.N, M: st.M,
		Colors: j.res.Colors, JobStatus: st,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	// The run appends RoundStats to j.stats during the run, one
	// computation round behind the barrier, on its worker goroutine and
	// without a lock. Only a terminal job's stream is complete and no
	// longer written, so only terminal jobs are served; a running job's
	// rounds are live on /events instead (docs/SERVING.md).
	if !state.terminal() {
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s: stats arrive when it finishes", j.id, state))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	jw := metrics.NewJSONLWriter(w)
	for _, rs := range j.stats.Rounds {
		jw.EmitRound(rs)
	}
	if err := jw.Flush(); err != nil {
		return // client went away mid-stream; nothing to repair
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.closed {
		status = "draining"
	}
	depth := len(s.queue)
	jobs := len(s.jobs)
	s.mu.Unlock()
	body := map[string]any{
		"status":    status,
		"queued":    depth,
		"queueSize": s.cfg.QueueSize,
		// running is the number of busy workers right now; workers is
		// the pool size, so running == workers means saturation.
		"running":          s.running.Value(),
		"workers":          s.cfg.Workers,
		"shardWorkers":     s.defaultShardWorkers(),
		"jobs":             jobs,
		"eventSubscribers": s.eventSubs.Value(),
		"uptimeSeconds":    time.Since(s.started).Seconds(),
		"startedAt":        s.started,
	}
	if s.cfg.Cluster != nil {
		body["cluster"] = s.cfg.Cluster.ClusterHealth()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz distinguishes "alive" from "able to take work": a
// draining server or a cluster front end with an empty worker registry
// answers 503 so load balancers route around it, while /healthz keeps
// answering 200 for liveness probes. Local mode is ready whenever it is
// not draining.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()
	switch {
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
	case s.cfg.Cluster != nil && !s.cfg.Cluster.ClusterHealth().Ready:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "no workers registered"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"error": err.Error(), "status": code})
}

// queryUint parses an optional unsigned query parameter.
func queryUint(r *http.Request, name string, def uint64) (uint64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	u, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("query %s: want an unsigned integer, got %q", name, v)
	}
	return u, nil
}

// queryFloat parses an optional non-negative float query parameter.
func queryFloat(r *http.Request, name string, def float64) (float64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("query %s: want a non-negative number, got %q", name, v)
	}
	return f, nil
}

// queryInt parses an optional non-negative integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("query %s: want a non-negative integer, got %q", name, v)
	}
	return n, nil
}
