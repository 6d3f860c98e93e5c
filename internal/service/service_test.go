package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dima/internal/core"
	"dima/internal/metrics"
	"dima/internal/service"
)

// blockingRunner returns a runner that parks every job until release is
// closed (or its context is canceled, which yields an aborted partial
// result) — the deterministic stand-in for a long run, so backpressure
// and cancellation tests never race the real engine.
func blockingRunner(started chan<- string, release <-chan struct{}) service.Runner {
	return func(ctx context.Context, req service.JobRequest, sink metrics.Sink) (*core.Result, error) {
		if started != nil {
			started <- fmt.Sprint(req.Seed)
		}
		colors := make([]int, req.Graph.M())
		select {
		case <-release:
			return &core.Result{Colors: colors, Terminated: true}, nil
		case <-ctx.Done():
			for i := range colors {
				colors[i] = -1
			}
			res := &core.Result{Colors: colors, Aborted: true}
			res.MaxColor = -1
			return res, nil
		}
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func submit(t *testing.T, base, body string) service.JobStatus {
	t.Helper()
	resp, raw := postJSON(t, base+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("submit response: %v: %s", err, raw)
	}
	return st
}

func getStatus(t *testing.T, base, id string) service.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d: %s", id, resp.StatusCode, raw)
	}
	var st service.JobStatus
	if err := json.Unmarshal([]byte(raw), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, base, id string, want ...service.State) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStatus(t, base, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %v", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitGenSpecRunsToDone(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	st := submit(t, ts.URL, `{"gen":{"family":"er","n":40,"deg":4,"seed":3},"seed":7}`)
	if st.State != service.StateQueued && st.State != service.StateRunning {
		t.Fatalf("fresh job state %s", st.State)
	}
	if st.N != 40 || st.M <= 0 {
		t.Fatalf("generated instance n=%d m=%d", st.N, st.M)
	}
	fin := waitState(t, ts.URL, st.ID, service.StateDone)
	if fin.Result == nil || !fin.Result.Terminated || fin.Result.Colors <= 0 {
		t.Fatalf("done result %+v", fin.Result)
	}
	if fin.Result.Colored != fin.Result.Items {
		t.Fatalf("done job left %d/%d uncolored", fin.Result.Items-fin.Result.Colored, fin.Result.Items)
	}

	// The full coloring is fetchable and complete.
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", resp.StatusCode, raw)
	}
	var res service.JobResult
	if err := json.Unmarshal([]byte(raw), &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != "edge" || len(res.Colors) != res.M {
		t.Fatalf("result kind=%s colors=%d m=%d", res.Kind, len(res.Colors), res.M)
	}
	for i, c := range res.Colors {
		if c < 0 {
			t.Fatalf("edge %d uncolored in a done job", i)
		}
	}

	// Per-round stats stream as JSON Lines, one line per round.
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d: %s", resp.StatusCode, stats)
	}
	lines := strings.Split(strings.TrimSpace(stats), "\n")
	if len(lines) != fin.Result.Rounds {
		t.Fatalf("stats has %d lines, run took %d rounds", len(lines), fin.Result.Rounds)
	}
	var rs metrics.RoundStats
	if err := json.Unmarshal([]byte(lines[0]), &rs); err != nil {
		t.Fatalf("stats line 0: %v", err)
	}
}

func TestSubmitUploadAndStrong(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	// Raw upload: the body is the edge list, parameters ride the query.
	body := "n 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
	resp, err := http.Post(ts.URL+"/jobs?seed=5&strong=true", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload: %d: %s", resp.StatusCode, raw)
	}
	var st service.JobStatus
	if err := json.Unmarshal([]byte(raw), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Strong || st.Seed != 5 || st.N != 4 || st.M != 4 {
		t.Fatalf("upload parsed to %+v", st)
	}
	fin := waitState(t, ts.URL, st.ID, service.StateDone)
	if fin.Result.Items != 8 { // arcs of the symmetric digraph
		t.Fatalf("strong run colored %d items, want 8 arcs", fin.Result.Items)
	}
}

func TestBadSubmissionsGet400(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	for name, body := range map[string]string{
		"neither graph nor gen": `{"seed":1}`,
		"both graph and gen":    `{"graph":"n 1\n","gen":{"family":"er","n":10,"deg":2}}`,
		"unknown family":        `{"gen":{"family":"banana","n":10}}`,
		"negative n":            `{"gen":{"family":"complete","n":-5}}`,
		"huge hypercube":        `{"gen":{"family":"hypercube","dim":40}}`,
		"negative grid":         `{"gen":{"family":"grid","rows":-3,"cols":4}}`,
		"overflowing grid":      `{"gen":{"family":"grid","rows":4294967296,"cols":4294967296}}`,
		"negative maxRounds":    `{"gen":{"family":"er","n":10,"deg":2},"maxRounds":-1}`,
		"malformed graph":       `{"graph":"n -4\ne 0 1\n"}`,
		"unknown field":         `{"gen":{"family":"er","n":10,"deg":2},"bogus":true}`,
	} {
		resp, raw := postJSON(t, ts.URL+"/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, raw)
		}
	}
}

// TestUploadVertexCap: an upload's header alone sets the vertex count
// the server allocates for, so raw and JSON uploads share the cap that
// generator specs have, and an over-cap header is refused before
// anything is allocated for it.
func TestUploadVertexCap(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	for _, header := range []string{"n 2000001\n", "p edge 2000001 0\n"} {
		resp, err := http.Post(ts.URL+"/jobs", "text/plain", strings.NewReader(header))
		if err != nil {
			t.Fatal(err)
		}
		raw := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("raw %q: status %d, want 400: %s", header, resp.StatusCode, raw)
		}
		body, _ := json.Marshal(service.SubmitRequest{Graph: header})
		if resp, raw := postJSON(t, ts.URL+"/jobs", string(body)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("JSON %q: status %d, want 400: %s", header, resp.StatusCode, raw)
		}
	}
}

// TestSubmitEveryGenFamily: every family graphgen knows is accepted as
// a "gen" spec.
func TestSubmitEveryGenFamily(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	for _, fam := range []string{"er", "gnp", "gnm", "ba", "ws", "regular", "geometric", "powerlaw", "tree",
		"bipartite", "complete", "cycle", "path", "star", "grid", "hypercube"} {
		spec := fmt.Sprintf(`{"gen":{"family":%q,"n":12,"deg":3,"p":0.3,"m":10,"k":2,"radius":0.5,"rows":3,"cols":4,"dim":3,"left":4,"right":5,"seed":5}}`, fam)
		if st := submit(t, ts.URL, spec); st.N <= 0 {
			t.Errorf("%s: generated n=%d", fam, st.N)
		}
	}
}

func TestQueueBackpressure429(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	svc := service.New(service.Config{
		Workers:   1,
		QueueSize: 1,
		Runner:    blockingRunner(started, release),
	})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	spec := `{"gen":{"family":"path","n":4},"seed":%d}`
	first := submit(t, ts.URL, fmt.Sprintf(spec, 1))
	<-started // the worker holds job 1, leaving the queue empty
	second := submit(t, ts.URL, fmt.Sprintf(spec, 2))

	// Queue full (job 2 waiting): the third submission must bounce.
	resp, raw := postJSON(t, ts.URL+"/jobs", fmt.Sprintf(spec, 3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	waitState(t, ts.URL, first.ID, service.StateDone)
	waitState(t, ts.URL, second.ID, service.StateDone)
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	svc := service.New(service.Config{
		Workers: 1,
		Runner:  blockingRunner(started, release),
	})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	st := submit(t, ts.URL, `{"gen":{"family":"cycle","n":6},"seed":1}`)
	<-started

	resp, err := http.Post(ts.URL+"/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitState(t, ts.URL, st.ID, service.StateCanceled)
	if fin.Result == nil || !fin.Result.Aborted {
		t.Fatalf("canceled job result %+v", fin.Result)
	}
	if fin.Result.Colored != 0 || fin.Result.Items != 6 {
		t.Fatalf("aborted partial result %+v", fin.Result)
	}

	// The partial coloring stays fetchable.
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("canceled result: %d: %s", resp.StatusCode, raw)
	}
	var res service.JobResult
	if err := json.Unmarshal([]byte(raw), &res); err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Colors {
		if c != -1 {
			t.Fatalf("aborted-at-entry run colored edge %d", i)
		}
	}
}

func TestCancelQueuedJobSkipsWorker(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	svc := service.New(service.Config{
		Workers:   1,
		QueueSize: 2,
		Runner:    blockingRunner(started, release),
	})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	spec := `{"gen":{"family":"path","n":4},"seed":%d}`
	first := submit(t, ts.URL, fmt.Sprintf(spec, 1))
	<-started
	queued := submit(t, ts.URL, fmt.Sprintf(spec, 2))

	resp, err := http.Post(ts.URL+"/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := getStatus(t, ts.URL, queued.ID); st.State != service.StateCanceled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}

	close(release)
	waitState(t, ts.URL, first.ID, service.StateDone)
	// The canceled job must never start: give the worker a beat to pop
	// it, then check nothing ran it.
	time.Sleep(20 * time.Millisecond)
	select {
	case seed := <-started:
		t.Fatalf("worker started canceled job (seed %s)", seed)
	default:
	}
	if st := getStatus(t, ts.URL, queued.ID); st.State != service.StateCanceled {
		t.Fatalf("canceled job resurrected to %s", st.State)
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		st := submit(t, ts.URL, fmt.Sprintf(`{"gen":{"family":"er","n":30,"deg":4,"seed":%d},"seed":%d}`, i, i))
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range ids {
		if st := getStatus(t, ts.URL, id); st.State != service.StateDone {
			t.Fatalf("job %s after drain: %s", id, st.State)
		}
	}
	resp, raw := postJSON(t, ts.URL+"/jobs", `{"gen":{"family":"path","n":4}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: %d, want 503: %s", resp.StatusCode, raw)
	}
}

func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	svc := service.New(service.Config{
		Workers: 1,
		Runner:  blockingRunner(started, release),
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	st := submit(t, ts.URL, `{"gen":{"family":"path","n":4},"seed":1}`)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); err == nil {
		t.Fatal("shutdown returned nil despite a parked job")
	}
	if fin := getStatus(t, ts.URL, st.ID); fin.State != service.StateCanceled {
		t.Fatalf("job after deadline shutdown: %s", fin.State)
	}
}

func TestShutdownDeadlineCountsAbandoned(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	svc := service.New(service.Config{
		Workers: 1,
		Runner:  blockingRunner(started, release),
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	// One job parked mid-run, one stuck behind it in the queue: both are
	// abandoned when the deadline cuts the drain off.
	submit(t, ts.URL, `{"gen":{"family":"path","n":4},"seed":1}`)
	<-started
	submit(t, ts.URL, `{"gen":{"family":"path","n":4},"seed":2}`)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); err == nil {
		t.Fatal("shutdown returned nil despite parked jobs")
	}
	if got := svc.Abandoned(); got != 2 {
		t.Fatalf("Abandoned() = %d, want 2", got)
	}
}

func TestShutdownCleanDrainAbandonsNothing(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	st := submit(t, ts.URL, `{"gen":{"family":"path","n":8},"seed":1}`)
	waitState(t, ts.URL, st.ID, service.StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := svc.Abandoned(); got != 0 {
		t.Fatalf("Abandoned() after clean drain = %d, want 0", got)
	}
}

// fakeCluster is a canned ClusterStatus for readiness tests.
type fakeCluster struct{ health service.ClusterHealth }

func (f fakeCluster) ClusterHealth() service.ClusterHealth { return f.health }

func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestReadyzLocalAndCluster(t *testing.T) {
	local := service.New(service.Config{Workers: 1})
	lts := httptest.NewServer(local)
	defer lts.Close()
	if code := getCode(t, lts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("local /readyz: %d, want 200", code)
	}

	empty := service.New(service.Config{Workers: 1, Cluster: fakeCluster{}})
	ets := httptest.NewServer(empty)
	defer ets.Close()
	if code := getCode(t, ets.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("empty-cluster /readyz: %d, want 503", code)
	}

	full := service.New(service.Config{Workers: 1, Cluster: fakeCluster{
		health: service.ClusterHealth{
			Ready:   true,
			Workers: []service.WorkerInfo{{ID: "w001", Addr: "127.0.0.1:9"}},
		},
	}})
	fts := httptest.NewServer(full)
	defer fts.Close()
	if code := getCode(t, fts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("ready-cluster /readyz: %d, want 200", code)
	}
	resp, err := http.Get(fts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	resp.Body.Close()
	if !strings.Contains(raw, `"w001"`) {
		t.Fatalf("healthz misses cluster worker row: %s", raw)
	}

	// Draining flips readiness regardless of backend.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := local.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := getCode(t, lts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: %d, want 503", code)
	}
	full.Close()
	empty.Close()
}

func TestHealthzAndMetricsMount(t *testing.T) {
	reg := metrics.NewRegistry()
	svc := service.New(service.Config{Workers: 1, Registry: reg})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(raw, `"ok"`) {
		t.Fatalf("healthz: %d: %s", resp.StatusCode, raw)
	}

	st := submit(t, ts.URL, `{"gen":{"family":"er","n":30,"deg":4,"seed":1},"seed":1}`)
	waitState(t, ts.URL, st.ID, service.StateDone)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{"serve_jobs_submitted_total 1", "serve_jobs_done_total 1", "go_goroutines"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestUnknownJob404(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result", "/jobs/nope/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
}
