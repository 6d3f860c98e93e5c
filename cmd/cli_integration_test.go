// Package cmd_test builds the four CLI binaries and exercises them end
// to end: generate → color → verify round trips, baseline selection,
// the bench harness, and error paths.
package cmd_test

import (
	"errors"
	stdnet "net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dima-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"graphgen", "dimacolor", "dimaverify", "dimabench", "dimanode"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./"+tool)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			panic(tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, tool string, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

func TestPipelineGenerateColorVerify(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	cpath := filepath.Join(dir, "c.json")

	_, stderr, err := run(t, "graphgen", "-family", "er", "-n", "60", "-deg", "6", "-seed", "3", "-o", gpath)
	if err != nil {
		t.Fatalf("graphgen: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "n=60") {
		t.Fatalf("graphgen summary: %q", stderr)
	}

	stdout, stderr, err := run(t, "dimacolor", "-in", gpath, "-seed", "7", "-json", cpath)
	if err != nil {
		t.Fatalf("dimacolor: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "terminated=true") {
		t.Fatalf("dimacolor output: %s", stdout)
	}

	stdout, stderr, err = run(t, "dimaverify", "-graph", gpath, "-coloring", cpath)
	if err != nil {
		t.Fatalf("dimaverify: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "valid edge coloring") {
		t.Fatalf("dimaverify output: %s", stdout)
	}
}

func TestStrongPipeline(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	cpath := filepath.Join(dir, "c.json")
	if _, stderr, err := run(t, "graphgen", "-family", "geometric", "-n", "40", "-radius", "0.3", "-seed", "4", "-o", gpath); err != nil {
		t.Fatalf("graphgen: %v\n%s", err, stderr)
	}
	stdout, stderr, err := run(t, "dimacolor", "-in", gpath, "-strong", "-engine", "shard", "-json", cpath)
	if err != nil {
		t.Fatalf("dimacolor -strong: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "algorithm 2") {
		t.Fatalf("output: %s", stdout)
	}
	stdout, _, err = run(t, "dimaverify", "-graph", gpath, "-coloring", cpath)
	if err != nil || !strings.Contains(stdout, "valid arc coloring") {
		t.Fatalf("dimaverify: %v %s", err, stdout)
	}
	// An engine name dimacolor does not know is a usage error.
	_, stderr, err = run(t, "dimacolor", "-in", gpath, "-strong", "-engine", "chan")
	if code := exitCode(err); code != 2 || !strings.Contains(stderr, "unknown engine") {
		t.Fatalf("-engine chan: exit %d, stderr %q; want exit 2 naming an unknown engine", code, stderr)
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	cpath := filepath.Join(dir, "c.json")
	if _, _, err := run(t, "graphgen", "-family", "cycle", "-n", "6", "-o", gpath); err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(t, "dimacolor", "-in", gpath, "-json", cpath); err != nil {
		t.Fatal(err)
	}
	// Tamper: force all colors to 0.
	data, err := os.ReadFile(cpath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.ReplaceAll(string(data), "1", "0")
	tampered = strings.ReplaceAll(tampered, "2", "0")
	if err := os.WriteFile(cpath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, _, err := run(t, "dimaverify", "-graph", gpath, "-coloring", cpath)
	if err == nil {
		t.Fatalf("dimaverify accepted a tampered coloring:\n%s", stdout)
	}
	if !strings.Contains(stdout, "VIOLATION") {
		t.Fatalf("no violation report:\n%s", stdout)
	}
}

func TestDimacolorBaselines(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	if _, _, err := run(t, "graphgen", "-family", "er", "-n", "50", "-deg", "6", "-seed", "8", "-o", gpath); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := run(t, "dimacolor", "-in", gpath, "-algo", "simple")
	if err != nil {
		t.Fatalf("simple: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "simple (baseline)") {
		t.Fatalf("output: %s", stdout)
	}
	// Tree baseline rejects cyclic inputs.
	if _, stderr, err := run(t, "dimacolor", "-in", gpath, "-algo", "tree"); err == nil {
		t.Fatalf("tree baseline accepted a cyclic graph:\n%s", stderr)
	}
	// And -strong composes only with dima.
	if _, _, err := run(t, "dimacolor", "-in", gpath, "-algo", "simple", "-strong"); err == nil {
		t.Fatal("-strong with -algo simple accepted")
	}
}

func TestDimacolorTrace(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	if _, _, err := run(t, "graphgen", "-family", "path", "-n", "3", "-o", gpath); err != nil {
		t.Fatal(err)
	}
	stdout, _, err := run(t, "dimacolor", "-in", gpath, "-trace")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "automaton timelines") || !strings.Contains(stdout, "node   0: C") {
		t.Fatalf("trace output:\n%s", stdout)
	}
}

func TestDimabenchQuick(t *testing.T) {
	stdout, stderr, err := run(t, "dimabench", "-exp", "fig3", "-scale", "0.04", "-plot=false")
	if err != nil {
		t.Fatalf("dimabench: %v\n%s", err, stderr)
	}
	for _, want := range []string{"== fig3", "rounds/Δ", "rounds ~ Δ fit", "shape"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("missing %q in:\n%s", want, stdout)
		}
	}
}

func TestDimabenchCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "out.csv")
	if _, stderr, err := run(t, "dimabench", "-exp", "fig6", "-scale", "0.02", "-plot=false", "-csv", csv); err != nil {
		t.Fatalf("dimabench: %v\n%s", err, stderr)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "group,rep,n,m,delta,rounds") {
		t.Fatalf("csv header: %q", string(data[:60]))
	}
}

func TestGraphgenFamiliesAndErrors(t *testing.T) {
	for _, fam := range []string{"gnp", "gnm", "ba", "ws", "regular", "powerlaw", "tree", "bipartite", "complete", "star", "grid", "hypercube"} {
		args := []string{"-family", fam, "-n", "12", "-k", "2", "-m", "10", "-seed", "5"}
		if _, stderr, err := run(t, "graphgen", args...); err != nil {
			t.Fatalf("%s: %v\n%s", fam, err, stderr)
		}
	}
	if _, _, err := run(t, "graphgen", "-family", "nope"); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, _, err := run(t, "graphgen", "-family", "ws", "-n", "4", "-k", "3"); err == nil {
		t.Fatal("invalid ws parameters accepted")
	}
}

// TestGraphgenRejectsNaN: NaN fails every float comparison, so a range
// check that is not written for it lets NaN through — "-deg NaN" once
// emitted the complete graph. Every real flag must exit 2 on NaN.
func TestGraphgenRejectsNaN(t *testing.T) {
	cases := [][]string{
		{"-family", "er", "-deg", "NaN"},
		{"-family", "gnp", "-p", "NaN"},
		{"-family", "bipartite", "-p", "NaN"},
		{"-family", "ws", "-beta", "NaN"},
		{"-family", "geometric", "-radius", "NaN"},
		{"-family", "ba", "-power", "NaN"},
		{"-family", "powerlaw", "-power", "NaN"},
	}
	for _, c := range cases {
		args := append([]string{"-n", "50", "-k", "2"}, c...)
		_, stderr, err := run(t, "graphgen", args...)
		if code := exitCode(err); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", c, code, stderr)
		}
	}
}

func TestDimacolorRepsMode(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	if _, _, err := run(t, "graphgen", "-family", "er", "-n", "40", "-deg", "5", "-seed", "2", "-o", gpath); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := run(t, "dimacolor", "-in", gpath, "-reps", "5")
	if err != nil {
		t.Fatalf("reps mode: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "5 runs") || !strings.Contains(stdout, "rounds: mean") {
		t.Fatalf("stats output:\n%s", stdout)
	}
	// -reps rejects -json.
	if _, _, err := run(t, "dimacolor", "-in", gpath, "-reps", "3", "-json", filepath.Join(dir, "x.json")); err == nil {
		t.Fatal("-reps with -json accepted")
	}
}

func TestDimacolorMutate(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	mpath := filepath.Join(dir, "edits.txt")
	cpath := filepath.Join(dir, "c.json")
	if _, _, err := run(t, "graphgen", "-family", "path", "-n", "6", "-o", gpath); err != nil {
		t.Fatal(err)
	}
	// Close the path into a cycle and delete one interior edge.
	if err := os.WriteFile(mpath, []byte("# edits\n+ 5 0\n- 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := run(t, "dimacolor", "-in", gpath, "-seed", "3", "-mutate", mpath, "-json", cpath)
	if err != nil {
		t.Fatalf("dimacolor -mutate: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "mutate: ") || !strings.Contains(stdout, "+1 -1") {
		t.Fatalf("mutate report missing:\n%s", stdout)
	}
	if !strings.Contains(stdout, "mutated: m=5") {
		t.Fatalf("mutated summary missing:\n%s", stdout)
	}
	// The JSON carries the compacted mutated state: still 5 edges, and
	// it verifies against the mutated graph.
	g2 := filepath.Join(dir, "g2.graph")
	if err := os.WriteFile(g2, []byte("n 6\ne 0 1\ne 1 2\ne 3 4\ne 4 5\ne 5 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"m": 5`) {
		t.Fatalf("coloring json: %s", data)
	}
	// A delete of a missing edge rejects the whole batch atomically.
	if err := os.WriteFile(mpath, []byte("- 0 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, err := run(t, "dimacolor", "-in", gpath, "-seed", "3", "-mutate", mpath); err == nil {
		t.Fatal("delete of missing edge accepted")
	} else if !strings.Contains(stderr, "deletes missing edge") {
		t.Fatalf("stderr: %s", stderr)
	}
	// -mutate composes only with plain Algorithm 1 runs.
	if _, _, err := run(t, "dimacolor", "-in", gpath, "-strong", "-mutate", mpath); err == nil {
		t.Fatal("-mutate with -strong accepted")
	}
}

func TestDimaverifyStrongFlag(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	cpath := filepath.Join(dir, "c.json")
	// Star: every edge shares the center, so any proper edge coloring is
	// automatically strong.
	if _, _, err := run(t, "graphgen", "-family", "star", "-n", "7", "-o", gpath); err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(t, "dimacolor", "-in", gpath, "-json", cpath); err != nil {
		t.Fatal(err)
	}
	stdout, _, err := run(t, "dimaverify", "-graph", gpath, "-coloring", cpath, "-strong")
	if err != nil || !strings.Contains(stdout, "valid strong edge coloring") {
		t.Fatalf("star -strong: %v\n%s", err, stdout)
	}
	// A long path's proper 2-coloring reuses colors at distance 1, so
	// the strong check must reject what the plain check accepts.
	if _, _, err := run(t, "graphgen", "-family", "path", "-n", "8", "-o", gpath); err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(t, "dimacolor", "-in", gpath, "-json", cpath); err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(t, "dimaverify", "-graph", gpath, "-coloring", cpath); err != nil {
		t.Fatal("plain check rejected a proper coloring")
	}
	stdout, _, err = run(t, "dimaverify", "-graph", gpath, "-coloring", cpath, "-strong")
	if err == nil {
		t.Fatalf("strong check accepted a distance-1 reuse:\n%s", stdout)
	}
	if !strings.Contains(stdout, "distance2") {
		t.Fatalf("no distance2 violation:\n%s", stdout)
	}
	// Arc colorings get the lower-bound report.
	if _, _, err := run(t, "dimacolor", "-in", gpath, "-strong", "-json", cpath); err != nil {
		t.Fatal(err)
	}
	stdout, _, err = run(t, "dimaverify", "-graph", gpath, "-coloring", cpath, "-strong")
	if err != nil || !strings.Contains(stdout, "strong lower bound") {
		t.Fatalf("arc -strong: %v\n%s", err, stdout)
	}
}

// exitCode unwraps a run error into the process exit status (-1 when
// the command failed some other way).
func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// TestDimacolorTCPEngineMatchesSync is the CLI end of the tcp engine's
// equivalence guarantee: the same run through -engine tcp with real
// node processes must produce byte-identical coloring JSON and
// per-round telemetry to -engine sync.
func TestDimacolorTCPEngineMatchesSync(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	if _, stderr, err := run(t, "graphgen", "-family", "er", "-n", "80", "-deg", "6", "-seed", "9", "-o", gpath); err != nil {
		t.Fatalf("graphgen: %v\n%s", err, stderr)
	}
	outputs := func(engine string, extra ...string) (string, []byte, []byte) {
		t.Helper()
		jsonPath := filepath.Join(dir, engine+".json")
		metricsPath := filepath.Join(dir, engine+".jsonl")
		args := append([]string{"-in", gpath, "-seed", "5", "-engine", engine,
			"-json", jsonPath, "-metrics-out", metricsPath}, extra...)
		stdout, stderr, err := run(t, "dimacolor", args...)
		if err != nil {
			t.Fatalf("dimacolor -engine %s: %v\n%s", engine, err, stderr)
		}
		coloring, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		telemetry, err := os.ReadFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		return stdout, coloring, telemetry
	}
	syncOut, syncColoring, syncTelemetry := outputs("sync")
	tcpOut, tcpColoring, tcpTelemetry := outputs("tcp", "-nodes", "3")
	if !strings.Contains(tcpOut, "terminated=true") || !strings.Contains(tcpOut, "engine=tcp") {
		t.Fatalf("tcp output:\n%s", tcpOut)
	}
	if string(tcpColoring) != string(syncColoring) {
		t.Fatalf("coloring JSON diverged:\nsync: %s\ntcp: %s", syncColoring, tcpColoring)
	}
	if string(tcpTelemetry) != string(syncTelemetry) {
		t.Fatal("per-round telemetry JSONL diverged between sync and tcp")
	}
	// The result lines (colors, rounds, messages) must agree too.
	wantLine := resultLine(t, syncOut)
	if gotLine := resultLine(t, tcpOut); gotLine != wantLine {
		t.Fatalf("result lines diverged:\nsync: %s\ntcp: %s", wantLine, gotLine)
	}
	// Strong coloring through the cluster as well.
	syncStrong, _, err := run(t, "dimacolor", "-in", gpath, "-seed", "5", "-strong")
	if err != nil {
		t.Fatal(err)
	}
	tcpStrong, stderr, err := run(t, "dimacolor", "-in", gpath, "-seed", "5", "-strong", "-engine", "tcp", "-nodes", "2")
	if err != nil {
		t.Fatalf("strong tcp: %v\n%s", err, stderr)
	}
	if resultLine(t, tcpStrong) != resultLine(t, syncStrong) {
		t.Fatalf("strong result lines diverged:\nsync: %s\ntcp: %s", syncStrong, tcpStrong)
	}
}

func resultLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "result:") {
			return line
		}
	}
	t.Fatalf("no result line in:\n%s", out)
	return ""
}

// TestDimacolorTCPFlagValidation sweeps hostile values of the tcp
// engine's flags: every one must exit 2 (usage) before any socket or
// process work happens.
func TestDimacolorTCPFlagValidation(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	if _, _, err := run(t, "graphgen", "-family", "path", "-n", "4", "-o", gpath); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-engine", "tcp"},                                                    // no -nodes
		{"-engine", "tcp", "-nodes", "0"},                                     // zero nodes
		{"-engine", "tcp", "-nodes", "-3"},                                    // negative nodes
		{"-engine", "tcp", "-nodes", "99999999"},                              // implausible nodes
		{"-nodes", "4"},                                                       // -nodes without tcp
		{"-listen", ":7600"},                                                  // -listen without tcp
		{"-barrier-timeout", "5s"},                                            // -barrier-timeout without tcp
		{"-external"},                                                         // -external without tcp
		{"-engine", "tcp", "-nodes", "2", "-listen", "nonsense"},              // no port
		{"-engine", "tcp", "-nodes", "2", "-listen", "host:99999"},            // port out of range
		{"-engine", "tcp", "-nodes", "2", "-listen", "host:http"},             // non-numeric port
		{"-engine", "tcp", "-nodes", "2", "-barrier-timeout", "-5s"},          // negative timeout
		{"-engine", "tcp", "-nodes", "2", "-external"},                        // external without -listen
		{"-engine", "tcp", "-nodes", "2", "-algo", "simple"},                  // baselines are in-process
		{"-engine", "tcp", "-nodes", "2", "-trace"},                           // hooks cannot cross processes
		{"-engine", "tcp", "-nodes", "2", "-workers", "3"},                    // -workers is shard-only
		{"-engine", "tcp", "-nodes", "2", "-mutate", filepath.Join(dir, "x")}, // repair is in-process
	}
	for _, c := range cases {
		args := append([]string{"-in", gpath}, c...)
		_, stderr, err := run(t, "dimacolor", args...)
		if err == nil {
			t.Errorf("%v: accepted", c)
			continue
		}
		if code := exitCode(err); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", c, code, stderr)
		}
	}
}

// TestDimacolorDropValidation: -drop wants a probability in [0, 1);
// NaN, which fails every comparison, must exit 2 like any other value
// outside it rather than run a reliable coloring.
func TestDimacolorDropValidation(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	if _, _, err := run(t, "graphgen", "-family", "path", "-n", "4", "-o", gpath); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"NaN", "-0.1", "1", "+Inf"} {
		_, stderr, err := run(t, "dimacolor", "-in", gpath, "-drop", p)
		if code := exitCode(err); code != 2 {
			t.Errorf("-drop %s: exit %d, want 2 (stderr: %s)", p, code, stderr)
		}
	}
}

// TestDimanodeFlagValidation: the node binary's boundary checks also
// exit 2 on hostile values, and never try to dial.
func TestDimanodeFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                         // -connect required
		{"-connect", "nonsense"},   // no port
		{"-connect", "host:0"},     // port 0 is not dialable
		{"-connect", "host:99999"}, // port out of range
		{"-connect", "h:1", "-shards", "0", "-shard", "0"},          // no shards
		{"-connect", "h:1", "-shards", "4", "-shard", "-1"},         // negative shard
		{"-connect", "h:1", "-shards", "4", "-shard", "4"},          // shard out of range
		{"-connect", "h:1", "-shards", "4", "-shard", "1", "extra"}, // stray operand
	}
	for _, c := range cases {
		_, stderr, err := run(t, "dimanode", c...)
		if err == nil {
			t.Errorf("%v: accepted", c)
			continue
		}
		if code := exitCode(err); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", c, code, stderr)
		}
	}
}

// TestDimanodeExternalPipeline drives the operator-launched layout end
// to end: dimacolor waits with -external -listen, dimanode processes
// dial in, and the run matches the plain sync result.
func TestDimanodeExternalPipeline(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.graph")
	if _, _, err := run(t, "graphgen", "-family", "er", "-n", "40", "-deg", "5", "-seed", "6", "-o", gpath); err != nil {
		t.Fatal(err)
	}
	syncOut, _, err := run(t, "dimacolor", "-in", gpath, "-seed", "8")
	if err != nil {
		t.Fatal(err)
	}
	// A fixed loopback port: pick one the kernel says is free right now.
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	const shards = 2
	coord := exec.Command(filepath.Join(binDir, "dimacolor"),
		"-in", gpath, "-seed", "8", "-engine", "tcp", "-nodes", "2", "-external", "-listen", addr)
	var coordOut, coordErr strings.Builder
	coord.Stdout, coord.Stderr = &coordOut, &coordErr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	var nodes []*exec.Cmd
	for s := 0; s < shards; s++ {
		nd := exec.Command(filepath.Join(binDir, "dimanode"),
			"-connect", addr, "-shard", strconv.Itoa(s), "-shards", strconv.Itoa(shards))
		nd.Stderr = os.Stderr
		nodes = append(nodes, nd)
	}
	// The coordinator needs a moment to bind; nodes retry the dial.
	for _, nd := range nodes {
		nd := nd
		go func() {
			for i := 0; i < 100; i++ {
				fresh := exec.Command(nd.Path, nd.Args[1:]...)
				fresh.Stderr = os.Stderr
				if fresh.Run() == nil {
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
		}()
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, coordErr.String())
	}
	if resultLine(t, coordOut.String()) != resultLine(t, syncOut) {
		t.Fatalf("external tcp result diverged:\nsync: %s\ntcp: %s", syncOut, coordOut.String())
	}
}

// TestDimabenchUnknownExperiment: an -exp value outside the paper
// experiments is a usage error (exit 2), before anything runs.
func TestDimabenchUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"scale", "parallel", "cluster", "dynamic", "soak", "bogus", "fig3,bogus"} {
		_, stderr, err := run(t, "dimabench", "-exp", exp)
		if code := exitCode(err); code != 2 || !strings.Contains(stderr, "unknown experiment") {
			t.Fatalf("-exp %s: exit %d, stderr %q; want exit 2 naming an unknown experiment", exp, code, stderr)
		}
	}
}

// TestDimabenchRejectsBadScale: -scale must be a finite fraction in
// (0, 100]. NaN and huge values once fell through to the 2-repetition
// floor or to a grid of billions of runs; both are usage errors (exit
// 2) now, before anything runs.
func TestDimabenchRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "-Inf", "1e300", "3e7", "100.5", "0", "-1"} {
		_, stderr, err := run(t, "dimabench", "-exp", "fig3", "-scale", scale)
		if code := exitCode(err); code != 2 || !strings.Contains(stderr, "-scale") {
			t.Fatalf("-scale %s: exit %d, stderr %q; want exit 2 naming -scale", scale, code, stderr)
		}
	}
}
