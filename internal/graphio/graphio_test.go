package graphio

import (
	"strings"
	"testing"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/rng"
)

func TestGraphRoundTrip(t *testing.T) {
	g, err := gen.ErdosRenyiAvgDegree(rng.New(1), 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteGraph(&b, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("round trip: %d/%d vs %d/%d", got.N(), got.M(), g.N(), g.M())
	}
	for id, e := range g.Edges() {
		if got.Edges()[id] != e {
			t.Fatalf("edge %d differs", id)
		}
	}
}

func TestReadGraphNative(t *testing.T) {
	src := `
# a comment
n 4

e 0 1
e 2 3
`
	g, err := ReadGraph(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatalf("parsed wrong graph: N=%d M=%d", g.N(), g.M())
	}
}

func TestReadGraphDIMACS(t *testing.T) {
	src := `c a DIMACS comment
p edge 3 2
e 1 2
e 2 3
`
	g, err := ReadGraph(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("DIMACS 1-indexing not handled")
	}
}

// DIMACS endpoints are 1-indexed: the boundary vertex N is valid (it
// becomes N-1), while 0 and N+1 are out of range after shifting. Self
// loops and duplicate edges are rejected in either indexing.
func TestReadGraphDIMACSBoundaries(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("p edge 3 2\ne 3 1\ne 2 3\n"))
	if err != nil {
		t.Fatalf("boundary endpoint N rejected: %v", err)
	}
	if !g.HasEdge(2, 0) || !g.HasEdge(1, 2) {
		t.Fatal("boundary endpoints shifted wrong")
	}
	bad := map[string]string{
		"zero endpoint":    "p edge 3 1\ne 0 2\n", // 0 shifts to -1
		"beyond n":         "p edge 3 1\ne 1 4\n",
		"negative":         "p edge 3 1\ne -1 2\n",
		"self loop":        "p edge 3 1\ne 2 2\n",
		"duplicate":        "p edge 3 2\ne 1 2\ne 2 1\n",
		"edge on empty":    "p edge 0 1\ne 1 1\n",
		"bad vertex count": "p edge x 1\n",
	}
	for name, src := range bad {
		if _, err := ReadGraph(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

// The native format is 0-indexed: N-1 is the boundary, N is out.
func TestReadGraphNativeBoundaries(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("n 3\ne 2 0\n"))
	if err != nil || !g.HasEdge(0, 2) {
		t.Fatalf("boundary endpoint N-1 rejected: %v", err)
	}
	for name, src := range map[string]string{
		"endpoint n":        "n 3\ne 3 0\n",
		"negative endpoint": "n 3\ne -1 2\n",
	} {
		if _, err := ReadGraph(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := map[string]string{
		"no header":         "e 0 1\n",
		"empty":             "",
		"bad n":             "n x\n",
		"negative n":        "n -2\n",
		"double header":     "n 3\nn 4\n",
		"malformed e":       "n 3\ne 0\n",
		"bad endpoints":     "n 3\ne a b\n",
		"out of range":      "n 3\ne 0 7\n",
		"self loop":         "n 3\ne 1 1\n",
		"duplicate edge":    "n 3\ne 0 1\ne 1 0\n",
		"unknown directive": "n 3\nq 0 1\n",
		"short p":           "p edge\n",
	}
	for name, src := range cases {
		if _, err := ReadGraph(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestColoringRoundTrip(t *testing.T) {
	c := &Coloring{
		Kind: "edge", N: 5, M: 3,
		Colors: []int{0, 1, -1},
		Meta:   map[string]string{"seed": "42", "rounds": "7"},
	}
	var b strings.Builder
	if err := WriteColoring(&b, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadColoring(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != c.Kind || got.N != c.N || got.M != c.M {
		t.Fatalf("round trip header: %+v", got)
	}
	for i := range c.Colors {
		if got.Colors[i] != c.Colors[i] {
			t.Fatalf("colors differ at %d", i)
		}
	}
	if got.Meta["seed"] != "42" {
		t.Fatal("meta lost")
	}
}

func TestColoringKindValidation(t *testing.T) {
	var b strings.Builder
	if err := WriteColoring(&b, &Coloring{Kind: "banana"}); err == nil {
		t.Fatal("accepted bad kind on write")
	}
	if _, err := ReadColoring(strings.NewReader(`{"kind":"banana"}`)); err == nil {
		t.Fatal("accepted bad kind on read")
	}
	if _, err := ReadColoring(strings.NewReader(`{nonsense`)); err == nil {
		t.Fatal("accepted malformed JSON")
	}
}

func TestWriteGraphEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteGraph(&b, graph.New(0)); err != nil {
		t.Fatal(err)
	}
	g, err := ReadGraph(strings.NewReader(b.String()))
	if err != nil || g.N() != 0 {
		t.Fatalf("empty round trip: %v", err)
	}
}

// FuzzReadGraph fuzzes the capped read that untrusted uploads go
// through; the small cap keeps every fuzzed header cheap to allocate.
func FuzzReadGraph(f *testing.F) {
	const maxVertices = 1 << 12
	f.Add("n 4\ne 0 1\ne 2 3\n")
	f.Add("p edge 3 2\ne 1 2\ne 2 3\n")
	f.Add("# comment\nn 0\n")
	f.Add("n 2\ne 0 0\n")
	f.Add("p edge 3 2\ne 3 1\n")           // DIMACS boundary endpoint N
	f.Add("p edge 3 1\ne 0 2\n")           // DIMACS 0 shifts to -1
	f.Add("n 3\ne 3 0\n")                  // native out of range
	f.Add("n 3\ne -1 2\n")                 // negative endpoint
	f.Add("n 3\ne 0 1\ne 1 0\n")           // duplicate edge, reversed
	f.Add("n 99999999999999999999\n")      // overflowing vertex count
	f.Add("n 9999999999\n")                // vertex count above the cap
	f.Add("p edge 2 1\ne 1 2\ne 1 2\n")    // DIMACS duplicate
	f.Add("c\nc x\np edge 2 1\ne 1 2\n")   // DIMACS comments
	f.Add("n 3\n\n \t\ne 0 2\n# trailing") // whitespace soup
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadGraphMax(strings.NewReader(src), maxVertices)
		if err != nil {
			return
		}
		// Anything accepted must respect the cap, be internally
		// consistent and round-trip through the writer.
		if g.N() > maxVertices {
			t.Fatalf("accepted %d vertices over a cap of %d", g.N(), maxVertices)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted inconsistent graph: %v", err)
		}
		var b strings.Builder
		if err := WriteGraph(&b, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadGraph(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatal("round trip changed the graph")
		}
	})
}
