// Package graphio reads and writes graphs and colorings in simple text
// formats so the CLI tools can be composed:
//
//   - Graphs use an edge-list format: a "n <N>" header line followed by
//     "e <u> <v>" lines (0-indexed), with '#' comments and blank lines
//     ignored. DIMACS-style headers "p edge <N> <M>" with 1-indexed
//     "e" lines are also accepted for interoperability.
//   - Colorings are JSON documents produced by WriteColoring.
package graphio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"dima/internal/graph"
)

// WriteGraph emits g in the native edge-list format.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# dima edge list: %d vertices, %d edges\n", g.N(), g.M())
	fmt.Fprintf(bw, "n %d\n", g.N())
	for _, e := range g.Edges() {
		if e.U < 0 {
			continue // removal hole
		}
		fmt.Fprintf(bw, "e %d %d\n", e.U, e.V)
	}
	return bw.Flush()
}

// ReadGraph parses the edge-list format (native or DIMACS-style).
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	return ReadGraphMax(r, math.MaxInt)
}

// ReadGraphMax is ReadGraph for untrusted input: it rejects a header
// that claims more than maxVertices vertices before allocating for
// them, since the header alone sets the graph's size.
func ReadGraphMax(r io.Reader, maxVertices int) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var g *graph.Graph
	dimacs := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "c ") || line == "c" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "n":
			if g != nil {
				return nil, fmt.Errorf("graphio: line %d: duplicate header", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graphio: line %d: malformed n line", lineNo)
			}
			n, err := vertexCount(fields[1], maxVertices)
			if err != nil {
				return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
			}
			g = graph.New(n)
		case "p":
			// DIMACS: p edge <N> <M>, vertices 1-indexed.
			if g != nil {
				return nil, fmt.Errorf("graphio: line %d: duplicate header", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("graphio: line %d: malformed p line", lineNo)
			}
			n, err := vertexCount(fields[2], maxVertices)
			if err != nil {
				return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
			}
			g = graph.New(n)
			dimacs = true
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graphio: line %d: edge before header", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graphio: line %d: malformed e line", lineNo)
			}
			var u, v int
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &u, &v); err != nil {
				return nil, fmt.Errorf("graphio: line %d: bad endpoints", lineNo)
			}
			if dimacs {
				u, v = u-1, v-1
			}
			if _, err := g.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graphio: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graphio: no header line found")
	}
	return g, nil
}

// vertexCount parses a header's vertex count, in [0, max].
func vertexCount(field string, max int) (int, error) {
	var n int
	if _, err := fmt.Sscanf(field, "%d", &n); err != nil || n < 0 {
		return 0, fmt.Errorf("bad vertex count %q", field)
	}
	if n > max {
		return 0, fmt.Errorf("vertex count %d exceeds the %d-vertex cap", n, max)
	}
	return n, nil
}

// Coloring is the JSON document for a coloring result.
type Coloring struct {
	// Kind is "edge" (colors indexed by EdgeID) or "arc" (by ArcID).
	Kind string `json:"kind"`
	// N and M describe the graph the coloring belongs to.
	N int `json:"n"`
	M int `json:"m"`
	// Colors holds one color per edge/arc; -1 marks uncolored.
	Colors []int `json:"colors"`
	// Meta carries free-form run metadata (rounds, seed, ...).
	Meta map[string]string `json:"meta,omitempty"`
}

// WriteColoring emits c as indented JSON.
func WriteColoring(w io.Writer, c *Coloring) error {
	if c.Kind != "edge" && c.Kind != "arc" {
		return fmt.Errorf("graphio: unknown coloring kind %q", c.Kind)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadColoring parses a coloring document.
func ReadColoring(r io.Reader) (*Coloring, error) {
	var c Coloring
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("graphio: %v", err)
	}
	if c.Kind != "edge" && c.Kind != "arc" {
		return nil, fmt.Errorf("graphio: unknown coloring kind %q", c.Kind)
	}
	return &c, nil
}
