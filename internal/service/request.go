package service

import (
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"strings"

	"dima/internal/gen"
	"dima/internal/graph"
	"dima/internal/graphio"
)

// Submissions come in two shapes, distinguished by Content-Type:
//
//   - application/json: a SubmitRequest document carrying either an
//     inline "graph" edge list or a "gen" generator spec.
//   - anything else (text/plain, application/octet-stream, a raw curl
//     upload): the body IS the graph in the edge-list format (native or
//     DIMACS), with seed / strong / maxRounds as query parameters.
//
// Every size and range is validated here so a hostile submission gets a
// 400, mirroring the CLI boundary's exit-2 discipline: nothing a client
// sends may reach a library panic.

// SubmitRequest is the JSON submission document.
type SubmitRequest struct {
	// Graph is an inline edge list (native "n/e" or DIMACS "p edge"
	// format). Exactly one of Graph and Gen must be set.
	Graph string `json:"graph,omitempty"`
	// Gen generates the instance server-side instead of uploading it.
	Gen *GenSpec `json:"gen,omitempty"`
	// Seed determines every random choice of the run.
	Seed uint64 `json:"seed"`
	// Strong selects Algorithm 2 (strong distance-2 coloring).
	Strong bool `json:"strong"`
	// MaxRounds caps computation rounds (0 = server default); the
	// server's own MaxRounds cap still applies.
	MaxRounds int `json:"maxRounds"`
	// Recovery enables the loss-recovery protocol layer for the run.
	Recovery bool `json:"recovery,omitempty"`
}

// GenSpec names a graph family and its parameters: graphgen's flags
// as JSON. Unused parameters are ignored.
type GenSpec = gen.Spec

// parseSubmit turns an HTTP submission into a validated JobRequest.
func (s *Server) parseSubmit(r *http.Request) (JobRequest, error) {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	if ct == "application/json" {
		var sub SubmitRequest
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sub); err != nil {
			return JobRequest{}, fmt.Errorf("parse submission: %v", err)
		}
		return buildRequest(sub)
	}
	// Raw upload: the body is the graph, parameters ride the query.
	g, err := graphio.ReadGraphMax(body, maxVertices)
	if err != nil {
		return JobRequest{}, err
	}
	seed, err := queryUint(r, "seed", 1)
	if err != nil {
		return JobRequest{}, err
	}
	maxRounds, err := queryInt(r, "maxRounds", 0)
	if err != nil {
		return JobRequest{}, err
	}
	return JobRequest{
		Graph:     g,
		Strong:    r.URL.Query().Get("strong") == "true",
		Recovery:  r.URL.Query().Get("recovery") == "true",
		Seed:      seed,
		MaxRounds: maxRounds,
	}, nil
}

// buildRequest validates a SubmitRequest and materializes its graph.
func buildRequest(sub SubmitRequest) (JobRequest, error) {
	if (sub.Graph == "") == (sub.Gen == nil) {
		return JobRequest{}, fmt.Errorf("submission wants exactly one of \"graph\" and \"gen\"")
	}
	if sub.MaxRounds < 0 {
		return JobRequest{}, fmt.Errorf("maxRounds wants a non-negative cap, got %d", sub.MaxRounds)
	}
	var g *graph.Graph
	var err error
	if sub.Graph != "" {
		g, err = graphio.ReadGraphMax(strings.NewReader(sub.Graph), maxVertices)
	} else {
		g, err = buildGraph(*sub.Gen)
	}
	if err != nil {
		return JobRequest{}, err
	}
	return JobRequest{
		Graph: g, Strong: sub.Strong, Recovery: sub.Recovery,
		Seed: sub.Seed, MaxRounds: sub.MaxRounds,
	}, nil
}

// maxVertices bounds the graph of every submission. Neither a
// generator spec nor an upload's header line costs more than a few
// bytes, yet either sets the vertex count the server allocates for, so
// MaxBodyBytes does not bound it.
const maxVertices = 2_000_000

// buildGraph generates a spec's graph after checking it against the
// server's size caps, which gen.Spec.Validate does not impose.
func buildGraph(spec GenSpec) (*graph.Graph, error) {
	switch {
	case spec.N > maxVertices:
		return nil, fmt.Errorf("gen: n wants at most %d vertices, got %d", maxVertices, spec.N)
	case spec.Rows > 0 && spec.Cols > maxVertices/spec.Rows:
		return nil, fmt.Errorf("gen: grid wants at most %d vertices, got %d x %d", maxVertices, spec.Rows, spec.Cols)
	case spec.Dim > 20: // 2^21 > maxVertices
		return nil, fmt.Errorf("gen: hypercube wants at most %d vertices, got dimension %d", maxVertices, spec.Dim)
	case spec.Left > maxVertices-spec.Right:
		return nil, fmt.Errorf("gen: bipartite wants at most %d vertices, got %d and %d", maxVertices, spec.Left, spec.Right)
	case spec.Family == "complete" && spec.N > 3000: // ~4.5M edges; keep the quadratic family sane
		return nil, fmt.Errorf("gen: complete wants n <= 3000, got %d", spec.N)
	}
	return spec.Build()
}
