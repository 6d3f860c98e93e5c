package gen

import (
	"fmt"
	"math"

	"dima/internal/graph"
	"dima/internal/rng"
)

// Spec names a graph family and its parameters: the one family switch
// behind graphgen's flags and dimaserve's "gen" submissions. Parameters
// the family does not use are ignored.
type Spec struct {
	Family string  `json:"family"`
	N      int     `json:"n"`
	Deg    float64 `json:"deg"`    // er: average degree
	P      float64 `json:"p"`      // gnp, bipartite: edge probability
	M      int     `json:"m"`      // gnm: edge count
	K      int     `json:"k"`      // ba, ws, regular, powerlaw: degree parameter
	Power  float64 `json:"power"`  // ba: attachment exponent; powerlaw: exponent - 1.5
	Beta   float64 `json:"beta"`   // ws: rewire probability
	Rows   int     `json:"rows"`   // grid
	Cols   int     `json:"cols"`   // grid
	Dim    int     `json:"dim"`    // hypercube
	Left   int     `json:"left"`   // bipartite
	Right  int     `json:"right"`  // bipartite
	Seed   uint64  `json:"seed"`   // generator seed
	Radius float64 `json:"radius"` // geometric
}

// families maps each family name to its generator.
var families = map[string]func(s Spec, r *rng.Rand) (*graph.Graph, error){
	"er":        func(s Spec, r *rng.Rand) (*graph.Graph, error) { return ErdosRenyiAvgDegree(r, s.N, s.Deg) },
	"gnp":       func(s Spec, r *rng.Rand) (*graph.Graph, error) { return ErdosRenyiGNP(r, s.N, s.P) },
	"gnm":       func(s Spec, r *rng.Rand) (*graph.Graph, error) { return ErdosRenyiGNM(r, s.N, s.M) },
	"ba":        func(s Spec, r *rng.Rand) (*graph.Graph, error) { return BarabasiAlbert(r, s.N, s.K, s.Power) },
	"ws":        func(s Spec, r *rng.Rand) (*graph.Graph, error) { return WattsStrogatz(r, s.N, s.K, s.Beta) },
	"regular":   func(s Spec, r *rng.Rand) (*graph.Graph, error) { return RandomRegular(r, s.N, s.K) },
	"geometric": func(s Spec, r *rng.Rand) (*graph.Graph, error) { return RandomGeometric(r, s.N, s.Radius) },
	"powerlaw":  powerLaw,
	"tree":      func(s Spec, r *rng.Rand) (*graph.Graph, error) { return RandomTree(r, s.N), nil },
	"bipartite": func(s Spec, r *rng.Rand) (*graph.Graph, error) { return RandomBipartite(r, s.Left, s.Right, s.P) },
	"complete":  func(s Spec, _ *rng.Rand) (*graph.Graph, error) { return Complete(s.N), nil },
	"cycle":     func(s Spec, _ *rng.Rand) (*graph.Graph, error) { return Cycle(s.N), nil },
	"path":      func(s Spec, _ *rng.Rand) (*graph.Graph, error) { return Path(s.N), nil },
	"star":      func(s Spec, _ *rng.Rand) (*graph.Graph, error) { return Star(s.N), nil },
	"grid":      func(s Spec, _ *rng.Rand) (*graph.Graph, error) { return Grid(s.Rows, s.Cols), nil },
	"hypercube": func(s Spec, _ *rng.Rand) (*graph.Graph, error) { return Hypercube(s.Dim), nil },
}

// powerLaw is the configuration model over a power-law degree sequence
// with degrees in [1, min(8k, n-1)] and exponent Power+1.5.
func powerLaw(s Spec, r *rng.Rand) (*graph.Graph, error) {
	maxDeg := min(s.K*8, s.N-1)
	degrees, err := PowerLawDegrees(r, s.N, 1, max(maxDeg, 1), s.Power+1.5)
	if err != nil {
		return nil, err
	}
	return ConfigurationModel(r, degrees)
}

// Validate rejects an unknown family, the negative or oversized sizes
// the constructive families (Complete, Grid, Hypercube, ...) document
// panics on, so that no parameter value reaches a panic, and a NaN in
// any real parameter.
func (s Spec) Validate() error {
	switch {
	case families[s.Family] == nil:
		return fmt.Errorf("gen: unknown family %q", s.Family)
	case s.N < 0:
		return fmt.Errorf("gen: n wants a non-negative vertex count, got %d", s.N)
	case s.M < 0:
		return fmt.Errorf("gen: m wants a non-negative edge count, got %d", s.M)
	case s.K < 0:
		return fmt.Errorf("gen: k wants a non-negative degree, got %d", s.K)
	case s.Rows < 0 || s.Cols < 0:
		return fmt.Errorf("gen: rows and cols want non-negative sizes, got %d x %d", s.Rows, s.Cols)
	case s.Dim < 0 || s.Dim > 30:
		return fmt.Errorf("gen: dim wants a hypercube dimension in [0, 30], got %d", s.Dim)
	case s.Left < 0 || s.Right < 0:
		return fmt.Errorf("gen: left and right want non-negative part sizes, got %d and %d", s.Left, s.Right)
	case math.IsNaN(s.Deg) || math.IsNaN(s.P) || math.IsNaN(s.Power) || math.IsNaN(s.Beta) || math.IsNaN(s.Radius):
		return fmt.Errorf("gen: deg, p, power, beta and radius want numbers, got NaN")
	}
	return nil
}

// Build validates s and generates its graph from an rng seeded with
// s.Seed. Errors after validation are the generator's own, such as
// parameters no graph of the family can satisfy.
func (s Spec) Build() (*graph.Graph, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return families[s.Family](s, rng.New(s.Seed))
}
