package gen

import (
	"math"
	"testing"

	"dima/internal/rng"
)

func TestSpecValidate(t *testing.T) {
	ok := Spec{Family: "er", N: 10, Deg: 2}
	for name, bad := range map[string]func(s *Spec){
		"unknown family": func(s *Spec) { s.Family = "banana" },
		"negative n":     func(s *Spec) { s.N = -1 },
		"negative m":     func(s *Spec) { s.M = -1 },
		"negative k":     func(s *Spec) { s.K = -1 },
		"negative rows":  func(s *Spec) { s.Rows = -1 },
		"negative dim":   func(s *Spec) { s.Dim = -1 },
		"dim above 30":   func(s *Spec) { s.Dim = 31 },
		"negative left":  func(s *Spec) { s.Left = -1 },
		"NaN deg":        func(s *Spec) { s.Deg = math.NaN() },
		"NaN p":          func(s *Spec) { s.P = math.NaN() },
		"NaN power":      func(s *Spec) { s.Power = math.NaN() },
		"NaN beta":       func(s *Spec) { s.Beta = math.NaN() },
		"NaN radius":     func(s *Spec) { s.Radius = math.NaN() },
	} {
		s := ok
		bad(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := s.Build(); err == nil {
			t.Errorf("%s: built", name)
		}
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpecBuildSeeds: Build draws from an rng seeded with Spec.Seed, so
// a spec names one graph.
func TestSpecBuildSeeds(t *testing.T) {
	g, err := Spec{Family: "er", N: 50, Deg: 4, Seed: 9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ErdosRenyiAvgDegree(rng.New(9), 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != want.M() {
		t.Fatalf("spec built %d edges, the generator %d", g.M(), want.M())
	}
	for i, e := range g.Edges() {
		if e != want.Edges()[i] {
			t.Fatalf("edge %d: %v != %v", i, e, want.Edges()[i])
		}
	}
}
