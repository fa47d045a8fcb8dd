package main

import (
	"testing"

	"repro/internal/scenario"
)

// TestSweepSpecSetsFamilyField checks, for every family, that
// -sweep-param sigma|seed writes the field the family's model actually
// reads, and that a family without the parameter is refused instead of
// silently sweeping nothing.
func TestSweepSpecSetsFamilyField(t *testing.T) {
	sigma := map[string]func(*scenario.Spec) float64{
		"pom":       func(s *scenario.Spec) float64 { return s.Potential.Sigma },
		"continuum": func(s *scenario.Spec) float64 { return s.Continuum.Potential.Sigma },
		"torus2d":   func(s *scenario.Spec) float64 { return s.Torus2D.Potential.Sigma },
		"linstab":   func(s *scenario.Spec) float64 { return s.Linstab.Potential.Sigma },
	}
	seed := map[string]func(*scenario.Spec) uint64{
		"pom":      func(s *scenario.Spec) uint64 { return s.PerturbSeed },
		"kuramoto": func(s *scenario.Spec) uint64 { return s.Kuramoto.Seed },
		"torus2d":  func(s *scenario.Spec) uint64 { return s.Torus2D.PerturbSeed },
	}
	for _, fam := range scenario.Families() {
		spec, err := scenario.LoadFile(scenarioFile(fam))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fam+"/sigma", func(t *testing.T) {
			pt, err := sweepSpec(spec, sweepOpts{param: "sigma"}, 2.25)
			get, ok := sigma[fam]
			if !ok {
				if err == nil {
					t.Fatal("sigma sweep accepted a family without sigma")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := get(pt); got != 2.25 {
				t.Errorf("swept sigma = %g, want 2.25", got)
			}
		})
		t.Run(fam+"/seed", func(t *testing.T) {
			pt, err := sweepSpec(spec, sweepOpts{param: "seed"}, 9)
			get, ok := seed[fam]
			if !ok {
				if err == nil {
					t.Fatal("seed sweep accepted a family without a seed")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := get(pt); got != 9 {
				t.Errorf("swept seed = %d, want 9", got)
			}
		})
	}
}

// TestFamilyTableCoversRegistry checks that every registered scenario
// family has its pomsim table entry, so a new family cannot reach the
// streamed-run path without archive params and report lines.
func TestFamilyTableCoversRegistry(t *testing.T) {
	for _, fam := range scenario.Families() {
		e, ok := cliFamilies[fam]
		if !ok || e.params == nil || e.report == nil {
			t.Errorf("family %q: missing cliFamilies entry or its params/report", fam)
		}
	}
}
