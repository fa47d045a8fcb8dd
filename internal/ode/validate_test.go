package ode

import (
	"strings"
	"testing"
)

// Regression tests for sample-plan validation: before the checks, a
// negative NSamples silently disabled the plan, a non-increasing
// SampleAt dropped or duplicated rows, and a plan outside [t0, t1]
// emitted extrapolated garbage — all without any error. Each case must
// now fail fast with a clear message.

func decayRHS1(_ float64, y, dydt []float64) { dydt[0] = -y[0] }

func delayRHS1(_ float64, y []float64, past Past, dydt []float64) {
	dydt[0] = -past.Eval(0, 0)
}

func TestSolveRejectsNegativeNSamples(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	_, err := s.Solve(decayRHS1, []float64{1}, 0, 1, SolveOptions{
		SampleAt: func(k int) float64 { return float64(k) }, NSamples: -3,
		SampleFunc: func(float64, []float64) {},
	})
	if err == nil || !strings.Contains(err.Error(), "NSamples") {
		t.Fatalf("err = %v, want a negative-NSamples error", err)
	}
	// Negative NSamples is rejected even without a SampleAt plan: it is
	// always a caller bug.
	if _, err := s.Solve(decayRHS1, []float64{1}, 0, 1, SolveOptions{NSamples: -1}); err == nil {
		t.Fatal("negative NSamples without a plan accepted")
	}
}

// TestSolveRequiresSamplePlan pins the single output path: a run with
// no plan or no row consumer is an error, not a silent no-output run.
func TestSolveRequiresSamplePlan(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	plan := func(int) float64 { return 1 }
	sink := func(float64, []float64) {}
	for name, opt := range map[string]SolveOptions{
		"no plan":     {NSamples: 1, SampleFunc: sink},
		"no consumer": {SampleAt: plan, NSamples: 1},
		"neither":     {},
	} {
		if _, err := s.Solve(decayRHS1, []float64{1}, 0, 1, opt); err == nil || !strings.Contains(err.Error(), "sample plan") {
			t.Errorf("%s: err = %v, want a missing-plan error", name, err)
		}
	}
	_, err := s.SolveDDE(delayRHS1, []float64{1}, 0, 1, DDEOptions{SampleAt: plan, NSamples: 1})
	if err == nil || !strings.Contains(err.Error(), "sample plan") {
		t.Errorf("SolveDDE: err = %v, want a missing-plan error", err)
	}
}

func TestSolveRejectsNonIncreasingPlan(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	var c rowCollector
	_, err := s.Solve(decayRHS1, []float64{1}, 0, 1, sampleOpts(&c, 0, 0.5, 0.5, 1))
	if err == nil || !strings.Contains(err.Error(), "not increasing") {
		t.Fatalf("plateau plan: err = %v, want a non-increasing-plan error", err)
	}
	_, err = s.Solve(decayRHS1, []float64{1}, 0, 1, SolveOptions{
		SampleAt: func(k int) float64 { return 0.5 - 0.1*float64(k) }, NSamples: 4,
		SampleFunc: c.sample,
	})
	if err == nil || !strings.Contains(err.Error(), "not increasing") {
		t.Fatalf("err = %v, want a non-increasing-plan error", err)
	}
	if len(c.ts) != 0 {
		t.Fatalf("rejected plans streamed %d rows", len(c.ts))
	}
}

func TestSolveRejectsPlanOutsideInterval(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	var c rowCollector
	cases := []SolveOptions{
		sampleOpts(&c, -0.5, 0.5),
		sampleOpts(&c, 0.5, 1.5),
		{SampleAt: func(k int) float64 { return 2 * float64(k) }, NSamples: 3, SampleFunc: c.sample},
	}
	for i, opt := range cases {
		_, err := s.Solve(decayRHS1, []float64{1}, 0, 1, opt)
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("case %d: err = %v, want an out-of-interval error", i, err)
		}
	}
}

// TestSolveDDEValidatesPlans checks the DDE driver inherits the same
// validation (it delegates to Solve).
func TestSolveDDEValidatesPlans(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	var c rowCollector
	if _, err := s.SolveDDE(delayRHS1, []float64{1}, 0, 1, DDEOptions{
		SampleAt: func(k int) float64 { return 1 }, NSamples: -1, SampleFunc: c.sample,
	}); err == nil {
		t.Error("negative NSamples accepted by SolveDDE")
	}
	if _, err := s.SolveDDE(delayRHS1, []float64{1}, 0, 1, ddeOpts(&c, 0.5, 0.25)); err == nil {
		t.Error("non-increasing plan accepted by SolveDDE")
	}
	if _, err := s.SolveDDE(delayRHS1, []float64{1}, 0, 1, DDEOptions{
		SampleAt: func(k int) float64 { return 1 + float64(k) }, NSamples: 2, SampleFunc: c.sample,
	}); err == nil {
		t.Error("out-of-interval plan accepted by SolveDDE")
	}
}

// TestSolveAcceptsBoundarySamples pins the valid extreme: samples
// exactly at t0 and t1 remain legal (the uniform grids sim builds
// include both endpoints).
func TestSolveAcceptsBoundarySamples(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	var c rowCollector
	if _, err := s.Solve(decayRHS1, []float64{1}, 0, 1, sampleOpts(&c, 0, 0.5, 1)); err != nil {
		t.Fatal(err)
	}
	// The t0 sample is streamed as the initial row; the plan then skips it.
	if len(c.ts) != 3 || c.ts[0] != 0 || c.ts[2] != 1 {
		t.Fatalf("Ts = %v", c.ts)
	}
}
