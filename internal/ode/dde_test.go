package ode

import (
	"math"
	"testing"
)

func TestHistoryPrehistoryAndSegments(t *testing.T) {
	hist := NewHistory(0, func(_ int, tt float64) float64 { return 2 * tt })
	if got := hist.Eval(0, -3); got != -6 {
		t.Errorf("prehistory Eval = %v", got)
	}
	if hist.End() != 0 {
		t.Errorf("empty End = %v", hist.End())
	}
	// Integrate y' = 1 and check history interpolation hits the line.
	s := NewDOPRI5(1e-9, 1e-9)
	f := func(_ float64, _, dydt []float64) { dydt[0] = 1 }
	var c rowCollector
	opt := sampleOpts(&c, 2)
	opt.OnStep = func(seg *DenseSegment) { hist.Push(seg) }
	if _, err := s.Solve(f, []float64{0}, 0, 2, opt); err != nil {
		t.Fatal(err)
	}
	if hist.Len() == 0 {
		t.Fatal("no segments pushed")
	}
	for _, tt := range []float64{0.1, 0.77, 1.5, 2.0} {
		if got := hist.Eval(0, tt); math.Abs(got-tt) > 1e-8 {
			t.Errorf("Eval(%v) = %v, want %v", tt, got, tt)
		}
	}
	// Extrapolation beyond the last segment continues the line.
	if got := hist.Eval(0, 2.01); math.Abs(got-2.01) > 1e-6 {
		t.Errorf("extrapolated Eval = %v", got)
	}
}

func TestHistoryCompact(t *testing.T) {
	hist := NewHistory(0, nil)
	s := NewDOPRI5(1e-6, 1e-6)
	f := func(_ float64, _, dydt []float64) { dydt[0] = 1 }
	var c rowCollector
	opt := sampleOpts(&c, 10)
	opt.OnStep = func(seg *DenseSegment) { hist.Push(seg) }
	if _, err := s.Solve(f, []float64{0}, 0, 10, opt); err != nil {
		t.Fatal(err)
	}
	before := hist.Len()
	hist.Compact(9.5)
	if hist.Len() >= before && before > 1 {
		t.Errorf("Compact did not drop segments: %d -> %d", before, hist.Len())
	}
	// Recent history must still be valid.
	if got := hist.Eval(0, 9.9); math.Abs(got-9.9) > 1e-6 {
		t.Errorf("post-Compact Eval = %v", got)
	}
}

// TestSolveDDELinear integrates y'(t) = -y(t-1) with constant prehistory
// y(t) = 1 for t <= 0. On [0, 1] the exact solution is y = 1 - t; on
// [1, 2] it is y = 1 - t + (t-1)²/2 (method of steps).
func TestSolveDDELinear(t *testing.T) {
	s := NewDOPRI5(1e-9, 1e-9)
	f := func(tt float64, _ []float64, past Past, dydt []float64) {
		dydt[0] = -past.Eval(0, tt-1)
	}
	var c rowCollector
	if _, err := s.SolveDDE(f, []float64{1}, 0, 2, ddeOpts(&c, 0.5, 1.0, 1.5, 2.0)); err != nil {
		t.Fatal(err)
	}
	if len(c.ts) != 5 {
		t.Fatalf("streamed times %v, want t0 and 4 samples", c.ts)
	}
	exact := func(tt float64) float64 {
		if tt <= 1 {
			return 1 - tt
		}
		return 1 - tt + (tt-1)*(tt-1)/2
	}
	for k, tt := range c.ts {
		if math.Abs(c.ys[k][0]-exact(tt)) > 1e-6 {
			t.Errorf("y(%v) = %v, want %v", tt, c.ys[k][0], exact(tt))
		}
	}
}

// TestSolveDDEZeroDelayMatchesODE checks that a DDE with τ = 0 reproduces
// the plain ODE solution (vanishing-delay extrapolation path).
func TestSolveDDEZeroDelayMatchesODE(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-8)
	f := func(tt float64, y []float64, past Past, dydt []float64) {
		dydt[0] = -past.Eval(0, tt) // τ = 0: reads "now" through history
	}
	var c rowCollector
	if _, err := s.SolveDDE(f, []float64{1}, 0, 3, ddeOpts(&c, 3)); err != nil {
		t.Fatal(err)
	}
	if got, want := c.last()[0], math.Exp(-3); math.Abs(got-want) > 1e-4 {
		t.Errorf("zero-delay DDE y(3) = %v, want %v", got, want)
	}
}

func TestSolveDDEPrehistoryDefault(t *testing.T) {
	// With nil Prehistory the initial state is held constant for t <= t0.
	s := NewDOPRI5(1e-9, 1e-9)
	f := func(tt float64, _ []float64, past Past, dydt []float64) {
		dydt[0] = past.Eval(0, tt-5) // always reads prehistory on [0,2]
	}
	var c rowCollector
	if _, err := s.SolveDDE(f, []float64{3}, 0, 2, ddeOpts(&c, 2)); err != nil {
		t.Fatal(err)
	}
	// y' = 3 constant → y(2) = 3 + 6 = 9.
	if got := c.last()[0]; math.Abs(got-9) > 1e-7 {
		t.Errorf("y(2) = %v, want 9", got)
	}
}

func TestSolveDDEMaxDelayCompaction(t *testing.T) {
	s := NewDOPRI5(1e-6, 1e-6)
	f := func(tt float64, y []float64, past Past, dydt []float64) {
		dydt[0] = -past.Eval(0, tt-0.5)
	}
	var c rowCollector
	opt := ddeOpts(&c, 50)
	opt.MaxDelay = 0.5
	if _, err := s.SolveDDE(f, []float64{1}, 0, 50, opt); err != nil {
		t.Fatal(err)
	}
	// Solution of y' = -y(t-1/2) oscillates with decaying amplitude; it
	// must remain bounded and finite.
	if got := c.last()[0]; math.IsNaN(got) || math.Abs(got) > 1 {
		t.Errorf("long DDE run diverged: %v", got)
	}
}

func TestSolveDDEEmptyState(t *testing.T) {
	s := NewDOPRI5(1e-6, 1e-6)
	if _, err := s.SolveDDE(func(float64, []float64, Past, []float64) {}, nil, 0, 1, ddeOpts(&rowCollector{}, 1)); err == nil {
		t.Error("want error for empty state")
	}
}
