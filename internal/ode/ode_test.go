package ode

import (
	"errors"
	"math"
	"testing"
)

// expDecay is y' = -y with solution y(t) = y0·e^{-t}.
func expDecay(_ float64, y, dydt []float64) {
	for i := range y {
		dydt[i] = -y[i]
	}
}

// harmonic is the 2-D oscillator y” = -y written as a first-order system.
func harmonic(_ float64, y, dydt []float64) {
	dydt[0] = y[1]
	dydt[1] = -y[0]
}

func TestFixedSolveExpDecay(t *testing.T) {
	for _, tc := range []struct {
		stepper Stepper
		tol     float64
	}{
		{&Euler{}, 2e-2},
		{&Heun{}, 2e-4},
		{&RK4{}, 1e-8},
	} {
		sol, err := FixedSolve(expDecay, tc.stepper, []float64{1}, 0, 2, 1e-3, 100)
		if err != nil {
			t.Fatalf("%s: %v", tc.stepper.Name(), err)
		}
		got := sol.Ys[len(sol.Ys)-1][0]
		want := math.Exp(-2)
		if math.Abs(got-want) > tc.tol {
			t.Errorf("%s: y(2) = %v, want %v ± %v", tc.stepper.Name(), got, want, tc.tol)
		}
	}
}

// convergenceOrder estimates the observed order of a stepper by halving h.
func convergenceOrder(t *testing.T, st Stepper) float64 {
	t.Helper()
	errAt := func(h float64) float64 {
		sol, err := FixedSolve(harmonic, st, []float64{1, 0}, 0, 1, h, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(sol.Ys[len(sol.Ys)-1][0] - math.Cos(1))
	}
	e1, e2 := errAt(0.01), errAt(0.005)
	return math.Log2(e1 / e2)
}

func TestConvergenceOrders(t *testing.T) {
	for _, tc := range []struct {
		st   Stepper
		want float64
	}{
		{&Euler{}, 1},
		{&Heun{}, 2},
		{&RK4{}, 4},
	} {
		got := convergenceOrder(t, tc.st)
		if math.Abs(got-tc.want) > 0.25 {
			t.Errorf("%s: observed order %.2f, want %.0f", tc.st.Name(), got, tc.want)
		}
		if tc.st.Order() != int(tc.want) {
			t.Errorf("%s: Order() = %d", tc.st.Name(), tc.st.Order())
		}
	}
}

func TestFixedSolveErrors(t *testing.T) {
	if _, err := FixedSolve(expDecay, &RK4{}, []float64{1}, 0, 1, 0, 1); err == nil {
		t.Error("want error for h = 0")
	}
	if _, err := FixedSolve(expDecay, &RK4{}, []float64{1}, 1, 0, 0.1, 1); err == nil {
		t.Error("want error for t1 < t0")
	}
}

func TestFixedSolveLandsOnT1(t *testing.T) {
	sol, err := FixedSolve(expDecay, &RK4{}, []float64{1}, 0, 1, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if last := sol.Ts[len(sol.Ts)-1]; last != 1 {
		t.Errorf("final time = %v, want exactly 1", last)
	}
}

func TestDOPRI5Accuracy(t *testing.T) {
	got, st := solveTo(t, NewDOPRI5(1e-10, 1e-10), harmonic, []float64{1, 0}, 0, 10)
	if math.Abs(got[0]-math.Cos(10)) > 1e-7 || math.Abs(got[1]+math.Sin(10)) > 1e-7 {
		t.Errorf("y(10) = %v, want (cos10, -sin10)", got)
	}
	if st.Accepted == 0 || st.Evals == 0 {
		t.Error("stats not populated")
	}
}

func TestDOPRI5ToleranceControlsError(t *testing.T) {
	run := func(tol float64) (errv float64, steps int) {
		got, st := solveTo(t, NewDOPRI5(tol, tol), harmonic, []float64{1, 0}, 0, 10)
		return math.Abs(got[0] - math.Cos(10)), st.Accepted
	}
	eLoose, nLoose := run(1e-4)
	eTight, nTight := run(1e-9)
	if eTight >= eLoose {
		t.Errorf("tight tol error %g not below loose %g", eTight, eLoose)
	}
	if nTight <= nLoose {
		t.Errorf("tight tol used %d steps, loose %d — expected more work", nTight, nLoose)
	}
}

func TestDOPRI5SampleAt(t *testing.T) {
	s := NewDOPRI5(1e-9, 1e-9)
	want := []float64{0, 1, 2, 3, 4, 5}
	var c rowCollector
	if _, err := s.Solve(expDecay, []float64{1}, 0, 5, sampleOpts(&c, want...)); err != nil {
		t.Fatal(err)
	}
	if len(c.ts) != len(want) {
		t.Fatalf("got %d samples (%v), want %d", len(c.ts), c.ts, len(want))
	}
	for k, ts := range want {
		if math.Abs(c.ts[k]-ts) > 1e-12 {
			t.Errorf("sample %d at %v, want %v", k, c.ts[k], ts)
		}
		if math.Abs(c.ys[k][0]-math.Exp(-ts)) > 1e-7 {
			t.Errorf("y(%v) = %v, want %v", ts, c.ys[k][0], math.Exp(-ts))
		}
	}
}

func TestDOPRI5DenseOutputAccuracy(t *testing.T) {
	s := NewDOPRI5(1e-9, 1e-9)
	var c rowCollector
	var segs []*DenseSegment
	opt := sampleOpts(&c, 5)
	opt.OnStep = func(seg *DenseSegment) { segs = append(segs, seg) }
	if _, err := s.Solve(harmonic, []float64{1, 0}, 0, 5, opt); err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no dense segments handed to OnStep")
	}
	for _, seg := range segs {
		for _, th := range []float64{0.1, 0.5, 0.9} {
			tt := seg.T0 + th*seg.H
			v := seg.Eval(tt, nil)
			if math.Abs(v[0]-math.Cos(tt)) > 1e-6 {
				t.Fatalf("dense eval at %v: %v, want %v", tt, v[0], math.Cos(tt))
			}
		}
	}
}

func TestDOPRI5FSALConsistency(t *testing.T) {
	// A stiff-ish nonlinear problem exercises accept/reject sequences; the
	// result must still match the analytic solution of y' = y² with
	// y(0) = -1: y(t) = -1/(1+t).
	riccati := func(_ float64, y, dydt []float64) { dydt[0] = y[0] * y[0] }
	y, _ := solveTo(t, NewDOPRI5(1e-10, 1e-10), riccati, []float64{-1}, 0, 9)
	want := -1.0 / 10
	if got := y[0]; math.Abs(got-want) > 1e-8 {
		t.Errorf("y(9) = %v, want %v", got, want)
	}
}

func TestDOPRI5MaxSteps(t *testing.T) {
	s := NewDOPRI5(1e-12, 1e-12)
	s.MaxSteps = 3
	var c rowCollector
	_, err := s.Solve(harmonic, []float64{1, 0}, 0, 100, sampleOpts(&c, 100))
	if !errors.Is(err, ErrTooManySteps) {
		t.Fatalf("err = %v, want ErrTooManySteps", err)
	}
}

func TestDOPRI5TimeDependentRHS(t *testing.T) {
	// y' = cos(t), y(0) = 0 → y = sin(t). Verifies t is threaded through
	// the stages correctly (c_i coefficients).
	f := func(tt float64, _, dydt []float64) { dydt[0] = math.Cos(tt) }
	y, _ := solveTo(t, NewDOPRI5(1e-10, 1e-10), f, []float64{0}, 0, 7)
	if got := y[0]; math.Abs(got-math.Sin(7)) > 1e-8 {
		t.Errorf("y(7) = %v, want sin(7) = %v", got, math.Sin(7))
	}
}

func BenchmarkDOPRI5Harmonic(b *testing.B) {
	s := NewDOPRI5(1e-8, 1e-8)
	y0 := []float64{1, 0}
	opt := SolveOptions{
		SampleAt:   func(int) float64 { return 10 },
		NSamples:   1,
		SampleFunc: func(float64, []float64) {},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(harmonic, y0, 0, 10, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRK4Harmonic(b *testing.B) {
	st := &RK4{}
	y0 := []float64{1, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FixedSolve(harmonic, st, y0, 0, 10, 1e-3, 1<<30); err != nil {
			b.Fatal(err)
		}
	}
}
