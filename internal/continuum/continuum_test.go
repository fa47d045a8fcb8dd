package continuum

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/potential"
	"repro/internal/sim"
)

func TestGridValidation(t *testing.T) {
	if err := (Grid{M: 2, A: 1}).Validate(); err == nil {
		t.Error("want error for M < 3")
	}
	if err := (Grid{M: 10, A: 0}).Validate(); err == nil {
		t.Error("want error for A <= 0")
	}
	g := Grid{M: 10, A: 0.5}
	if g.Length() != 5 {
		t.Errorf("Length = %v", g.Length())
	}
	if g.X(4) != 2 {
		t.Errorf("X(4) = %v", g.X(4))
	}
}

func TestGridBoundaries(t *testing.T) {
	ring := Grid{M: 5, A: 1, Periodic: true}
	if ring.left(0) != 4 || ring.right(4) != 0 {
		t.Error("periodic wrap broken")
	}
	open := Grid{M: 5, A: 1}
	if open.left(0) != 1 || open.right(4) != 3 {
		t.Error("Neumann mirror broken")
	}
}

func TestDiffusivitySign(t *testing.T) {
	g := Grid{M: 16, A: 1}
	sync := Field{Grid: g, Potential: potential.Tanh{}, K: 2}
	if d := sync.Diffusivity(); math.Abs(d-2) > 1e-4 {
		t.Errorf("tanh diffusivity = %v, want k·a²·V'(0) = 2", d)
	}
	desync := Field{Grid: g, Potential: potential.NewDesync(1.5), K: 2}
	if d := desync.Diffusivity(); d >= 0 {
		t.Errorf("desync diffusivity = %v, want negative (anti-diffusion)", d)
	}
}

func TestSolveValidation(t *testing.T) {
	f := Field{Grid: Grid{M: 8, A: 1}, Potential: potential.Tanh{}, K: 1}
	if _, err := f.Solve(make([]float64, 4), 1, 10); err == nil {
		t.Error("want length-mismatch error")
	}
	if _, err := f.Solve(make([]float64, 8), 0, 10); err == nil {
		t.Error("want tEnd error")
	}
	bad := f
	bad.Potential = nil
	if _, err := bad.Solve(make([]float64, 8), 1, 10); err == nil {
		t.Error("want nil-potential error")
	}
}

// TestHeatKernelSpreading verifies the linear PDE against the textbook
// heat kernel: a localized lag packet's second moment grows as 2Dt.
func TestHeatKernelSpreading(t *testing.T) {
	g := Grid{M: 201, A: 1, Periodic: false}
	f := Field{Grid: g, Potential: potential.Tanh{}, K: 1, Linear: true}
	d := f.Diffusivity()

	// Initial condition: θ = 0 everywhere except a localized lag bump in
	// the middle (the delayed region runs behind).
	theta0 := make([]float64, g.M)
	for i := range theta0 {
		x := g.X(i) - g.X(g.M/2)
		theta0[i] = -2 * math.Exp(-x*x/(2*4)) // lag packet, var₀ = 4
	}
	res, err := f.Solve(theta0, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	m0 := res.SecondMoment(0, mathx.TwoPi)
	mEnd := res.SecondMoment(len(res.Ts)-1, mathx.TwoPi)
	growth := mEnd - m0
	want := 2 * d * 20
	if math.Abs(growth-want)/want > 0.15 {
		t.Errorf("second moment grew %v, want ≈ 2Dt = %v", growth, want)
	}
}

// TestLinearContinuumFlattens is the continuum resynchronization: any
// initial lag profile decays to a flat field under positive diffusivity.
func TestLinearContinuumFlattens(t *testing.T) {
	// The q = 2π/M mode decays at rate D·q²; M = 16 with D = 2 gives
	// rate ≈ 0.31, so 50 time units flatten it completely.
	g := Grid{M: 16, A: 1, Periodic: true}
	f := Field{Grid: g, Potential: potential.Tanh{}, K: 2, Linear: true}
	theta0 := make([]float64, g.M)
	for i := range theta0 {
		theta0[i] = math.Sin(2 * math.Pi * float64(i) / float64(g.M))
	}
	res, err := f.Solve(theta0, 50, 11)
	if err != nil {
		t.Fatal(err)
	}
	spread := res.SpreadTimeline()
	if spread[0] < 1.9 {
		t.Fatalf("initial spread = %v", spread[0])
	}
	if last := spread[len(spread)-1]; last > 0.01 {
		t.Errorf("final spread = %v, want ≈ 0 (flattened)", last)
	}
}

// TestNonlinearMatchesLinearForSmallGradients checks the Taylor-expansion
// correspondence: for small-amplitude fields both flux forms evolve the
// same way.
func TestNonlinearMatchesLinearForSmallGradients(t *testing.T) {
	g := Grid{M: 48, A: 1, Periodic: true}
	theta0 := make([]float64, g.M)
	for i := range theta0 {
		theta0[i] = 0.01 * math.Sin(2*math.Pi*float64(i)/float64(g.M))
	}
	run := func(linear bool) []float64 {
		f := Field{Grid: g, Potential: potential.Tanh{}, K: 2, Linear: linear}
		res, err := f.Solve(theta0, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res.Theta[len(res.Theta)-1]
	}
	lin := run(true)
	non := run(false)
	for i := range lin {
		if math.Abs(lin[i]-non[i]) > 1e-5 {
			t.Fatalf("flux forms diverge at %d: %v vs %v", i, lin[i], non[i])
		}
	}
}

// TestAntiDiffusionSelectsGradient is the continuum computational
// wavefront: with the desynchronizing potential the flat state is
// unstable and the nonlinear flux selects a·|θ_x| at the potential's
// stable zero 2σ/3.
func TestAntiDiffusionSelectsGradient(t *testing.T) {
	sigma := 1.5
	pot := potential.NewDesync(sigma)
	g := Grid{M: 32, A: 1, Periodic: false}
	f := Field{Grid: g, Potential: pot, K: 2}
	theta0 := make([]float64, g.M)
	for i := range theta0 {
		// Small deterministic seed perturbation.
		theta0[i] = 0.01 * math.Sin(7*float64(i))
	}
	res, err := f.Solve(theta0, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	grad := res.GradientField(len(res.Ts) - 1)
	want := pot.StableZero()
	for i, gp := range grad {
		if math.Abs(math.Abs(gp)-want) > 0.15 {
			t.Errorf("gap at %d = %v, want ±%v", i, gp, want)
		}
	}
}

// TestDelayPacketDiffusesNotBallistic contrasts the continuum limit with
// the discrete traces: under the linear PDE a delay spreads ~√t.
func TestDelayPacketDiffusesNotBallistic(t *testing.T) {
	g := Grid{M: 161, A: 1, Periodic: false}
	f := Field{Grid: g, Potential: potential.Tanh{}, K: 2, Linear: true}
	theta0 := make([]float64, g.M)
	theta0[g.M/2] = -5 // point lag
	res, err := f.Solve(theta0, 64, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Width (sqrt of second moment) at t=16 and t=64 should scale by ≈2
	// (√4), not 4 (ballistic).
	kAt := func(tt float64) int {
		for k, ts := range res.Ts {
			if ts >= tt {
				return k
			}
		}
		return len(res.Ts) - 1
	}
	w16 := math.Sqrt(res.SecondMoment(kAt(16), mathx.TwoPi))
	w64 := math.Sqrt(res.SecondMoment(kAt(64), mathx.TwoPi))
	ratio := w64 / w16
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("width ratio = %v, want ≈ 2 (diffusive √t scaling)", ratio)
	}
}

// TestOmegaFieldInjectsDelay exercises the ω(x, t) hook: a slow region
// builds up lag relative to the rest.
func TestOmegaFieldInjectsDelay(t *testing.T) {
	g := Grid{M: 33, A: 1, Periodic: true}
	f := Field{
		Grid: g, Potential: potential.Tanh{}, K: 0.5,
		Omega: func(x, tt float64) float64 {
			if tt < 5 && math.Abs(x-16) < 2 {
				return mathx.TwoPi * 0.5 // half speed in the middle early on
			}
			return mathx.TwoPi
		},
	}
	res, err := f.Solve(make([]float64, g.M), 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	lag := res.Lag(len(res.Ts)-1, mathx.TwoPi)
	if lag[16] <= lag[0] {
		t.Errorf("slow region lag %v not above far-field %v", lag[16], lag[0])
	}
}

// TestValidationRejectsNonFinite is the regression test for the
// input-validation hole: a NaN lattice spacing or a NaN/Inf coupling
// passed every sign check before the fix and produced a silently
// poisoned field (NaN coordinates, NaN flux) instead of an error.
func TestValidationRejectsNonFinite(t *testing.T) {
	if err := (Grid{M: 10, A: math.NaN()}).Validate(); err == nil {
		t.Error("want error for NaN lattice spacing")
	}
	if err := (Grid{M: 10, A: math.Inf(1)}).Validate(); err == nil {
		t.Error("want error for infinite lattice spacing")
	}
	g := Grid{M: 8, A: 1}
	for _, k := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := Field{Grid: g, Potential: potential.Tanh{}, K: k}
		if _, err := f.Solve(make([]float64, 8), 1, 5); err == nil {
			t.Errorf("want error for coupling %v", k)
		}
	}
}

// TestSolveStreamMatchesSolve pins the unified-runtime port: the rows
// streamed through sim.RunStream are bit-for-bit the rows Solve
// materializes, and the shared SpreadAccumulator timeline reproduces
// the materialized spread loop exactly.
func TestSolveStreamMatchesSolve(t *testing.T) {
	g := Grid{M: 24, A: 1, Periodic: true}
	f := Field{Grid: g, Potential: potential.Tanh{}, K: 2, Linear: true}
	theta0 := make([]float64, g.M)
	for i := range theta0 {
		theta0[i] = math.Sin(2 * math.Pi * float64(i) / float64(g.M))
	}
	res, err := f.Solve(theta0, 12, 25)
	if err != nil {
		t.Fatal(err)
	}
	spread := &sim.SpreadAccumulator{KeepTimeline: true}
	k := 0
	sys, err := f.System(theta0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.RunStream(sys, 12, 25, sim.Tee(spread, sim.SinkFunc(func(tt float64, y []float64) {
		if math.Float64bits(tt) != math.Float64bits(res.Ts[k]) {
			t.Fatalf("sample %d time %v differs from materialized %v", k, tt, res.Ts[k])
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(res.Theta[k][i]) {
				t.Fatalf("sample %d component %d differs", k, i)
			}
		}
		k++
	})))
	if err != nil {
		t.Fatal(err)
	}
	if k != len(res.Ts) {
		t.Fatalf("streamed %d rows, materialized %d", k, len(res.Ts))
	}
	want := oracleSpreadTimeline(res)
	if len(spread.Timeline) != len(want) {
		t.Fatalf("spread timeline %d entries, want %d", len(spread.Timeline), len(want))
	}
	for i := range want {
		if math.Float64bits(spread.Timeline[i]) != math.Float64bits(want[i]) {
			t.Fatalf("spread[%d] differs: %v vs %v", i, spread.Timeline[i], want[i])
		}
	}
}

// oracleSpreadTimeline is the reference loop for Result.SpreadTimeline,
// independent of the SpreadAccumulator it replays through, for the
// streamed-vs-materialized pin.
func oracleSpreadTimeline(r *Result) []float64 {
	out := make([]float64, len(r.Theta))
	for k, th := range r.Theta {
		lo, hi, err := mathx.MinMax(th)
		if err == nil {
			out[k] = hi - lo
		}
	}
	return out
}
