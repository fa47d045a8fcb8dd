// Package continuum implements the continuum limit of the physical
// oscillator model, which the paper's §6 poses as future work ("if a
// well-defined continuum limit of the model can be found, it could be
// useful in hardware-software co-design").
//
// Replacing the rank index by a continuous coordinate x with lattice
// spacing a, the ±1-stencil coupling term of Eq. (2) becomes
//
//	k·[V(θ(x+a)−θ(x)) + V(θ(x−a)−θ(x))]
//	  = k·a²·V'(0)·θ_xx + O(a⁴)        (small-gradient expansion)
//
// so the field θ(x, t) obeys, to leading order, a reaction–diffusion
// equation θ_t = ω(x, t) + D·θ_xx with D = k·a²·V'(0):
//
//   - the synchronizing potential (V'(0) > 0) yields ordinary diffusion —
//     idle waves spread out and decay, the field flattens
//     (resynchronization);
//   - the desynchronizing potential (V'(0) < 0) yields *anti-diffusion* —
//     the flat state is unstable and the full nonlinear flux selects a
//     finite gradient with a·|θ_x| at the potential's stable zero: the
//     continuum computational wavefront.
//
// Two right-hand sides are provided: Linear (the leading-order PDE) and
// Nonlinear (the full finite-difference flux, which remains well-posed in
// the anti-diffusive regime because the potential saturates).
//
// A Field bound to an initial state (Field.System) implements sim.System,
// so continuum relaxation studies route through the same unified runtime
// as the discrete models: sim.RunStream drives the shared accumulator
// sinks, and the sweep/archive machinery works over continuum points
// unchanged.
package continuum

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/ode"
	"repro/internal/potential"
	"repro/internal/sim"
)

// Grid is a uniform 1-D spatial grid.
type Grid struct {
	// M is the number of grid points.
	M int
	// A is the lattice spacing (distance between neighboring points; in
	// the discrete-model correspondence, one MPI rank per spacing).
	A float64
	// Periodic selects ring (true) or zero-flux Neumann (false)
	// boundaries.
	Periodic bool
}

// Validate reports configuration errors.
func (g Grid) Validate() error {
	if g.M < 3 {
		return errors.New("continuum: need at least 3 grid points")
	}
	// NaN fails the <= comparison, so check it explicitly: a NaN spacing
	// would silently poison every coordinate and the diffusivity.
	if !(g.A > 0) || math.IsInf(g.A, 0) {
		return fmt.Errorf("continuum: lattice spacing must be positive and finite, got %v", g.A)
	}
	return nil
}

// Length returns the domain length M·a.
func (g Grid) Length() float64 { return float64(g.M) * g.A }

// X returns the coordinate of grid point i.
func (g Grid) X(i int) float64 { return float64(i) * g.A }

// left and right return neighbor indices under the boundary rule.
func (g Grid) left(i int) int {
	if i > 0 {
		return i - 1
	}
	if g.Periodic {
		return g.M - 1
	}
	return 1 // Neumann mirror
}

func (g Grid) right(i int) int {
	if i < g.M-1 {
		return i + 1
	}
	if g.Periodic {
		return 0
	}
	return g.M - 2 // Neumann mirror
}

// Field is a continuum POM configuration.
type Field struct {
	Grid Grid
	// Omega is the local natural frequency field ω(x, t); nil means the
	// constant 2π (unit period everywhere).
	Omega func(x, t float64) float64
	// Potential is V; required for the nonlinear flux, and its V'(0)
	// defines the linear diffusivity.
	Potential potential.Potential
	// K is the per-partner coupling strength k.
	K float64
	// Linear selects the leading-order PDE θ_t = ω + D θ_xx instead of
	// the full nonlinear flux.
	Linear bool
	// Atol and Rtol are solver tolerances (defaults 1e-8/1e-6).
	Atol, Rtol float64
}

// Diffusivity returns D = k·a²·V'(0) of the leading-order PDE.
func (f *Field) Diffusivity() float64 {
	const h = 1e-6
	dv0 := (f.Potential.Eval(h) - f.Potential.Eval(-h)) / (2 * h)
	return f.K * f.Grid.A * f.Grid.A * dv0
}

// rhs evaluates the time derivative of the field.
func (f *Field) rhs(t float64, th, dth []float64) {
	g := f.Grid
	omega := func(x float64) float64 {
		if f.Omega == nil {
			return mathx.TwoPi
		}
		return f.Omega(x, t)
	}
	if f.Linear {
		d := f.Diffusivity() / (g.A * g.A)
		for i := 0; i < g.M; i++ {
			lap := th[g.left(i)] + th[g.right(i)] - 2*th[i]
			dth[i] = omega(g.X(i)) + d*lap
		}
		return
	}
	for i := 0; i < g.M; i++ {
		coupling := f.Potential.Eval(th[g.left(i)]-th[i]) +
			f.Potential.Eval(th[g.right(i)]-th[i])
		dth[i] = omega(g.X(i)) + f.K*coupling
	}
}

// Result is a completed continuum integration.
type Result struct {
	Grid  Grid
	Ts    []float64
	Theta [][]float64
	Stats ode.Stats
}

// FieldSystem is a Field bound to an initial state — the sim.System view
// of the continuum model that Solve and the scenario registry integrate
// through the unified runtime.
type FieldSystem struct {
	f      *Field
	theta0 []float64
}

// System validates the field configuration and binds it to theta0,
// returning the sim.System the unified runtime integrates.
func (f *Field) System(theta0 []float64) (*FieldSystem, error) {
	if err := f.Grid.Validate(); err != nil {
		return nil, err
	}
	if f.Potential == nil {
		return nil, errors.New("continuum: nil potential")
	}
	if f.K < 0 {
		return nil, errors.New("continuum: negative coupling")
	}
	// A NaN/Inf coupling passes the sign check but produces a NaN field on
	// the very first right-hand-side call; reject it at the boundary.
	if math.IsNaN(f.K) || math.IsInf(f.K, 0) {
		return nil, fmt.Errorf("continuum: non-finite coupling %v", f.K)
	}
	if len(theta0) != f.Grid.M {
		return nil, fmt.Errorf("continuum: theta0 has %d points, grid %d", len(theta0), f.Grid.M)
	}
	return &FieldSystem{f: f, theta0: append([]float64(nil), theta0...)}, nil
}

// Dim implements sim.System.
func (s *FieldSystem) Dim() int { return s.f.Grid.M }

// InitialState implements sim.System.
func (s *FieldSystem) InitialState() []float64 { return s.theta0 }

// Eval implements sim.System.
func (s *FieldSystem) Eval(t float64, y, dydt []float64) { s.f.rhs(t, y, dydt) }

// Solver implements sim.Tuned. Diffusion stability is handled by the
// error controller, but the step is capped against frozen-noise-style ω
// fields just as the discrete model does.
func (s *FieldSystem) Solver() sim.Solver {
	return sim.Solver{Atol: s.f.Atol, Rtol: s.f.Rtol, Hmax: 0.25}
}

// Solve integrates the field from theta0 over [0, tEnd] with nSamples
// uniform output samples through the unified sim runtime.
func (f *Field) Solve(theta0 []float64, tEnd float64, nSamples int) (*Result, error) {
	sys, err := f.System(theta0)
	if err != nil {
		return nil, err
	}
	if tEnd <= 0 {
		return nil, errors.New("continuum: tEnd must be positive")
	}
	res, err := sim.Run(sys, tEnd, nSamples)
	if err != nil {
		return nil, fmt.Errorf("continuum: %w", err)
	}
	return &Result{Grid: f.Grid, Ts: res.Ts, Theta: res.Ys, Stats: res.Stats}, nil
}

// Lag returns ω̄·t − θ(x, t) at sample k for the constant-ω case: the
// local delay field whose spreading is the continuum idle wave.
func (r *Result) Lag(k int, omegaBar float64) []float64 {
	out := make([]float64, len(r.Theta[k]))
	for i, th := range r.Theta[k] {
		out[i] = omegaBar*r.Ts[k] - th
	}
	return out
}

// GradientField returns the adjacent gap field θ(x+a) − θ(x) at sample k
// (forward differences, M−1 values): the continuum analogue of the
// adjacent phase gap. Forward differences are essential here — the
// anti-diffusive instability grows fastest at the zone boundary
// (wavelength 2a, the zigzag state), which a central difference reads as
// zero.
func (r *Result) GradientField(k int) []float64 {
	th := r.Theta[k]
	out := make([]float64, len(th)-1)
	for i := 0; i+1 < len(th); i++ {
		out[i] = th[i+1] - th[i]
	}
	return out
}

// SpreadTimeline returns max θ − min θ at every sample.
func (r *Result) SpreadTimeline() []float64 {
	acc := &sim.SpreadAccumulator{KeepTimeline: true, Timeline: make([]float64, 0, len(r.Theta))}
	sim.Replay(r.Ts, r.Theta, acc)
	return acc.Timeline
}

// SecondMoment returns the variance of the lag distribution at sample k
// treating the (nonnegative) lag as a mass density — for a diffusing
// delay packet it grows as 2Dt, the textbook heat-kernel check.
func (r *Result) SecondMoment(k int, omegaBar float64) float64 {
	lag := r.Lag(k, omegaBar)
	var mass, mean float64
	for i, v := range lag {
		if v < 0 {
			v = 0
		}
		mass += v
		mean += v * r.Grid.X(i)
	}
	if mass <= 0 {
		return 0
	}
	mean /= mass
	var m2 float64
	for i, v := range lag {
		if v < 0 {
			v = 0
		}
		d := r.Grid.X(i) - mean
		m2 += v * d * d
	}
	return m2 / mass
}
