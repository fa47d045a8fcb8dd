package sim

import (
	"errors"
	"fmt"

	"repro/internal/ode"
)

// System is the common runtime contract of a dynamical model family: a
// fixed-dimension state, an initial condition, and a right-hand side.
// A System is integrated by Run or RunStream; it is not required to be
// safe for concurrent use (sweeps build one System per point).
type System interface {
	// Dim returns the state dimension N.
	Dim() int
	// InitialState returns y(0). The runtime copies it before integrating,
	// so implementations may return an internal slice.
	InitialState() []float64
	// Eval writes the right-hand side dy/dt at (t, y) into dydt. Both
	// slices have length Dim; implementations must not retain them.
	Eval(t float64, y, dydt []float64)
}

// Delayed is implemented by systems whose right-hand side reads the
// solution history (delay differential equations). When MaxDelay returns
// a positive value the runtime integrates with the DDE driver and calls
// EvalDelayed instead of Eval.
type Delayed interface {
	System
	// MaxDelay bounds the largest delay the right-hand side will request;
	// 0 or negative selects the plain ODE path.
	MaxDelay() float64
	// EvalDelayed is Eval with access to the dense-output history.
	EvalDelayed(t float64, y []float64, past ode.Past, dydt []float64)
}

// Solver carries the per-system solver settings.
type Solver struct {
	// Atol and Rtol are the error tolerances; 0 selects 1e-8 / 1e-6.
	Atol, Rtol float64
	// Hmax caps the step size; 0 means no cap beyond the interval.
	Hmax float64
}

// Tuned is implemented by systems that override the default solver
// settings (the POM caps the step at a quarter period so piecewise-
// constant noise cells are never stepped over).
type Tuned interface {
	Solver() Solver
}

// Releaser is implemented by systems that hold resources — worker pools,
// scratch arenas — which should be returned when an integration finishes.
// Run and RunStream call Release exactly once per invocation, on success
// and on error alike, so a System dropped after a run leaks nothing even
// without an explicit close (sweeps build thousands of systems).
type Releaser interface {
	Release()
}

// Result is a completed, materialized integration: the trajectory rows
// plus the solver work statistics.
type Result struct {
	// Ts are the sample times.
	Ts []float64
	// Ys[k] is the state at Ts[k].
	Ys [][]float64
	// Stats reports the solver work.
	Stats ode.Stats
}

// Run integrates the system from t = 0 to tEnd, materializing nSamples
// uniform samples (both endpoints included). It is RunStream into a
// collecting sink, so its rows are the streamed rows.
func Run(sys System, tEnd float64, nSamples int) (*Result, error) {
	c := &collector{}
	stats, err := RunStream(sys, tEnd, nSamples, c)
	if err != nil {
		return nil, err
	}
	c.Stats = stats
	return &c.Result, nil
}

// collector is the Sink behind Run: Begin sizes one arena for every row,
// and each Sample copies its row into the next slot.
type collector struct {
	Result
	arena []float64
}

// Begin implements Sink.
func (c *collector) Begin(n, nSamples int) {
	c.arena = make([]float64, n*nSamples)
	c.Ts = make([]float64, 0, nSamples)
	c.Ys = make([][]float64, 0, nSamples)
}

// Sample implements Sink.
func (c *collector) Sample(t float64, y []float64) {
	row := c.arena[:len(y):len(y)]
	c.arena = c.arena[len(y):]
	copy(row, y)
	c.Ts = append(c.Ts, t)
	c.Ys = append(c.Ys, row)
}

// release returns the system's resources if it participates in the
// Releaser contract.
func release(sys System) {
	if r, ok := sys.(Releaser); ok {
		r.Release()
	}
}

// RunStream integrates the system from t = 0 to tEnd and emits nSamples
// uniform sample rows (both endpoints included) to sink as they are
// produced, from reused buffers: the run's memory is independent of
// nSamples, which is what makes million-point sweeps with per-point
// trajectories feasible.
func RunStream(sys System, tEnd float64, nSamples int, sink Sink) (ode.Stats, error) {
	// Registered before any validation: the Releaser contract promises a
	// Release per invocation on every path, including argument errors — a
	// pooled system rejected by a bad tEnd inside a sweep loop must not
	// leak its worker goroutines.
	defer release(sys)
	if sink == nil {
		return ode.Stats{}, errors.New("sim: nil sink")
	}
	if tEnd <= 0 {
		return ode.Stats{}, errors.New("sim: tEnd must be positive")
	}
	if nSamples < 2 {
		nSamples = 2
	}
	sink.Begin(sys.Dim(), nSamples)
	var sv Solver
	if t, ok := sys.(Tuned); ok {
		sv = t.Solver()
	}
	if sv.Atol == 0 {
		sv.Atol = 1e-8
	}
	if sv.Rtol == 0 {
		sv.Rtol = 1e-6
	}
	solver := ode.NewDOPRI5(sv.Atol, sv.Rtol)
	solver.Hmax = sv.Hmax
	// The uniform plan is evaluated lazily, bit for bit the times
	// mathx.Linspace(0, tEnd, nSamples) would hold.
	step := tEnd / float64(nSamples-1)
	last := nSamples - 1
	sampleAt := func(k int) float64 {
		if k == last {
			return tEnd // avoid accumulated rounding, like Linspace
		}
		return float64(k) * step
	}
	y0 := append([]float64(nil), sys.InitialState()...)
	if len(y0) != sys.Dim() {
		return ode.Stats{}, fmt.Errorf("sim: initial state has %d entries, system dimension is %d", len(y0), sys.Dim())
	}

	var stats ode.Stats
	var err error
	if d, ok := sys.(Delayed); ok && d.MaxDelay() > 0 {
		stats, err = solver.SolveDDE(d.EvalDelayed, y0, 0, tEnd, ode.DDEOptions{
			SampleAt: sampleAt, NSamples: nSamples, SampleFunc: sink.Sample,
			MaxDelay: d.MaxDelay(),
		})
	} else {
		stats, err = solver.Solve(sys.Eval, y0, 0, tEnd, ode.SolveOptions{
			SampleAt: sampleAt, NSamples: nSamples, SampleFunc: sink.Sample,
		})
	}
	if err != nil {
		return ode.Stats{}, fmt.Errorf("sim: integration failed: %w", err)
	}
	return stats, nil
}
