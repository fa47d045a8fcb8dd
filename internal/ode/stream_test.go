package ode

import (
	"math"
	"testing"
)

// rowCollector records every streamed row, copied, since the solver
// reuses the row buffer between calls.
type rowCollector struct {
	ts []float64
	ys [][]float64
}

func (c *rowCollector) sample(t float64, y []float64) {
	c.ts = append(c.ts, t)
	c.ys = append(c.ys, append([]float64(nil), y...))
}

// last returns the final streamed row.
func (c *rowCollector) last() []float64 { return c.ys[len(c.ys)-1] }

// sampleOpts returns options that stream the rows at the times ts into c.
func sampleOpts(c *rowCollector, ts ...float64) SolveOptions {
	return SolveOptions{
		SampleAt:   func(k int) float64 { return ts[k] },
		NSamples:   len(ts),
		SampleFunc: c.sample,
	}
}

// ddeOpts is sampleOpts for SolveDDE.
func ddeOpts(c *rowCollector, ts ...float64) DDEOptions {
	o := sampleOpts(c, ts...)
	return DDEOptions{SampleAt: o.SampleAt, NSamples: o.NSamples, SampleFunc: o.SampleFunc}
}

// solveTo integrates f over [t0, t1] with a one-point plan at t1 and
// returns the state there with the work statistics.
func solveTo(t *testing.T, s *DOPRI5, f Func, y0 []float64, t0, t1 float64) ([]float64, Stats) {
	t.Helper()
	var c rowCollector
	st, err := s.Solve(f, y0, t0, t1, sampleOpts(&c, t1))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ts) != 2 || c.ts[1] != t1 {
		t.Fatalf("one-point plan streamed times %v, want [%v %v]", c.ts, t0, t1)
	}
	return c.last(), st
}

// checkDenseRows asserts that rows are the dense output sampled at the
// plan: row 0 is y0 at t0, and each later row is bitwise the first
// retained segment reaching its time (the step that emitted it)
// evaluated there.
func checkDenseRows(t *testing.T, rows *rowCollector, segs []*DenseSegment, y0, plan []float64) {
	t.Helper()
	if len(rows.ts) != len(plan) {
		t.Fatalf("streamed %d rows, plan has %d times", len(rows.ts), len(plan))
	}
	for i := range y0 {
		if rows.ts[0] != plan[0] || rows.ys[0][i] != y0[i] {
			t.Fatalf("row 0 = (%v, %v), want (%v, %v)", rows.ts[0], rows.ys[0], plan[0], y0)
		}
	}
	j := 0
	for k := 1; k < len(plan); k++ {
		for plan[k] > segs[j].End()+1e-14 {
			j++
		}
		want := segs[j].Eval(plan[k], nil)
		if rows.ts[k] != plan[k] {
			t.Fatalf("row %d at t=%v, plan says %v", k, rows.ts[k], plan[k])
		}
		for i := range want {
			if math.Float64bits(rows.ys[k][i]) != math.Float64bits(want[i]) {
				t.Fatalf("row %d comp %d: streamed %v, dense output %v", k, i, rows.ys[k][i], want[i])
			}
		}
	}
}

// TestSolveSampleFuncMatchesMaterialized pins the streaming contract
// against the materialized dense output: every row handed to SampleFunc
// is bitwise the retained segment of its step evaluated at the planned
// time, and retaining segments (OnStep) changes neither the rows nor the
// work statistics.
func TestSolveSampleFuncMatchesMaterialized(t *testing.T) {
	// Mildly coupled nonlinear system: enough structure that any
	// divergence between the two runs would show.
	f := func(_ float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0] - 0.1*y[1]
		dydt[2] = math.Sin(y[0]) - 0.2*y[2]
	}
	y0 := []float64{1, 0, 0.5}
	plan := make([]float64, 101)
	for i := range plan {
		plan[i] = 10 * float64(i) / 100
	}

	var plain rowCollector
	stPlain, err := NewDOPRI5(1e-8, 1e-6).Solve(f, y0, 0, 10, sampleOpts(&plain, plan...))
	if err != nil {
		t.Fatal(err)
	}
	var kept rowCollector
	var segs []*DenseSegment
	opt := sampleOpts(&kept, plan...)
	opt.OnStep = func(seg *DenseSegment) { segs = append(segs, seg) }
	stKept, err := NewDOPRI5(1e-8, 1e-6).Solve(f, y0, 0, 10, opt)
	if err != nil {
		t.Fatal(err)
	}

	if stKept != stPlain {
		t.Errorf("stats diverged: with OnStep %v, without %v", stKept, stPlain)
	}
	checkDenseRows(t, &plain, segs, y0, plan)
	checkDenseRows(t, &kept, segs, y0, plan)
}

// TestSolveDDESampleFuncMatchesMaterialized is the delay-path
// counterpart: SolveDDE, which recycles segments through a pool and
// compacts its history, streams bitwise the rows of a hand-wired Solve
// whose History retains every segment.
func TestSolveDDESampleFuncMatchesMaterialized(t *testing.T) {
	const tau = 0.3
	f := func(t float64, y []float64, past Past, dydt []float64) {
		dydt[0] = -past.Eval(0, t-tau)
		dydt[1] = y[0] - 0.5*past.Eval(1, t-tau)
	}
	y0 := []float64{1, 0.2}
	plan := make([]float64, 81)
	for i := range plan {
		plan[i] = 8 * float64(i) / 80
	}

	var pooled rowCollector
	opts := ddeOpts(&pooled, plan...)
	opts.MaxDelay = tau
	stPooled, err := NewDOPRI5(1e-8, 1e-6).SolveDDE(f, y0, 0, 8, opts)
	if err != nil {
		t.Fatal(err)
	}

	var kept rowCollector
	hist := NewHistory(0, func(j int, _ float64) float64 { return y0[j] })
	opt := sampleOpts(&kept, plan...)
	opt.OnStep = hist.Push
	stKept, err := NewDOPRI5(1e-8, 1e-6).Solve(func(t float64, y, dydt []float64) { f(t, y, hist, dydt) }, y0, 0, 8, opt)
	if err != nil {
		t.Fatal(err)
	}

	if stPooled != stKept {
		t.Errorf("stats diverged: SolveDDE %v, hand-wired %v", stPooled, stKept)
	}
	checkDenseRows(t, &kept, hist.segs, y0, plan)
	checkDenseRows(t, &pooled, hist.segs, y0, plan)
}

// TestSolveSampleFuncSteadyStateAllocs checks the streaming path allocates
// nothing per sample beyond the solver's own step machinery: a no-op sink
// over many samples costs no more allocations than the sample count.
func TestSolveSampleFuncSteadyStateAllocs(t *testing.T) {
	f := func(_ float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0]
	}
	s := NewDOPRI5(1e-8, 1e-6)
	sink := func(float64, []float64) {}
	run := func() {
		if _, err := s.Solve(f, []float64{1, 0}, 0, 50, SolveOptions{
			SampleAt:   func(k int) float64 { return 50 * float64(k) / 10000 },
			NSamples:   10001,
			SampleFunc: sink,
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the solver buffers
	allocs := testing.AllocsPerRun(3, run)
	// Storing the ~10001 rows would cost an arena plus slice headers; the
	// streamed path must stay near zero.
	if allocs > 16 {
		t.Errorf("streaming solve allocated %v objects per run, want ~0", allocs)
	}
}
