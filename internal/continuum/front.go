package continuum

import (
	"errors"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Front is a measured continuum wavefront: the per-sample position of
// the leading (rightmost) steep gradient, plus the fitted front motion —
// the continuum analogue of core.WaveFront.
type Front struct {
	// Ts are the sample times and Positions the per-sample front
	// positions (NaN where no gradient exceeded the threshold).
	Ts, Positions []float64
	// Detected counts samples with a detected front.
	Detected int
	// Velocity is the fitted d(position)/dt (signed; positive moves
	// toward larger x) and Speed its magnitude.
	Velocity, Speed float64
	// R2 is the goodness of the position-vs-time fit.
	R2 float64
}

// frontPosition returns the position of the rightmost forward pair whose
// gap magnitude |θ(x+a) − θ(x)| exceeds eps — the midpoint of the pair —
// or NaN when the field is everywhere flatter than eps. Forward pairs
// mirror Result.GradientField (no periodic wrap pair), so the tracker
// and the materialized gradient views agree on what counts as steep.
func frontPosition(g Grid, th []float64, eps float64) float64 {
	for i := len(th) - 2; i >= 0; i-- {
		if math.Abs(th[i+1]-th[i]) > eps {
			return g.X(i) + 0.5*g.A
		}
	}
	return math.NaN()
}

// FrontTimeline returns the per-sample front position of the result
// (NaN where no gap exceeds eps; 0 selects 0.15).
func (r *Result) FrontTimeline(eps float64) []float64 {
	f, _ := r.MeasureFront(eps)
	return f.Positions
}

// MeasureFront measures the computational wavefront of a materialized
// continuum result: per sample the rightmost steep forward pair
// (threshold eps; 0 selects 0.15), then a position-vs-time line fit. It
// replays the rows through a FrontTracker, the metric's one
// implementation.
func (r *Result) MeasureFront(eps float64) (Front, error) {
	tr := &FrontTracker{Grid: r.Grid, Eps: eps}
	sim.Replay(r.Ts, r.Theta, tr)
	return tr.Finish()
}

// FrontTracker measures the continuum wavefront online — the streaming
// counterpart of Result.MeasureFront, analogous to core.WaveDetector:
// each sample row is reduced to one front position as it streams by, so
// no trajectory is ever materialized. Memory is O(nSamples) scalars
// (two floats per sample), independent of the grid size M. Finish
// returns the Front that MeasureFront computes on the materialized run,
// bit for bit.
//
// The zero value tracks on a unit-spacing grid adopted from the stream
// width at Begin — the right reading for discrete families (one rank
// per spacing); set Grid explicitly to track in physical continuum
// coordinates.
type FrontTracker struct {
	// Grid is the spatial grid; a zero Grid adopts {M: n, A: 1} at Begin.
	Grid Grid
	// Eps is the gap threshold; 0 selects 0.15.
	Eps float64

	width   int
	ts, pos []float64
}

// Begin implements sim.Sink.
func (f *FrontTracker) Begin(n, nSamples int) {
	if f.Grid.M == 0 {
		f.Grid = Grid{M: n, A: 1}
	}
	f.width = n
	if cap(f.ts) < nSamples {
		f.ts = make([]float64, 0, nSamples)
		f.pos = make([]float64, 0, nSamples)
	}
	f.ts, f.pos = f.ts[:0], f.pos[:0]
}

// Sample implements sim.Sink.
func (f *FrontTracker) Sample(t float64, theta []float64) {
	eps := f.Eps
	if eps <= 0 {
		eps = 0.15
	}
	f.ts = append(f.ts, t)
	f.pos = append(f.pos, frontPosition(f.Grid, theta, eps))
}

// Finish fits the accumulated front positions against time and returns
// the Front (with the per-sample positions also on error).
func (f *FrontTracker) Finish() (Front, error) {
	if f.width != f.Grid.M {
		return Front{}, errors.New("continuum: stream width does not match tracker grid")
	}
	fr := Front{
		Ts:        append([]float64(nil), f.ts...),
		Positions: append([]float64(nil), f.pos...),
	}
	var xs, ys []float64
	for k, p := range fr.Positions {
		if math.IsNaN(p) {
			continue
		}
		xs = append(xs, fr.Ts[k])
		ys = append(ys, p)
		fr.Detected++
	}
	if len(xs) < 3 {
		return fr, errors.New("continuum: front detected in fewer than 3 samples")
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return fr, err
	}
	fr.Velocity = fit.Slope
	fr.Speed = math.Abs(fit.Slope)
	fr.R2 = fit.R2
	return fr, nil
}
