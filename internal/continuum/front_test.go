package continuum

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// frontField builds a desynchronizing field with a pulse seed: the
// anti-diffusive regime where a sharpening front actually develops.
func frontField() (*Field, []float64) {
	f := &Field{
		Grid:      Grid{M: 64, A: 1},
		Potential: potential.NewDesync(1.2),
		K:         2,
	}
	theta0 := make([]float64, 64)
	for i := range theta0 {
		d := (f.Grid.X(i) - 20) / 3
		theta0[i] = -2 * math.Exp(-d*d)
	}
	return f, theta0
}

// measureFrontRows is the reference front measurement the tracker is
// pinned against bitwise: per row the rightmost steep forward pair
// (threshold eps; 0 selects 0.15), then a position-vs-time line fit,
// written out independently of FrontTracker.
func measureFrontRows(g Grid, ts []float64, rows [][]float64, eps float64) (Front, error) {
	if eps <= 0 {
		eps = 0.15
	}
	f := Front{Ts: append([]float64(nil), ts...), Positions: make([]float64, len(rows))}
	var xs, ys []float64
	for k, th := range rows {
		f.Positions[k] = frontPosition(g, th, eps)
		if !math.IsNaN(f.Positions[k]) {
			xs = append(xs, ts[k])
			ys = append(ys, f.Positions[k])
			f.Detected++
		}
	}
	if len(xs) < 3 {
		return f, errors.New("continuum: front detected in fewer than 3 samples")
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return f, err
	}
	f.Velocity, f.Speed, f.R2 = fit.Slope, math.Abs(fit.Slope), fit.R2
	return f, nil
}

// streamField integrates f from theta0 through sim.RunStream into sink.
func streamField(t *testing.T, f *Field, theta0 []float64, tEnd float64, nSamples int, sink sim.Sink) {
	t.Helper()
	sys, err := f.System(theta0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunStream(sys, tEnd, nSamples, sink); err != nil {
		t.Fatal(err)
	}
}

// TestFrontTrackerMatchesMeasureFront is the bitwise pin of the
// streaming tracker, and of Result.MeasureFront replaying through it,
// against the reference rows loop on a continuum run: same per-sample
// positions, same fit, bit for bit.
func TestFrontTrackerMatchesMeasureFront(t *testing.T) {
	const tEnd, nSamples, eps = 30.0, 121, 0.15
	f, theta0 := frontField()

	res, err := f.Solve(theta0, tEnd, nSamples)
	if err != nil {
		t.Fatal(err)
	}
	want, err := measureFrontRows(f.Grid, res.Ts, res.Theta, eps)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := res.MeasureFront(eps)
	if err != nil {
		t.Fatal(err)
	}

	tracker := &FrontTracker{Grid: f.Grid, Eps: eps}
	streamField(t, f, theta0, tEnd, nSamples, tracker)
	got, err := tracker.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if got.Detected != want.Detected || got.Detected < 3 {
		t.Fatalf("detected %d vs %d (need >= 3)", got.Detected, want.Detected)
	}
	if len(got.Positions) != len(want.Positions) {
		t.Fatalf("positions length %d vs %d", len(got.Positions), len(want.Positions))
	}
	for k := range want.Positions {
		if math.Float64bits(got.Positions[k]) != math.Float64bits(want.Positions[k]) ||
			math.Float64bits(replayed.Positions[k]) != math.Float64bits(want.Positions[k]) {
			t.Fatalf("position %d: streamed %v, replayed %v, reference %v",
				k, got.Positions[k], replayed.Positions[k], want.Positions[k])
		}
	}
	for name, v := range map[string][3]float64{
		"velocity": {got.Velocity, replayed.Velocity, want.Velocity},
		"speed":    {got.Speed, replayed.Speed, want.Speed},
		"r2":       {got.R2, replayed.R2, want.R2},
	} {
		if math.Float64bits(v[0]) != math.Float64bits(v[2]) || math.Float64bits(v[1]) != math.Float64bits(v[2]) {
			t.Errorf("%s: streamed %v, replayed %v, reference %v", name, v[0], v[1], v[2])
		}
	}
	if replayed.Detected != want.Detected {
		t.Errorf("replayed detected %d vs %d", replayed.Detected, want.Detected)
	}
	// The timeline view agrees with the fitted positions.
	tl := res.FrontTimeline(eps)
	for k := range tl {
		if math.Float64bits(tl[k]) != math.Float64bits(want.Positions[k]) {
			t.Fatalf("FrontTimeline diverges at %d", k)
		}
	}
}

// TestFrontTrackerFlatField checks the no-front path: a flat field never
// crosses the threshold and Finish reports a clean error.
func TestFrontTrackerFlatField(t *testing.T) {
	f := &Field{Grid: Grid{M: 16, A: 1}, Potential: potential.Tanh{}, K: 1}
	tracker := &FrontTracker{Grid: f.Grid}
	streamField(t, f, make([]float64, 16), 5, 21, tracker)
	if _, err := tracker.Finish(); err == nil {
		t.Error("flat field: want a too-few-samples error")
	}
}

// frontPOMConfig builds a POM chain with a one-off delay: the launched
// idle wave is the moving steep-gap structure the tracker follows.
func frontPOMConfig(t *testing.T, dde bool, workers int) core.Config {
	t.Helper()
	tp, err := topology.NextNeighbor(32, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		N:          32,
		TComp:      0.8,
		TComm:      0.2,
		Potential:  potential.Tanh{},
		Topology:   tp,
		LocalNoise: noise.Delay{Rank: 0, Start: 10, Duration: 2, Extra: 100},
		Workers:    workers,
	}
	if dde {
		cfg.InteractionNoise = noise.ConstantLag{Lag: 0.05}
	}
	return cfg
}

// TestFrontTrackerMatchesRowsPOM pins the tracker across families and
// solver paths: for a POM idle wave at Workers = 1 and 4, ODE and DDE,
// the streamed Front equals measureFrontRows over the materialized rows
// on the unit-spacing grid (one rank per lattice site).
func TestFrontTrackerMatchesRowsPOM(t *testing.T) {
	const tEnd, nSamples, eps = 60.0, 241, 0.15
	for _, tc := range []struct {
		name    string
		dde     bool
		workers int
	}{
		{"ode/workers1", false, 1},
		{"ode/workers4", false, 4},
		{"dde/workers1", true, 1},
		{"dde/workers4", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mMat, err := core.New(frontPOMConfig(t, tc.dde, tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			res, err := mMat.Run(tEnd, nSamples)
			if err != nil {
				t.Fatal(err)
			}
			g := Grid{M: 32, A: 1}
			want, wantErr := measureFrontRows(g, res.Ts, res.Theta, eps)

			mStr, err := core.New(frontPOMConfig(t, tc.dde, tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			tracker := &FrontTracker{Grid: g, Eps: eps}
			if _, err := sim.RunStream(mStr, tEnd, nSamples, tracker); err != nil {
				t.Fatal(err)
			}
			got, gotErr := tracker.Finish()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: rows %v, streamed %v", wantErr, gotErr)
			}
			if wantErr != nil {
				t.Fatalf("POM wave not detected: %v", wantErr)
			}
			if got.Detected != want.Detected || got.Detected < 3 {
				t.Fatalf("detected %d vs %d", got.Detected, want.Detected)
			}
			for k := range want.Positions {
				if math.Float64bits(got.Positions[k]) != math.Float64bits(want.Positions[k]) {
					t.Fatalf("position %d: %v vs %v", k, got.Positions[k], want.Positions[k])
				}
			}
			if math.Float64bits(got.Speed) != math.Float64bits(want.Speed) ||
				math.Float64bits(got.R2) != math.Float64bits(want.R2) {
				t.Fatalf("fit differs: speed %v vs %v, r2 %v vs %v",
					got.Speed, want.Speed, got.R2, want.R2)
			}
		})
	}
}

// TestFrontTrackerZeroValueAdoptsUnitGrid checks the zero-value
// convenience: Begin adopts a unit-spacing grid of the stream width.
func TestFrontTrackerZeroValueAdoptsUnitGrid(t *testing.T) {
	f, theta0 := frontField()
	tracker := &FrontTracker{}
	streamField(t, f, theta0, 10, 41, tracker)
	if tracker.Grid.M != 64 || tracker.Grid.A != 1 {
		t.Fatalf("adopted grid %+v", tracker.Grid)
	}
	if _, err := tracker.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}
