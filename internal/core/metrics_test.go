package core

import (
	"math"
	"testing"
)

// sameBits reports whether two floats are bitwise identical (NaN payloads
// included).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestMaterializedMetricsMatchOracles pins every materialized Result
// metric (a replay through its streaming sink) bit for bit against its
// oracle loop, error texts included — across the window edges: finalFraction 0 (the
// materialized shortest window, not the accumulators' default), negative,
// exactly 1, and above 1, on the full run and on truncations to zero,
// one, two and three samples.
func TestMaterializedMetricsMatchOracles(t *testing.T) {
	m, err := New(streamCase(t, false, 1))
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.Run(60, 121)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 2, 3, len(full.Ts)} {
		res := &Result{Ts: full.Ts[:k], Theta: full.Theta[:k], Model: full.Model}
		for _, ff := range []float64{0, -0.5, 1, 1.5, 0.15} {
			if got, want := res.AsymptoticSpread(ff), oracleAsymptoticSpread(res, ff); !sameBits(got, want) {
				t.Errorf("samples=%d ff=%v: AsymptoticSpread %v, oracle %v", k, ff, got, want)
			}
			got, want := res.AsymptoticGaps(ff), oracleAsymptoticGaps(res, ff)
			if len(got) != len(want) {
				t.Fatalf("samples=%d ff=%v: AsymptoticGaps width %d, oracle %d", k, ff, len(got), len(want))
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Errorf("samples=%d ff=%v: gap[%d] %v, oracle %v", k, ff, i, got[i], want[i])
				}
			}
			for _, tol := range []float64{1e-6, 1e-2, 10} {
				if got, want := res.FrequencyLocked(ff, tol), oracleFrequencyLocked(res, ff, tol); got != want {
					t.Errorf("samples=%d ff=%v tol=%v: FrequencyLocked %v, oracle %v", k, ff, tol, got, want)
				}
			}
		}
		for _, eps := range []float64{0.1, 100} {
			got, gotErr := res.ResyncTime(eps)
			want, wantErr := oracleResyncTime(res, eps)
			if !sameBits(got, want) || (gotErr == nil) != (wantErr == nil) {
				t.Errorf("samples=%d eps=%v: ResyncTime (%v, %v), oracle (%v, %v)", k, eps, got, gotErr, want, wantErr)
			}
			if gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Errorf("samples=%d: ResyncTime error %q, oracle %q", k, gotErr, wantErr)
			}
		}
		for name, pair := range map[string][2][]float64{
			"spread": {res.SpreadTimeline(), oracleSpreadTimeline(res)},
			"order":  {res.OrderTimeline(), oracleOrderTimeline(res)},
		} {
			got, want := pair[0], pair[1]
			if len(got) != len(want) {
				t.Fatalf("samples=%d: %s timeline length %d, oracle %d", k, name, len(got), len(want))
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Errorf("samples=%d: %s[%d] %v, oracle %v", k, name, i, got[i], want[i])
				}
			}
		}
	}

	got, gotErr := full.MeasureWave(3, 10, 0.15)
	want, wantErr := oracleMeasureWave(full, 3, 10, 0.15)
	if (gotErr == nil) != (wantErr == nil) || got.Reached != want.Reached ||
		!sameBits(got.Speed, want.Speed) || !sameBits(got.R2, want.R2) ||
		!sameBits(got.SpeedRanksPerPeriod, want.SpeedRanksPerPeriod) {
		t.Errorf("MeasureWave (%+v, %v), oracle (%+v, %v)", got, gotErr, want, wantErr)
	}
	for i := range want.ArrivalTime {
		if !sameBits(got.ArrivalTime[i], want.ArrivalTime[i]) {
			t.Errorf("arrival[%d] %v, oracle %v", i, got.ArrivalTime[i], want.ArrivalTime[i])
		}
	}
}

// TestMeasureWaveNoSamples is the regression test for the index-out-of-
// range panic: MeasureWave on a result with no samples must return an
// error, as the streaming WaveDetector does.
func TestMeasureWaveNoSamples(t *testing.T) {
	m, err := New(baseConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Result{Model: m}).MeasureWave(2, 1, 0); err == nil {
		t.Error("want error for a result with no samples")
	}
}

// TestFrequencyLockedNilModel is the regression test for the nil-Model
// dereference: a hand-built Result (no Model attached) must take the
// oscillator count from its sample rows.
func TestFrequencyLockedNilModel(t *testing.T) {
	ts := []float64{0, 1, 2, 3}
	locked := &Result{Ts: ts, Theta: [][]float64{{0, 5}, {1, 6}, {2, 7}, {3, 8}}}
	if !locked.FrequencyLocked(0.5, 1e-9) {
		t.Error("equal mean frequencies must report locked")
	}
	drifting := &Result{Ts: ts, Theta: [][]float64{{0, 0}, {1, 2}, {2, 4}, {3, 6}}}
	if drifting.FrequencyLocked(0.5, 1e-2) {
		t.Error("frequencies 1 and 2 must not report locked")
	}
}
