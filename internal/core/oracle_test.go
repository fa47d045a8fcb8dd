package core

import (
	"errors"
	"math"

	"repro/internal/stats"
)

// The oracles below compute each materialized Result metric with a loop
// of its own over r.Ts and r.Theta, independent of the streaming sinks
// the production methods replay through: the bitwise streamed-vs-
// materialized pins compare each sink against an oracle, never against
// a replay of itself.

// oracleSpreadTimeline is the reference loop for Result.SpreadTimeline.
func oracleSpreadTimeline(r *Result) []float64 {
	out := make([]float64, len(r.Theta))
	for k, th := range r.Theta {
		out[k] = stats.PhaseSpread(th)
	}
	return out
}

// oracleOrderTimeline is the reference loop for Result.OrderTimeline.
func oracleOrderTimeline(r *Result) []float64 {
	out := make([]float64, len(r.Theta))
	for k, th := range r.Theta {
		out[k], _ = stats.OrderParameter(th)
	}
	return out
}

// oracleResyncTime is the reference loop for Result.ResyncTime.
func oracleResyncTime(r *Result, eps float64) (float64, error) {
	spread := oracleSpreadTimeline(r)
	idx := -1
	for k := len(spread) - 1; k >= 0; k-- {
		if spread[k] >= eps {
			break
		}
		idx = k
	}
	if idx < 0 {
		return 0, errors.New("core: system did not resynchronize")
	}
	return r.Ts[idx], nil
}

// oracleAsymptoticSpread is the reference loop for Result.AsymptoticSpread.
func oracleAsymptoticSpread(r *Result, finalFraction float64) float64 {
	n := len(r.Theta)
	if n == 0 {
		return 0
	}
	start := n - int(float64(n)*finalFraction)
	if start < 0 {
		start = 0
	}
	if start >= n {
		start = n - 1
	}
	spread := oracleSpreadTimeline(r)
	var sum float64
	for k := start; k < n; k++ {
		sum += spread[k]
	}
	return sum / float64(n-start)
}

// oracleAsymptoticGaps is the reference loop for Result.AsymptoticGaps.
func oracleAsymptoticGaps(r *Result, finalFraction float64) []float64 {
	n := len(r.Theta)
	if n == 0 {
		return nil
	}
	start := n - int(float64(n)*finalFraction)
	if start < 0 {
		start = 0
	}
	if start >= n {
		start = n - 1
	}
	// Derive the gap width from the sample rows themselves: a Result built
	// by hand or by a streaming adapter may carry no Model.
	width := len(r.Theta[0]) - 1
	if width < 0 {
		width = 0
	}
	gaps := make([]float64, width)
	for k := start; k < n; k++ {
		th := r.Theta[k]
		for i := 1; i < len(th) && i-1 < len(gaps); i++ {
			gaps[i-1] += th[i] - th[i-1]
		}
	}
	for i := range gaps {
		gaps[i] /= float64(n - start)
	}
	return gaps
}

// oracleMeasureWave is the reference loop for Result.MeasureWave.
func oracleMeasureWave(r *Result, origin int, delayStart float64, threshold float64) (WaveFront, error) {
	n := r.Model.cfg.N
	if origin < 0 || origin >= n {
		return WaveFront{}, errors.New("core: wave origin out of range")
	}
	if threshold <= 0 {
		threshold = 0.15
	}
	omega := r.Model.omega

	// Baseline lag right before the delay hits.
	k0 := 0
	for k, t := range r.Ts {
		if t >= delayStart {
			break
		}
		k0 = k
	}
	base := make([]float64, n)
	for i := 0; i < n; i++ {
		base[i] = omega*r.Ts[k0] - r.Theta[k0][i]
	}

	wf := WaveFront{Origin: origin, ArrivalTime: make([]float64, n)}
	for i := range wf.ArrivalTime {
		wf.ArrivalTime[i] = math.NaN()
	}
	for i := 0; i < n; i++ {
		for k := k0 + 1; k < len(r.Ts); k++ {
			lag := omega*r.Ts[k] - r.Theta[k][i]
			if lag-base[i] > threshold {
				wf.ArrivalTime[i] = r.Ts[k]
				break
			}
		}
	}

	var xs, ys []float64 // x: arrival time, y: distance from origin
	for i := 0; i < n; i++ {
		if math.IsNaN(wf.ArrivalTime[i]) || i == origin {
			continue
		}
		d := i - origin
		if d < 0 {
			d = -d
		}
		// On a ring the wave can travel both ways; use the shorter arc.
		if r.Model.cfg.Topology.Periodic && n-d < d {
			d = n - d
		}
		xs = append(xs, wf.ArrivalTime[i])
		ys = append(ys, float64(d))
		wf.Reached++
	}
	if len(xs) < 3 {
		return wf, errors.New("core: wave reached too few ranks to fit a speed")
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return wf, err
	}
	wf.Speed = math.Abs(fit.Slope)
	wf.SpeedRanksPerPeriod = wf.Speed * r.Model.period
	wf.R2 = fit.R2
	return wf, nil
}

// oracleFrequencyLocked is the reference loop for Result.FrequencyLocked.
func oracleFrequencyLocked(r *Result, finalFraction, tol float64) bool {
	n := len(r.Ts)
	if n < 3 {
		return false
	}
	start := n - int(float64(n)*finalFraction)
	if start < 0 {
		start = 0
	}
	if start >= n-1 {
		start = n - 2
	}
	dt := r.Ts[n-1] - r.Ts[start]
	if dt <= 0 {
		return false
	}
	freqs := make([]float64, r.Model.cfg.N)
	for i := range freqs {
		freqs[i] = (r.Theta[n-1][i] - r.Theta[start][i]) / dt
	}
	lo, hi := freqs[0], freqs[0]
	for _, f := range freqs[1:] {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	mid := (lo + hi) / 2
	if mid == 0 {
		return hi-lo == 0
	}
	return (hi-lo)/math.Abs(mid) <= tol
}
