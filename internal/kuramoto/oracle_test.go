package kuramoto

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/stats"
)

// The oracles below compute the materialized Result metrics with loops
// of their own, independent of the streaming sinks the production
// methods replay through: the bitwise streamed-vs-materialized pins
// compare each sink against an oracle, never against a replay of
// itself.

// oracleAsymptoticOrder is the reference loop for
// Result.AsymptoticOrder.
func oracleAsymptoticOrder(r *Result, finalFraction float64) float64 {
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
	var sum float64
	for k := start; k < n; k++ {
		rk, _ := stats.OrderParameter(r.Theta[k])
		sum += rk
	}
	return sum / float64(n-start)
}

// countSlipsRows is the reference loop for Result.PhaseSlips: for each
// oscillator, the drift-corrected phase increment (θ_i(t_k) − θ_i(t_{k−1})) −
// (θ̄(t_k) − θ̄(t_{k−1})) is accumulated, and every excursion past 2π
// counts one slip and resets the accumulator.
func countSlipsRows(rows [][]float64) int {
	if len(rows) == 0 {
		return 0
	}
	// The ensemble means are oscillator-independent; hoisting them out of
	// the per-oscillator loop is bitwise-neutral (same values, same
	// per-oscillator accumulation order) and turns the pass from
	// O(n²·samples) into O(n·samples).
	means := make([]float64, len(rows))
	for k, row := range rows {
		means[k] = mathx.Mean(row)
	}
	n := len(rows[0])
	slips := 0
	for i := 0; i < n; i++ {
		var acc float64
		prev := rows[0][i]
		for k := 1; k < len(rows); k++ {
			cur := rows[k][i]
			acc += (cur - prev) - (means[k] - means[k-1])
			if math.Abs(acc) >= mathx.TwoPi {
				slips++
				acc = 0
			}
			prev = cur
		}
	}
	return slips
}
