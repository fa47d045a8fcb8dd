// Familysweep: every model family, one runtime. The scenario registry
// builds POM, Kuramoto, and continuum specs into sim.Systems, and the
// same streaming / sweep / archive stack runs them all:
//
//  1. a Kuramoto coupling sweep streams through sweep.RunReduce with the
//     shared OrderAccumulator — the classic r∞(K) bifurcation diagram in
//     O(workers) memory,
//
//  2. the two continuum regimes (diffusive tanh vs. anti-diffusive
//     desync) summarize through the identical accumulator set,
//
//  3. the Kuramoto sweep is then archived with sweep.RunArchive — full
//     trajectories on disk, resumable after a crash, exactly like the
//     POM archives of examples/archivesweep.
//
//     go run ./examples/familysweep
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"repro/internal/archive"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	log.SetFlags(0)

	// --- 1. Kuramoto transition, streamed ------------------------------
	const points = 16
	ks := sweep.Grid1(0.2, 4.0, points)
	rinf := make([]float64, points)
	err := sweep.RunReduce(context.Background(), points, 4,
		func(i int) float64 { return ks[i] },
		func(_ context.Context, k float64) (float64, error) {
			spec := scenario.KuramotoScenario(120, k, 11)
			spec.TEnd, spec.Samples = 40, 201
			sys, tEnd, samples, err := spec.BuildSystem()
			if err != nil {
				return 0, err
			}
			order := &sim.OrderAccumulator{FinalFraction: 0.25}
			if _, err := sim.RunStream(sys, tEnd, samples, order); err != nil {
				return 0, err
			}
			return order.Asymptotic(), nil
		},
		func(i int, _ float64, r float64) { rinf[i] = r })
	if err != nil {
		log.Fatal(err)
	}
	kc := 1.0 * math.Sqrt(8/math.Pi) // σ = 1
	fmt.Printf("Kuramoto transition (N=120, K_c ≈ %.2f):\n", kc)
	for i, k := range ks {
		bar := strings.Repeat("#", int(40*rinf[i]))
		fmt.Printf("  K=%4.2f  r∞=%.3f %s\n", k, rinf[i], bar)
	}

	// --- 2. continuum regimes, same accumulators -----------------------
	fmt.Println("\ncontinuum limit (M=96 field, lag pulse):")
	for _, c := range []struct {
		label string
		pot   scenario.PotentialSpec
	}{
		{"tanh (diffusive)", scenario.PotentialSpec{Kind: "tanh"}},
		{"desync σ=1.5 (anti-diffusive)", scenario.PotentialSpec{Kind: "desync", Sigma: 1.5}},
	} {
		spec := scenario.ContinuumScenario(96, 2, c.pot)
		spec.TEnd, spec.Samples = 150, 301
		sys, tEnd, samples, err := spec.BuildSystem()
		if err != nil {
			log.Fatal(err)
		}
		sum, err := sim.RunSummary(sys, tEnd, samples, 0.1, 0.15)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-30s spread %6.3f → %6.3f rad, mean |gradient| %.3f\n",
			c.label, sum.MaxSpread, sum.AsymptoticSpread, sum.MeanAbsGap)
	}

	// --- 3. archive the Kuramoto sweep ---------------------------------
	dir, err := os.MkdirTemp("", "familysweep-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	stats, err := sweep.RunArchive(context.Background(), dir, points, 4,
		func(i int) []float64 { return []float64{ks[i]} },
		func(_ context.Context, i int, params []float64, rec *archive.RecordWriter) error {
			spec := scenario.KuramotoScenario(120, params[0], 11)
			spec.TEnd, spec.Samples = 40, 201
			sys, tEnd, samples, err := spec.BuildSystem()
			if err != nil {
				return err
			}
			sum, err := sim.RunSummary(sys, tEnd, samples, 0.1, 0.15, rec)
			if err != nil {
				return err
			}
			return rec.Finish(sum.Vector(), nil)
		})
	if err != nil {
		log.Fatal(err)
	}
	a, err := archive.OpenDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = a.Close() }() // read-only close
	var bytesTotal int64
	for _, s := range a.Shards() {
		bytesTotal += s.Size()
	}
	fmt.Printf("\narchived the Kuramoto sweep: %d points in %d shards, %d bytes — "+
		"full trajectories, resumable like any POM archive\n",
		stats.Archived, stats.Shards, bytesTotal)
	rec, err := a.Read(uint64(points - 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back point %d: K=%.2f, %d rows × %d oscillators, final r=%.3f\n",
		rec.Index, rec.Params[0], rec.NSamples(), rec.Width, rec.Metrics[3])
}
