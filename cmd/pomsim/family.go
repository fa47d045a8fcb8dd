package main

import (
	"fmt"
	"math"

	"repro/internal/continuum"
	"repro/internal/core"
	"repro/internal/kuramoto"
	"repro/internal/potential"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// familyCLI is everything pomsim knows about one scenario family; the
// build, the streamed run and the archive record are shared by all.
type familyCLI struct {
	// params are the family's physical parameters, archived after the
	// common [dim, t_end, samples] prefix of the resolved run controls.
	params func(s *scenario.Spec) []float64
	// sinks returns the family's extra streaming sinks and a closure
	// printing their findings after the run; nil when it has none.
	sinks func(s *scenario.Spec, sys sim.System) ([]sim.Sink, func(), error)
	// report prints the summary lines of a streamed run.
	report func(r *streamed)
	// artifacts writes the files -svg DIR asks of a streamed run; nil
	// when the family has none. POM plots come from its materialized
	// run instead.
	artifacts func(s *scenario.Spec, sys sim.System, dir string) error
	// sigma and seed return the spec field -sweep-param sets; nil when
	// the family has no such parameter.
	sigma func(s *scenario.Spec) *float64
	seed  func(s *scenario.Spec) *uint64
}

// streamed is one finished streamed run, as the report lines see it.
type streamed struct {
	spec    *scenario.Spec
	sys     sim.System
	tEnd    float64
	samples int
	sum     *sim.Summary
}

// cliFamilies holds one entry per registered scenario family, keyed by
// the resolved family name.
var cliFamilies = map[string]familyCLI{
	"pom": {
		params: func(s *scenario.Spec) []float64 { return []float64{s.Potential.Sigma} },
		sinks:  waveSinks,
		report: func(r *streamed) {
			m := r.sys.(*core.Model)
			fmt.Printf("POM run (streaming): %s  N=%d potential=%s offsets=%v v_p=%.3g coupling=%.3g\n",
				r.spec.Name, r.spec.N, r.spec.Potential.Kind, r.spec.Offsets, m.Vp(), m.Coupling())
			fmt.Printf("solver: %s\n", r.sum.Stats)
			printSpread(r.sum)
			printResync(r.sum, "broken-symmetry state", stableZeroNote(r.spec))
		},
		sigma: func(s *scenario.Spec) *float64 { return &s.Potential.Sigma },
		seed:  func(s *scenario.Spec) *uint64 { return &s.PerturbSeed },
	},
	"kuramoto": {
		params: func(s *scenario.Spec) []float64 {
			k := s.Kuramoto
			return []float64{k.K, k.FreqMean, k.FreqStd, float64(k.Seed)}
		},
		sinks: func(s *scenario.Spec, _ sim.System) ([]sim.Sink, func(), error) {
			slips := &kuramoto.SlipCounter{}
			return []sim.Sink{slips}, func() {
				fmt.Printf("phase slips: %d   drifting oscillators: %d of %d\n",
					slips.Slips(), slips.Drifting(0.05), s.Kuramoto.N)
			}, nil
		},
		report: func(r *streamed) { reportUnified(r) },
		seed:   func(s *scenario.Spec) *uint64 { return &s.Kuramoto.Seed },
	},
	"continuum": {
		params: func(s *scenario.Spec) []float64 {
			c := s.Continuum
			return []float64{c.K, c.A, c.Potential.Sigma}
		},
		sinks: func(s *scenario.Spec, _ sim.System) ([]sim.Sink, func(), error) {
			c := s.Continuum
			tracker := &continuum.FrontTracker{
				Grid: continuum.Grid{M: c.M, A: c.A, Periodic: c.Periodic},
			}
			return []sim.Sink{tracker}, func() {
				fr, err := tracker.Finish()
				if err != nil {
					fmt.Println("continuum front: not detected")
					return
				}
				fmt.Printf("continuum front: velocity %+.4f x/time (R²=%.2f, detected in %d samples)\n",
					fr.Velocity, fr.R2, fr.Detected)
			}, nil
		},
		report: func(r *streamed) { reportUnified(r) },
		sigma:  func(s *scenario.Spec) *float64 { return &s.Continuum.Potential.Sigma },
	},
	"torus2d": {
		params: func(s *scenario.Spec) []float64 {
			t := s.Torus2D
			return []float64{float64(t.NX), float64(t.NY), float64(t.CouplingRadius()), t.Potential.Sigma}
		},
		report: func(r *streamed) { reportUnified(r) },
		sigma:  func(s *scenario.Spec) *float64 { return &s.Torus2D.Potential.Sigma },
		seed:   func(s *scenario.Spec) *uint64 { return &s.Torus2D.PerturbSeed },
	},
	"linstab": {
		params: func(s *scenario.Spec) []float64 {
			l := s.Linstab
			scanKind := 0.0 // 0 = gap scan, 1 = coupling scan
			if l.Scan == "coupling" {
				scanKind = 1
			}
			return []float64{l.From, l.To, float64(l.ScanPoints()),
				scanKind, l.Coupling(), l.Gap, l.Potential.Sigma}
		},
		sinks: func(s *scenario.Spec, _ sim.System) ([]sim.Sink, func(), error) {
			var last []float64
			sink := sim.SinkFunc(func(_ float64, y []float64) {
				last = append(last[:0], y...)
			})
			return []sim.Sink{sink}, func() {
				if len(last) == 0 {
					return
				}
				if s.Linstab.FullSpectrum {
					fmt.Printf("spectrum at scan end: λ_min %.4g … λ_max %.4g (%d eigenvalues)\n",
						last[0], last[len(last)-1], len(last))
					return
				}
				fmt.Printf("at scan end (u=%g): λ_max %.4g   unstable modes %d   zero modes %d\n",
					s.Linstab.To, last[0],
					int(math.Round(last[1])), int(math.Round(last[2])))
			}, nil
		},
		report: func(r *streamed) { reportUnified(r) },
		sigma:  func(s *scenario.Spec) *float64 { return &s.Linstab.Potential.Sigma },
	},
	"cluster": {
		params: func(s *scenario.Spec) []float64 {
			c := s.Cluster
			return []float64{float64(c.N), float64(c.Iters), c.MessageBytes()}
		},
		sinks: clusterMetrics,
		report: func(r *streamed) {
			reportUnified(r, fmt.Sprintf("iteration skew (spread/2π): asymptotic %.3f   max %.3f iterations\n",
				r.sum.AsymptoticSpread/(2*math.Pi), r.sum.MaxSpread/(2*math.Pi)))
		},
		artifacts: writeTraceArtifacts,
	},
}

// waveSinks measures the idle wave of every configured delay online,
// one core.WaveDetector per delay, and prints each fitted front.
func waveSinks(s *scenario.Spec, sys sim.System) ([]sim.Sink, func(), error) {
	sinks := make([]sim.Sink, 0, len(s.Delays))
	waves := make([]*core.WaveDetector, 0, len(s.Delays))
	for _, d := range s.Delays {
		det, err := core.NewWaveDetector(sys.(*core.Model), d.Rank, d.Start, 0.15)
		if err != nil {
			return nil, nil, err
		}
		waves = append(waves, det)
		sinks = append(sinks, det)
	}
	return sinks, func() {
		for i, det := range waves {
			if wf, err := det.Finish(); err == nil {
				printWave(s.Delays[i].Rank, wf)
			}
		}
	}, nil
}

// reportUnified prints the summary lines every non-POM family shares;
// extra lines go between the spread and the order parameter.
func reportUnified(r *streamed, extra ...string) {
	fmt.Printf("%s run (unified runtime, streaming): %s  dim=%d t_end=%g samples=%d\n",
		r.spec.Family, r.spec.Name, r.sys.Dim(), r.tEnd, r.samples)
	fmt.Printf("solver: %s\n", r.sum.Stats)
	printSpread(r.sum)
	for _, line := range extra {
		fmt.Print(line)
	}
	fmt.Printf("order parameter: final %.4f   min %.4f\n", r.sum.FinalOrder, r.sum.MinOrder)
	printResync(r.sum, "broken-symmetry or incoherent state", "")
}

func printSpread(sum *sim.Summary) {
	fmt.Printf("asymptotic spread: %.4f rad   max spread: %.4f rad\n",
		sum.AsymptoticSpread, sum.MaxSpread)
}

// printResync reports the resynchronization time, or the settled state
// and its mean adjacent gap (followed by note) when there was none.
func printResync(sum *sim.Summary, state, note string) {
	if sum.Resynced {
		fmt.Printf("resynchronized at t = %.2f\n", sum.ResyncTime)
		return
	}
	fmt.Printf("no resynchronization (%s)\n", state)
	fmt.Printf("mean |adjacent gap| = %.4f%s\n", sum.MeanAbsGap, note)
}

// stableZeroNote names the desync potential's stable gap 2σ/3, the
// value a measured mean gap is compared against; other potentials have
// none.
func stableZeroNote(s *scenario.Spec) string {
	if s.Potential.Kind != "desync" {
		return ""
	}
	return fmt.Sprintf(" (potential stable zero 2σ/3 = %.4f)", potential.NewDesync(s.Potential.Sigma).StableZero())
}

func printWave(rank int, wf core.WaveFront) {
	fmt.Printf("idle wave from rank %d: speed %.3f ranks/period (R²=%.2f, reached %d ranks)\n",
		rank, wf.SpeedRanksPerPeriod, wf.R2, wf.Reached)
}
