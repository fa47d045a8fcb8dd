package sweep

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// specPoint archives one scenario-built point: the spec (parameterized
// by params[0]) builds through the family registry, streams through the
// shared accumulators, and lands in the record. Deterministic in
// (i, params) only — the bitwise resume property.
func specPoint(mk func(p float64) *scenario.Spec) ArchivePointFunc {
	return func(_ context.Context, _ int, params []float64, rec *archive.RecordWriter) error {
		sys, tEnd, nSamples, err := mk(params[0]).BuildSystem()
		if err != nil {
			return err
		}
		sum, err := sim.RunSummary(sys, tEnd, nSamples, 0, 0, rec)
		if err != nil {
			return err
		}
		return rec.Finish(sum.Vector(), nil)
	}
}

// newFamilyCases returns one archive-sweep setup per PR-5 family:
// torus2d sweeps the desync horizon, linstab the scan endpoint, cluster
// the injected delay. Every spec is small enough to keep the three
// interrupted+clean sweeps fast.
func newFamilyCases() map[string]struct {
	gen func(i int) []float64
	mk  func(p float64) *scenario.Spec
} {
	return map[string]struct {
		gen func(i int) []float64
		mk  func(p float64) *scenario.Spec
	}{
		"torus2d": {
			gen: func(i int) []float64 { return []float64{1.0 + 0.05*float64(i)} },
			mk: func(p float64) *scenario.Spec {
				s := scenario.Torus2DScenario(4, 3, p)
				s.TEnd = 5
				s.Samples = 9
				return s
			},
		},
		"linstab": {
			gen: func(i int) []float64 { return []float64{0.5 + 0.25*float64(i)} },
			mk: func(p float64) *scenario.Spec {
				s := scenario.LinstabScenario(8, 1.5)
				s.Linstab.To = p
				s.Linstab.Points = 5
				s.Samples = 9
				return s
			},
		},
		"cluster": {
			gen: func(i int) []float64 { return []float64{0.1 + 0.05*float64(i)} },
			mk: func(p float64) *scenario.Spec {
				s := scenario.ClusterScenario(6, 6)
				s.Cluster.Delays[0].Extra = p
				s.Samples = 9 // t_end 0: each point adopts its makespan
				return s
			},
		},
	}
}

// TestRunArchiveNewFamiliesSmoke archives a small sweep per new family
// and reads every record back: rows and the 8-entry metric vector are
// present and the params round-trip.
func TestRunArchiveNewFamiliesSmoke(t *testing.T) {
	for name, tc := range newFamilyCases() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			const n = 4
			stats, err := RunArchive(context.Background(), dir, n, 2, tc.gen, specPoint(tc.mk))
			if err != nil {
				t.Fatal(err)
			}
			if stats.Archived != n {
				t.Fatalf("stats = %+v", stats)
			}
			a, err := archive.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			for i := 0; i < n; i++ {
				rec, err := a.Read(uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				if rec.NSamples() != 9 {
					t.Fatalf("record %d: %d samples, want 9", i, rec.NSamples())
				}
				if rec.Params[0] != tc.gen(i)[0] {
					t.Fatalf("record %d params = %v", i, rec.Params)
				}
				if len(rec.Metrics) != 8 {
					t.Fatalf("record %d metrics = %v", i, rec.Metrics)
				}
			}
		})
	}
}

// TestRunArchiveNewFamiliesResumeBitwise is the acceptance pin for the
// three new families: a sweep interrupted mid-flight and resumed with a
// different worker count reads back record-for-record bitwise-identical
// to an uninterrupted archive — streaming, archiving, and resume come
// with the registry for free.
func TestRunArchiveNewFamiliesResumeBitwise(t *testing.T) {
	for name, tc := range newFamilyCases() {
		t.Run(name, func(t *testing.T) {
			const n = 6
			point := specPoint(tc.mk)

			interrupted := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			_, err := RunArchive(ctx, interrupted, n, 2, tc.gen,
				func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
					if ran.Add(1) == 3 {
						cancel()
					}
					return point(ctx, i, params, rec)
				})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
			}
			if _, err := RunArchive(context.Background(), interrupted, n, 3, tc.gen, point); err != nil {
				t.Fatal(err)
			}

			clean := t.TempDir()
			if _, err := RunArchive(context.Background(), clean, n, 4, tc.gen, point); err != nil {
				t.Fatal(err)
			}

			ai, err := archive.OpenDir(interrupted)
			if err != nil {
				t.Fatal(err)
			}
			defer ai.Close()
			ac, err := archive.OpenDir(clean)
			if err != nil {
				t.Fatal(err)
			}
			defer ac.Close()
			if ai.Len() != n || ac.Len() != n {
				t.Fatalf("archives hold %d / %d points, want %d", ai.Len(), ac.Len(), n)
			}
			for i := 0; i < n; i++ {
				pi, err1 := ai.ReadRaw(uint64(i))
				pc, err2 := ac.ReadRaw(uint64(i))
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if !bytes.Equal(pi, pc) {
					t.Fatalf("%s record %d differs between resumed and uninterrupted archives", name, i)
				}
			}
		})
	}
}
