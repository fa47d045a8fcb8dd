package sweep

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
	"repro/internal/kuramoto"
	"repro/internal/sim"
)

// kuramotoPoint archives one Kuramoto coupling-sweep point through the
// unified sim runtime: the trajectory rows stream into the record (the
// RecordWriter is a sim.Sink) while the shared accumulators reduce them
// to the standard metric vector. Deterministic in (i, params) only,
// which the bitwise resume pin relies on.
func kuramotoPoint(_ context.Context, _ int, params []float64, rec *archive.RecordWriter) error {
	m, err := kuramoto.New(kuramoto.Config{
		N: 12, K: params[0], FreqMean: 0, FreqStd: 1, Seed: 42, SpreadInitial: true,
	})
	if err != nil {
		return err
	}
	sum, err := sim.RunSummary(m, 6, 25, 0, 0, rec)
	if err != nil {
		return err
	}
	return rec.Finish(sum.Vector(), nil)
}

// kuramotoGen maps point i onto a coupling grid around the transition.
func kuramotoGen(i int) []float64 { return []float64{0.2 + 0.25*float64(i)} }

// TestRunArchiveKuramotoSmoke is the non-POM archive smoke test: a
// Kuramoto coupling sweep archives through the same RunArchive path the
// POM uses, and the records read back with trajectories and metrics.
func TestRunArchiveKuramotoSmoke(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	stats, err := RunArchive(context.Background(), dir, n, 3, kuramotoGen, kuramotoPoint)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived != n {
		t.Fatalf("stats = %+v", stats)
	}
	mustNoTmpFiles(t, dir)
	a, err := archive.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != n {
		t.Fatalf("archive holds %d points, want %d", a.Len(), n)
	}
	for i := 0; i < n; i++ {
		rec, err := a.Read(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Width != 12 || rec.NSamples() != 25 {
			t.Fatalf("record %d: width %d samples %d, want 12 x 25", i, rec.Width, rec.NSamples())
		}
		if rec.Params[0] != kuramotoGen(i)[0] {
			t.Fatalf("record %d params = %v", i, rec.Params)
		}
		if len(rec.Metrics) != 8 {
			t.Fatalf("record %d metrics = %v, want the 8-entry Summary vector", i, rec.Metrics)
		}
		// FinalOrder (layout index 3) is a valid order parameter.
		if r := rec.Metrics[3]; r < 0 || r > 1+1e-9 {
			t.Fatalf("record %d final order = %v", i, r)
		}
	}
}

// TestRunArchiveKuramotoResumeBitwise is the acceptance pin for the
// unified runtime: a sweep.RunArchive over a non-POM family, interrupted
// and resumed with different worker counts, reads back record-for-record
// bitwise-identical to an uninterrupted archive.
func TestRunArchiveKuramotoResumeBitwise(t *testing.T) {
	const n = 10
	interrupted := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := RunArchive(ctx, interrupted, n, 3, kuramotoGen,
		func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
			if ran.Add(1) == 4 {
				cancel()
			}
			return kuramotoPoint(ctx, i, params, rec)
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if _, err := RunArchive(context.Background(), interrupted, n, 2, kuramotoGen, kuramotoPoint); err != nil {
		t.Fatal(err)
	}

	clean := t.TempDir()
	if _, err := RunArchive(context.Background(), clean, n, 4, kuramotoGen, kuramotoPoint); err != nil {
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
			t.Fatalf("kuramoto record %d differs between resumed and uninterrupted archives", i)
		}
	}
}
