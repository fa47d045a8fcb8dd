package dsweep

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/failpoint"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// mergeOracle is the merge loop MergeWith replaced: every record is
// decoded with Read and re-encoded with Append. MergeWith must produce
// the same files byte for byte.
func mergeOracle(t *testing.T, srcDir, dstDir string, perShard int, codec archive.Codec) {
	t.Helper()
	src, err := archive.OpenDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	indices := src.Indices()
	for shard, lo := 0, 0; lo < len(indices); shard, lo = shard+1, lo+perShard {
		w, err := archive.CreateWith(dstDir, shard, codec)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range indices[lo:min(lo+perShard, len(indices))] {
			rec, err := src.Read(idx)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// mixedRecord builds a deterministic record; every third one carries an
// embedded trace.
func mixedRecord(i uint64) *archive.Record {
	rec := &archive.Record{
		Index:   i,
		Params:  []float64{float64(i), 0.25},
		Width:   3,
		Metrics: []float64{1.5 * float64(i)},
	}
	for k := 0; k < 6; k++ {
		rec.Ts = append(rec.Ts, 0.5*float64(k))
		for c := 0; c < rec.Width; c++ {
			rec.Samples = append(rec.Samples, math.Sin(float64(i)+0.1*float64(k*rec.Width+c)))
		}
	}
	if i%3 == 0 {
		tr := trace.NewTrace(2)
		tr.Record(0, trace.SpanCompute, 0, 1)
		tr.Record(1, trace.SpanComm, 0.5, 2+float64(i))
		tr.MarkIterEnd(0, 1)
		rec.Trace = tr
	}
	return rec
}

// TestMergeMixedGenerationsMatchesOracle merges source directories that
// mix every record generation — the committed POMARC1 fixtures next to
// raw- and delta-codec POMARC2 shards, with interleaved point indices
// and embedded traces — into both output codecs. Copy moves some
// records and re-encodes the rest; the result must match the
// decode + re-encode oracle file for file.
func TestMergeMixedGenerationsMatchesOracle(t *testing.T) {
	// Fixtures whose point indices overlap cannot share a directory.
	groups := []struct {
		fixtures []string
		next     uint64 // first point index after the fixtures'
	}{
		{[]string{"canonical", "mixed"}, 12},
		{[]string{"roundtrip"}, 25},
		{[]string{"small"}, 3},
	}
	for _, g := range groups {
		t.Run(g.fixtures[0], func(t *testing.T) {
			src := t.TempDir()
			shard := 0
			for _, name := range g.fixtures {
				data, err := os.ReadFile(filepath.Join("..", "archive", "testdata", "v1-"+name+".pom"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(archive.ShardPath(src, shard), data, 0o644); err != nil {
					t.Fatal(err)
				}
				shard++
			}
			// Raw and delta shards take alternate points, so the merged
			// output interleaves them with each other.
			for parity, codec := range []archive.Codec{archive.CodecRaw, archive.CodecDelta} {
				for part := 0; part < 2; part++ {
					w, err := archive.CreateWith(src, shard, codec)
					if err != nil {
						t.Fatal(err)
					}
					for k := 0; k < 5; k++ {
						i := g.next + uint64(2*(5*part+k)+parity)
						if err := w.Append(mixedRecord(i)); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					shard++
				}
			}
			for _, codec := range []archive.Codec{archive.CodecRaw, archive.CodecDelta} {
				got := filepath.Join(t.TempDir(), "got")
				want := filepath.Join(t.TempDir(), "want")
				stats, err := MergeWith(src, got, 7, codec)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Points != int(g.next)+20 {
					t.Fatalf("%v: merged %d points, want %d", codec, stats.Points, int(g.next)+20)
				}
				mergeOracle(t, src, want, 7, codec)
				compareDirsBitwise(t, got, want)
				if err := Equal(src, got); err != nil {
					t.Fatalf("%v: %v", codec, err)
				}
			}
		})
	}
}

// TestMergeFaultLeavesNoShards: a merge that fails while sealing its
// second shard must not leave the first one behind as a valid-looking
// partial canonical archive, whether the failure comes before the
// shard's rename (fsync) or after it (parent-directory fsync). A retry
// into the same directory then succeeds.
func TestMergeFaultLeavesNoShards(t *testing.T) {
	src := t.TempDir()
	const n = 25
	if _, err := sweep.RunArchive(context.Background(), src, n, 3, testGen, testPoint); err != nil {
		t.Fatal(err)
	}
	clean := filepath.Join(t.TempDir(), "clean")
	if _, err := Merge(src, clean, 10); err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{archive.SiteSync, archive.SiteSyncDir} {
		t.Run(site, func(t *testing.T) {
			defer failpoint.Reset()
			dst := filepath.Join(t.TempDir(), "merged")
			failpoint.Enable(site, failpoint.FailAt(2, nil)) // the second shard's Close
			stats, err := Merge(src, dst, 10)
			if !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("Merge error = %v, want the injected fault", err)
			}
			if stats != (MergeStats{}) {
				t.Fatalf("failed merge reports %+v, want zero stats", stats)
			}
			failpoint.Reset()
			for _, pat := range []string{archive.ShardPattern(dst), archive.TmpPattern(dst)} {
				left, err := filepath.Glob(pat)
				if err != nil {
					t.Fatal(err)
				}
				if len(left) != 0 {
					t.Fatalf("failed merge left %v", left)
				}
			}
			if _, err := Merge(src, dst, 10); err != nil {
				t.Fatalf("retry after a failed merge: %v", err)
			}
			compareDirsBitwise(t, dst, clean)
		})
	}
}

// TestEqualAcrossCodecsAndDifferences pins Equal's verdicts: the same
// records in either codec are equal, and a single changed value, or a
// point missing from one side, is reported.
func TestEqualAcrossCodecsAndDifferences(t *testing.T) {
	write := func(codec archive.Codec, change uint64, drop bool) string {
		dir := t.TempDir()
		w, err := archive.CreateWith(dir, 0, codec)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 9; i++ {
			if drop && i == change {
				continue
			}
			rec := mixedRecord(i)
			if i == change {
				rec.Samples[4] = math.Nextafter(rec.Samples[4], 2)
			}
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	const none = math.MaxUint64
	delta := write(archive.CodecDelta, none, false)
	for _, c := range []struct {
		name    string
		dir     string
		wantErr string
	}{
		{"same-codec", write(archive.CodecDelta, none, false), ""},
		{"cross-codec", write(archive.CodecRaw, none, false), ""},
		{"same-codec-change", write(archive.CodecDelta, 4, false), "point 4 differs"},
		{"cross-codec-change", write(archive.CodecRaw, 6, false), "point 6 differs"},
		{"missing", write(archive.CodecDelta, 2, true), "point 2 is in"},
	} {
		err := Equal(delta, c.dir)
		if (c.wantErr == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%s: Equal = %v, want %q", c.name, err, c.wantErr)
		}
	}
}
