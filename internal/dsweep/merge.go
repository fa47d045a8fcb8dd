package dsweep

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/archive"
)

// DefaultMergeShardSize is how many records a canonical merged shard
// holds when the caller does not choose.
const DefaultMergeShardSize = 1024

// MergeStats summarizes one Merge call.
type MergeStats struct {
	// Points is the number of records merged.
	Points int
	// Shards is the number of canonical shards written.
	Shards int
}

// Merge compacts the shards of srcDir into a canonical archive in
// dstDir: records in ascending point order, packed perShard to a shard
// (0 = DefaultMergeShardSize). Because the layout depends only on the
// record set, two archives holding the same records — however many
// workers, crashes, and re-leases produced them — merge to archives
// that are identical file-for-file.
//
// When srcDir carries a distributed-sweep plan, Merge refuses to run
// until every planned point is present, so a half-finished sweep can
// never masquerade as a complete canonical archive. dstDir must not
// already contain shards, and a failed merge removes the shards it
// committed, so dstDir never holds a partial canonical archive.
//
// Merge writes the archive default codec (delta). Each record goes
// through archive.Writer.Copy: a record already stored in canonical
// form in the output codec moves as its checked bytes, and any other
// record (POMARC1, another codec, a non-canonical encoding) is decoded
// and re-encoded. So the file-for-file guarantee holds even when the
// sources mix record generations. MergeWith chooses the output codec
// explicitly.
func Merge(srcDir, dstDir string, perShard int) (MergeStats, error) {
	return MergeWith(srcDir, dstDir, perShard, archive.CodecDefault)
}

// MergeWith is Merge with an explicit output codec for the canonical
// shards.
func MergeWith(srcDir, dstDir string, perShard int, codec archive.Codec) (MergeStats, error) {
	var stats MergeStats
	if perShard <= 0 {
		perShard = DefaultMergeShardSize
	}
	if existing, err := filepath.Glob(archive.ShardPattern(dstDir)); err != nil {
		return stats, fmt.Errorf("dsweep: %w", err)
	} else if len(existing) > 0 {
		return stats, fmt.Errorf("dsweep: merge target %s already holds %d shard(s)", dstDir, len(existing))
	}
	src, err := archive.OpenDir(srcDir)
	if err != nil {
		return stats, fmt.Errorf("dsweep: opening %s: %w", srcDir, err)
	}
	defer func() { _ = src.Close() }() // read-only close
	switch plan, err := LoadPlan(srcDir); {
	case err == nil:
		missing := missingIn(src, plan.N)
		if len(missing) > 0 {
			return stats, fmt.Errorf("dsweep: %s is incomplete: %d of %d planned points missing (first: %d)",
				srcDir, len(missing), plan.N, missing[0])
		}
	case errors.Is(err, fs.ErrNotExist):
		// A plain (non-distributed) archive has no plan; merge it as-is.
	default:
		return stats, err
	}
	indices := src.Indices()
	for lo := 0; lo < len(indices); lo += perShard {
		hi := min(lo+perShard, len(indices))
		if err := mergeShard(src, indices[lo:hi], dstDir, stats.Shards, codec); err != nil {
			// dstDir held no shards on entry, so every shard up to this
			// one is this call's; a Close that failed after its rename
			// committed this one too.
			for id := 0; id <= stats.Shards; id++ {
				_ = os.Remove(archive.ShardPath(dstDir, id)) // best effort: the merge error is the one to report
			}
			return MergeStats{}, err
		}
		stats.Shards++
	}
	stats.Points = len(indices)
	return stats, nil
}

// mergeShard writes the records of indices, in order, as shard id of
// dstDir.
func mergeShard(src *archive.Archive, indices []uint64, dstDir string, id int, codec archive.Codec) error {
	w, err := archive.CreateWith(dstDir, id, codec)
	if err != nil {
		return fmt.Errorf("dsweep: %w", err)
	}
	for _, idx := range indices {
		if err := w.Copy(src, idx); err != nil {
			_ = w.Abort()
			return fmt.Errorf("dsweep: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("dsweep: sealing merged shard: %w", err)
	}
	return nil
}

// Missing returns the point indices of 0..n-1 absent from the archive
// in dir, in ascending order.
func Missing(dir string, n int) ([]int, error) {
	a, err := archive.OpenDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dsweep: opening %s: %w", dir, err)
	}
	defer func() { _ = a.Close() }() // read-only close
	return missingIn(a, n), nil
}

func missingIn(a *archive.Archive, n int) []int {
	var missing []int
	for i := 0; i < n; i++ {
		if !a.Has(uint64(i)) {
			missing = append(missing, i)
		}
	}
	return missing
}

// Equal verifies that the archives in aDir and bDir hold exactly the
// same records: the same point-index set and, for every point,
// byte-identical canonical payloads — the codec-independent raw
// encoding, so a delta-compressed archive compares equal to a raw or
// POMARC1 archive of the same records. It reports the first difference
// found; nil means the archives are equivalent regardless of shard
// layout or record codec.
func Equal(aDir, bDir string) error {
	a, err := archive.OpenDir(aDir)
	if err != nil {
		return fmt.Errorf("dsweep: opening %s: %w", aDir, err)
	}
	defer func() { _ = a.Close() }() // read-only close
	b, err := archive.OpenDir(bDir)
	if err != nil {
		return fmt.Errorf("dsweep: opening %s: %w", bDir, err)
	}
	defer func() { _ = b.Close() }() // read-only close
	for _, idx := range a.Indices() {
		if !b.Has(idx) {
			return fmt.Errorf("dsweep: point %d is in %s but not %s", idx, aDir, bDir)
		}
	}
	for _, idx := range b.Indices() {
		if !a.Has(idx) {
			return fmt.Errorf("dsweep: point %d is in %s but not %s", idx, bDir, aDir)
		}
	}
	for _, idx := range a.Indices() {
		ra, err := a.ReadCanonical(idx)
		if err != nil {
			return fmt.Errorf("dsweep: %w", err)
		}
		rb, err := b.ReadCanonical(idx)
		if err != nil {
			return fmt.Errorf("dsweep: %w", err)
		}
		if !bytes.Equal(ra, rb) {
			return fmt.Errorf("dsweep: point %d differs between %s and %s", idx, aDir, bDir)
		}
	}
	return nil
}
