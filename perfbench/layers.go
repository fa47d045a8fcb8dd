package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/archive"
)

// firstRowSink is a sim.Sink that discards rows but notes when the
// first one arrives; it is the "no-op sink" solver timings run into.
type firstRowSink struct{ first time.Time }

func (s *firstRowSink) Begin(n, nSamples int) {}

func (s *firstRowSink) Sample(t float64, y []float64) {
	if s.first.IsZero() {
		s.first = now()
	}
}

// decodedBytes is the in-memory size of a record's rows and times — the
// byte count archive codec throughputs are quoted in.
func decodedBytes(rec *archive.Record) int64 {
	return 8 * int64(len(rec.Ts)+len(rec.Samples))
}

// encodeTiming is one timed archive write of a decoded record.
type encodeTiming struct {
	encode, close time.Duration
	bytes         int64
}

// encodeRecord writes rec through the streaming RecordWriter into a new
// shard of dir (the path a run takes to reach disk), timing the record
// encode and the shard close (footer, fsync, rename) separately.
func encodeRecord(dir string, shard int, rec *archive.Record) (encodeTiming, error) {
	w, err := archive.CreateWith(dir, shard, archive.CodecDefault)
	if err != nil {
		return encodeTiming{}, err
	}
	t0 := now()
	rw, err := w.Begin(rec.Index, rec.Params)
	if err != nil {
		_ = w.Abort()
		return encodeTiming{}, err
	}
	rw.Begin(rec.Width, rec.NSamples())
	for k := 0; k < rec.NSamples(); k++ {
		rw.Sample(rec.Ts[k], rec.Row(k))
	}
	if err := rw.Finish(rec.Metrics, rec.Trace); err != nil {
		_ = w.Abort()
		return encodeTiming{}, err
	}
	t1 := now()
	if err := w.Close(); err != nil {
		return encodeTiming{}, err
	}
	t2 := now()
	return encodeTiming{encode: t1.Sub(t0), close: t2.Sub(t1), bytes: decodedBytes(rec)}, nil
}

// shardSizes measures the committed shards of dir: file bytes per
// record, and the ratio of canonical (raw-layout) payload bytes to the
// payload bytes actually stored — exact counts for a fixed record set.
func shardSizes(dir string) (bytesPerPoint, compression float64, err error) {
	paths, err := filepath.Glob(archive.ShardPattern(dir))
	if err != nil {
		return 0, 0, err
	}
	var file, stored, canonical int64
	var records int
	for _, p := range paths {
		s, err := archive.OpenShard(p)
		if err != nil {
			return 0, 0, err
		}
		file += s.Size()
		for k := 0; k < s.Len(); k++ {
			raw, rerr := s.ReadRaw(k)
			if rerr != nil {
				err = rerr
				break
			}
			can, cerr := s.ReadCanonical(k)
			if cerr != nil {
				err = cerr
				break
			}
			stored += int64(len(raw))
			canonical += int64(len(can))
			records++
		}
		_ = s.Close() // read-only close
		if err != nil {
			return 0, 0, err
		}
	}
	if records == 0 || stored == 0 {
		return 0, 0, fmt.Errorf("no archived records in %s", dir)
	}
	return float64(file) / float64(records), float64(canonical) / float64(stored), nil
}
