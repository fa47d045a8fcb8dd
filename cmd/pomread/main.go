// Command pomread inspects disk-backed sweep archives written by
// sweep.RunArchive, pomsim -archive, or examples/archivesweep — the
// post-hoc analysis entry point for archived trajectories, the role the
// trace browser plays for ITAC files in the paper's workflow.
//
// Modes:
//
//	pomread -dir runs/desync              # per-shard and whole-archive summary
//	pomread -dir runs/desync -index 17    # dump one point's record
//	pomread -dir runs/desync -verify      # CRC-check every record
//	pomread -dir runs/desync -stats       # format/codec/compression report
//	pomread -dir runs/scan -merge out     # compact into a canonical archive
//	pomread -dir runs/scan -merge out -merge-codec raw   # ... uncompressed
//	pomread -dir out -compare out2        # record-level equality of two archives
//	pomread -dir runs/scan -missing 64    # points of 0..63 not yet archived
//
// The dump prints the parameter vector, metrics, sample dimensions,
// first/last rows, and — when the record embeds a trace — its per-rank
// utilization. -verify walks every record through its checksum and
// reports the first corruption, so a damaged archive is diagnosed
// instead of silently mis-read.
//
// -stats decodes every record and reports, per shard and in total, the
// format generation (POMARC1/POMARC2), the record-codec mix (raw vs
// delta-compressed), on-disk bytes per point, and the compression
// ratio against the canonical raw payload encoding — the number to
// check before deciding whether a sweep should archive raw (see
// PERFORMANCE.md, "Archive compression").
//
// -merge, -compare, and -missing are the read-side half of the
// distributed sweeps (internal/dsweep): merge compacts a fleet's
// per-worker shards into a canonical layout (ascending point order,
// fixed shard packing, records written in -merge-codec: copied when
// already canonical in it, re-encoded otherwise — two merges of the
// same records are identical file-for-file even when the sources mix
// codecs, the chaos-test invariant), compare verifies two
// archives hold bitwise-identical records regardless of shard layout
// or codec, and missing reports sweep coverage.
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"

	"repro/internal/archive"
	"repro/internal/dsweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pomread: ")

	var (
		dir      = flag.String("dir", "", "archive directory (required)")
		index    = flag.Int("index", -1, "dump the record of this point index (-1 = summarize the archive)")
		verify   = flag.Bool("verify", false, "read and CRC-check every record")
		rows     = flag.Int("rows", 2, "sample rows to print from each end of a dumped record")
		stats    = flag.Bool("stats", false, "report format generations, codec mix, and compression ratio")
		merge    = flag.String("merge", "", "compact -dir into a canonical archive at this (empty) directory")
		perShard = flag.Int("per-shard", 0, "records per merged shard (0 = default)")
		mergeC   = flag.String("merge-codec", "", "record codec of merged shards: delta | raw (empty = delta)")
		compare  = flag.String("compare", "", "verify -dir and this archive hold bitwise-identical records")
		missing  = flag.Int("missing", 0, "report which of points 0..N-1 are absent from -dir")
	)
	flag.Parse()
	if *dir == "" {
		log.Fatal("-dir is required")
	}

	switch {
	case *merge != "":
		codec, err := archive.ParseCodec(*mergeC)
		if err != nil {
			log.Fatal(err)
		}
		st, err := dsweep.MergeWith(*dir, *merge, *perShard, codec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("merged %d points into %d canonical %s shard(s) at %s\n",
			st.Points, st.Shards, codec, *merge)
		return
	case *compare != "":
		if err := dsweep.Equal(*dir, *compare); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("OK: %s and %s hold bitwise-identical records\n", *dir, *compare)
		return
	case *missing > 0:
		gaps, err := dsweep.Missing(*dir, *missing)
		if err != nil {
			log.Fatal(err)
		}
		if len(gaps) == 0 {
			fmt.Printf("OK: all %d points archived\n", *missing)
			return
		}
		fmt.Printf("%d of %d points missing: %v\n", len(gaps), *missing, gaps)
		return
	}

	a, err := archive.OpenDir(*dir)
	if err != nil {
		log.Fatal(err)
	}
	// Read-only close: the records are already decoded, so a close
	// failure cannot corrupt anything — discard it visibly.
	defer func() { _ = a.Close() }()

	switch {
	case *stats:
		doStats(a)
	case *verify:
		doVerify(a)
	case *index >= 0:
		dump(a, uint64(*index), *rows)
	default:
		summarize(a, *dir)
	}
}

// summarize prints the shard table and the point-index coverage.
func summarize(a *archive.Archive, dir string) {
	var bytes int64
	for _, s := range a.Shards() {
		fmt.Printf("%-24s %6d records  %10d bytes\n", filepath.Base(s.Path), s.Len(), s.Size())
		bytes += s.Size()
	}
	idx := a.Indices()
	if len(idx) == 0 {
		fmt.Printf("%s: empty archive\n", dir)
		return
	}
	gaps := 0
	for k := 1; k < len(idx); k++ {
		if idx[k] != idx[k-1]+1 {
			gaps++
		}
	}
	fmt.Printf("%d points in %d shards, %d bytes (%.0f B/point), indices %d..%d",
		a.Len(), len(a.Shards()), bytes, float64(bytes)/float64(a.Len()), idx[0], idx[len(idx)-1])
	if gaps > 0 {
		fmt.Printf(", %d gap(s) — resumable", gaps)
	}
	fmt.Println()
}

// dump prints one decoded record.
func dump(a *archive.Archive, index uint64, edgeRows int) {
	rec, err := a.Read(index)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("point %d\n", rec.Index)
	fmt.Printf("  params:  %v\n", rec.Params)
	fmt.Printf("  metrics: %v\n", rec.Metrics)
	fmt.Printf("  samples: %d rows × width %d\n", rec.NSamples(), rec.Width)
	n := rec.NSamples()
	for k := 0; k < n; k++ {
		if k == edgeRows && n > 2*edgeRows {
			fmt.Printf("    ... %d rows elided ...\n", n-2*edgeRows)
			k = n - edgeRows - 1
			continue
		}
		fmt.Printf("    t=%-10.4g %v\n", rec.Ts[k], rec.Row(k))
	}
	if rec.Trace == nil {
		fmt.Println("  trace:   none")
		return
	}
	fmt.Printf("  trace:   %d ranks, makespan %.4g\n", rec.Trace.N(), rec.Trace.End)
	for _, u := range rec.Trace.UtilizationReport() {
		fmt.Printf("    rank %-3d compute %8.4g  comm %8.4g  (%.0f%% compute)\n",
			u.Rank, u.Compute, u.Comm, 100*u.ComputeFraction)
	}
}

// doStats reports the format generation, record-codec mix, and
// compression of every shard: on-disk payload bytes against the
// canonical raw payload encoding of the same records.
func doStats(a *archive.Archive) {
	var totalRecs int
	var totalDisk, totalPayload, totalCanon int64
	totalMix := map[archive.Codec]int{}
	for _, s := range a.Shards() {
		var payload, canon int64
		mix := map[archive.Codec]int{}
		for k := 0; k < s.Len(); k++ {
			c, err := s.RecordCodec(k)
			if err != nil {
				log.Fatal(err)
			}
			mix[c]++
			totalMix[c]++
			p, err := s.ReadRaw(k)
			if err != nil {
				log.Fatal(err)
			}
			payload += int64(len(p))
			cb, err := s.ReadCanonical(k)
			if err != nil {
				log.Fatal(err)
			}
			canon += int64(len(cb))
		}
		fmt.Printf("%-24s POMARC%d  %6d records  %10d bytes  %s  %.2fx\n",
			filepath.Base(s.Path), s.Version(), s.Len(), s.Size(),
			mixString(mix), ratio(canon, payload))
		totalRecs += s.Len()
		totalDisk += s.Size()
		totalPayload += payload
		totalCanon += canon
	}
	if totalRecs == 0 {
		fmt.Println("empty archive")
		return
	}
	fmt.Printf("%d records in %d shard(s): %d bytes on disk (%.1f B/point), %s\n",
		totalRecs, len(a.Shards()), totalDisk, float64(totalDisk)/float64(totalRecs), mixString(totalMix))
	fmt.Printf("payload %d bytes vs %d canonical raw: %.2fx compression (%.1f -> %.1f B/point)\n",
		totalPayload, totalCanon, ratio(totalCanon, totalPayload),
		float64(totalCanon)/float64(totalRecs), float64(totalPayload)/float64(totalRecs))
}

// mixString renders a codec→count map as "12 delta + 3 raw".
func mixString(mix map[archive.Codec]int) string {
	parts := ""
	for _, c := range []archive.Codec{archive.CodecDelta, archive.CodecRaw} {
		if mix[c] == 0 {
			continue
		}
		if parts != "" {
			parts += " + "
		}
		parts += fmt.Sprintf("%d %s", mix[c], c)
	}
	if parts == "" {
		return "no records"
	}
	return parts
}

// ratio guards the canonical/payload division against empty shards.
func ratio(canon, payload int64) float64 {
	if payload == 0 {
		return 1
	}
	return float64(canon) / float64(payload)
}

// doVerify reads every record, which CRC-checks every payload.
func doVerify(a *archive.Archive) {
	checked := 0
	err := a.Iter(func(rec *archive.Record) error {
		checked++
		return nil
	})
	if err != nil {
		log.Fatalf("corruption after %d good records: %v", checked, err)
	}
	fmt.Printf("OK: %d records verified across %d shards\n", checked, len(a.Shards()))
}
