package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/dsweep"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// sweepOpts collects the -sweep-* flags of the distributed worker mode.
type sweepOpts struct {
	dir          string
	points       int
	param        string
	from, to     float64
	rangeSize    int
	ttl          time.Duration
	rangeWorkers int
	workerID     string
	coordinate   bool
}

// runDistributed joins (or starts) a fault-tolerant distributed sweep:
// this process becomes one lease-coordinated worker of the fleet
// sharing o.dir. The base scenario is swept along one parameter over a
// uniform grid of o.points values; each point's full trajectory and
// summary metrics land in the shared archive. Run any number of pomsim
// processes with the same -sweep flags (distinct -worker-id when hosts
// share a name) — they divide the grid through lease files alone, and
// a worker that dies mid-range is re-leased after -lease-ttl.
func runDistributed(spec *scenario.Spec, o sweepOpts) {
	if o.points <= 0 {
		log.Fatal("-sweep needs -sweep-points > 0")
	}
	if _, err := gridValue(o, 0); err != nil {
		log.Fatal(err)
	}
	// Fail on an unsweepable spec before touching the shared directory.
	if _, err := sweepSpec(spec, o, 0); err != nil {
		log.Fatal(err)
	}

	if o.coordinate {
		// Publish (or validate) the plan without claiming any work —
		// lets a launcher set the directory up before starting the
		// fleet, and doubles as a geometry check against a running one.
		rs := o.rangeSize
		if rs <= 0 {
			rs = dsweep.DefaultRangeSize
		}
		plan, err := dsweep.Coordinate(o.dir, o.points, rs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("plan published at %s: %d points in %d ranges of %d\n",
			o.dir, plan.N, plan.Ranges(), plan.RangeSize)
		return
	}

	gen := func(i int) []float64 {
		v, _ := gridValue(o, i)
		return []float64{v}
	}
	fn := func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
		pt, err := sweepSpec(spec, o, params[0])
		if err != nil {
			return err
		}
		sys, tEnd, nSamples, err := pt.BuildSystem()
		if err != nil {
			return err
		}
		sum, err := sim.RunSummary(sys, tEnd, nSamples, 0.1, 0.15, rec)
		if err != nil {
			return err
		}
		return rec.Finish(sum.Vector(), nil)
	}

	// ^C stops claiming new work and discards in-flight shards; the
	// lease protocol lets any other worker (or a rerun) pick up the
	// remainder.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	stats, err := dsweep.Run(ctx, dsweep.Config{
		Dir:          o.dir,
		N:            o.points,
		RangeSize:    o.rangeSize,
		TTL:          o.ttl,
		RangeWorkers: o.rangeWorkers,
		WorkerID:     o.workerID,
		Codec:        shardCodec,
	}, gen, fn)
	fmt.Printf("distributed sweep over %s: %d ranges, this worker leased %d (+%d stolen), completed %d, lost %d\n",
		o.dir, stats.Ranges, stats.Leased, stats.Stolen, stats.Completed, stats.Lost)
	fmt.Printf("points: %d archived, %d resumed/skipped, %d shards sealed\n",
		stats.Archived, stats.Skipped, stats.Shards)
	if err != nil {
		log.Fatalf("worker stopped: %v (rerun to resume; other workers are unaffected)", err)
	}
	missing, err := dsweep.Missing(o.dir, o.points)
	if err != nil {
		log.Fatal(err)
	}
	if len(missing) > 0 {
		// Possible when this worker finished its ranges while another
		// worker still holds (or abandoned) the rest.
		fmt.Printf("sweep not yet complete: %d of %d points still missing\n", len(missing), o.points)
		return
	}
	fmt.Printf("sweep complete: all %d points archived; canonicalize with\n  pomread -dir %s -merge MERGED_DIR\n",
		o.points, o.dir)
}

// gridValue maps point index i onto the swept parameter's value.
func gridValue(o sweepOpts, i int) (float64, error) {
	switch o.param {
	case "sigma":
		if o.points == 1 {
			return o.from, nil
		}
		return o.from + (o.to-o.from)*float64(i)/float64(o.points-1), nil
	case "seed":
		// Seeds are integers; a fractional or negative -sweep-from would
		// silently truncate through the uint64 conversion (the flag's
		// default 0.5 serves sigma sweeps), so refuse it up front —
		// runDistributed probes gridValue before touching the directory.
		if o.from < 0 || o.from != math.Trunc(o.from) {
			return 0, fmt.Errorf("seed sweeps need a non-negative integer -sweep-from, got %g (e.g. -sweep-from 0)", o.from)
		}
		return o.from + float64(i), nil
	default:
		return 0, fmt.Errorf("unknown -sweep-param %q (want sigma | seed)", o.param)
	}
}

// sweepSpec deep-copies the base spec (via its own JSON round trip, so
// concurrent points never share mutable state) and writes the swept
// value into the family's sigma or seed field (cliFamilies).
func sweepSpec(spec *scenario.Spec, o sweepOpts, v float64) (*scenario.Spec, error) {
	var buf bytes.Buffer
	if err := spec.Save(&buf); err != nil {
		return nil, err
	}
	pt, err := scenario.Load(&buf)
	if err != nil {
		return nil, err
	}
	name, err := pt.FamilyName()
	if err != nil {
		return nil, err
	}
	fam := cliFamilies[name]
	switch o.param {
	case "sigma":
		if fam.sigma == nil {
			return nil, fmt.Errorf("family %q has no sigma to sweep", name)
		}
		*fam.sigma(pt) = v
	case "seed":
		if v < 0 {
			return nil, fmt.Errorf("seed sweep reached negative seed %g (check -sweep-from)", v)
		}
		if fam.seed == nil {
			return nil, fmt.Errorf("family %q has no seed to sweep", name)
		}
		*fam.seed(pt) = uint64(v)
	default:
		return nil, fmt.Errorf("unknown -sweep-param %q (want sigma | seed)", o.param)
	}
	return pt, nil
}
