package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/dsweep"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// fleetWorkers is the sweep-fleet's worker count: two in-process
// dsweep.Run workers, one goroutine each, on the two-core host.
const fleetWorkers = 2

// fleetPoll is the fleet's lease-scan period. dsweep's default (half the
// lease TTL) suits workers on separate machines; an in-process fleet
// polls quickly so a worker that ran out of ranges notices the end of
// the sweep within milliseconds instead of seconds.
const fleetPoll = 20 * time.Millisecond

// fleetTTL is the fleet's lease TTL. Both workers live in this process,
// so neither can die while the other runs on, and lease expiry has
// nothing to detect. dsweep's 5 s default would instead turn any stall
// of the whole process (a paused VM, a starved container) into an
// expired lease, which the worker then steals back from itself, and the
// fault-free check below would count it as a failure. Ten minutes
// outlasts any run; a steal or a lost lease still means a broken lease
// protocol.
const fleetTTL = 10 * time.Minute

// sweepPhase accumulates the rounds of one measurement window.
type sweepPhase struct {
	mu              sync.Mutex
	points          int
	busy            time.Duration // Σ round wall time: fleet run + merge
	windows         []*window     // one per round
	firstRange      time.Time     // the current round's first completed range
	solve           []float64     // per point solve, ms
	pointTime       time.Duration // Σ point time
	workerTime      time.Duration // Σ worker wall time
	merge           []float64     // per round, ms
	leased, stolen  int
	lost, rounds    int
	disk            []float64 // per round, bytes per point
	rt              runtimeDelta
	coordinate      time.Duration // Σ Coordinate time
	closeMs         []float64
	encBytes, rdB   int64
	encTime, rdTime time.Duration
	read            []float64
}

// runSweepFleet is the sweep-fleet workload.
//
// Why: a seed-placed sigma × coupling grid of small POM desync points
// (N=8, 201 samples, t_end 40) swept by two dsweep workers and merged,
// round after round in fresh directories. Points are cheap, so the
// per-point costs of the distributed runtime show: lease files, shard
// fsync and rename, merge decode and re-encode. Bypasses: serve and
// http entirely.
func runSweepFleet(w *workload) error {
	grid := newSweepGrid(w.seed, w.size.sigmas, w.size.couplings)
	round := 0
	// Set-up is Coordinate plus one unmeasured warm-up round, repeated;
	// Coordinate alone is a millisecond of fsyncs whose time is noise.
	var setup []float64
	for rep := 0; rep < w.size.setupReps; rep++ {
		warm := &sweepPhase{}
		if err := w.sweepRound(grid, round, warm, false); err != nil {
			return err
		}
		round++
		setup = append(setup, warm.coordinate.Seconds()+warm.busy.Seconds())
	}
	run := func(dur time.Duration, traced bool) (*sweepPhase, error) {
		sp := &sweepPhase{}
		deadline := now().Add(dur)
		for first := round; round == first || now().Before(deadline); round++ {
			if err := w.sweepRound(grid, round, sp, traced); err != nil {
				return nil, err
			}
		}
		return sp, nil
	}
	var untraced, traced *sweepPhase
	var err error
	if !w.trace {
		untraced, err = run(w.dur, false)
	} else if untraced, err = run(w.dur/2, false); err == nil {
		traced, err = run(w.dur/2, true)
	}
	if err != nil {
		return err
	}
	if !w.trace {
		ph := untraced
		w.rep.set("setup_s", median(setup))
		w.reportTimings(summarize(ph.windows), ph.rt, ph.points, median(ph.disk))
		return nil
	}
	ph := traced
	uOps := float64(untraced.points) / untraced.busy.Seconds()
	tOps := float64(ph.points) / ph.busy.Seconds()
	w.rep.set("trace.overhead_ratio", 1-tOps/uOps)
	w.rep.set("go.gc_cycles_per_op", untraced.rt.gcCycles/float64(max(untraced.points, 1)))
	w.rep.set("go.gc_cpu_fraction", untraced.rt.gcCPUFraction())
	w.rep.set("sim.solve_ms.sweep_point", median(ph.solve))
	w.rep.set("dsweep.overhead_ratio", float64(ph.workerTime-ph.pointTime)/float64(ph.workerTime))
	w.rep.set("dsweep.merge_ms", median(ph.merge))
	w.rep.set("dsweep.leased", float64(ph.leased)/float64(max(ph.rounds, 1)))
	w.rep.set("dsweep.stolen", float64(ph.stolen)/float64(max(ph.rounds, 1)))
	w.rep.set("dsweep.lost", float64(ph.lost)/float64(max(ph.rounds, 1)))
	w.rep.set("archive.encode_mb_per_s", float64(ph.encBytes)/1e6/ph.encTime.Seconds())
	w.rep.set("archive.close_ms", median(ph.closeMs))
	w.rep.set("archive.read_ms", median(ph.read))
	w.rep.set("archive.decode_mb_per_s", float64(ph.rdB)/1e6/ph.rdTime.Seconds())
	w.setSelf(w.tr.selfTimes(), ph.points)
	return nil
}

// sweepRound runs one complete distributed sweep in a fresh directory:
// Coordinate, two workers, Merge, then the checks.
func (w *workload) sweepRound(grid sweepGrid, round int, sp *sweepPhase, traced bool) error {
	n := grid.points()
	root := filepath.Join(w.dir, fmt.Sprintf("round-%d", round))
	fleet, merged := filepath.Join(root, "fleet"), filepath.Join(root, "merged")
	t0 := now()
	if _, err := dsweep.Coordinate(fleet, n, w.size.rangeSize); err != nil {
		return err
	}
	rt0 := readRuntime()
	start := now()
	win := &window{}
	sp.windows = append(sp.windows, win)
	sp.firstRange = time.Time{}
	var wg sync.WaitGroup
	stats := make([]dsweep.Stats, fleetWorkers)
	errs := make([]error, fleetWorkers)
	for k := 0; k < fleetWorkers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := w.tr.id()
			ws := now()
			cfg := dsweep.Config{
				Dir:          fleet,
				N:            n,
				RangeSize:    w.size.rangeSize,
				TTL:          fleetTTL,
				Poll:         fleetPoll,
				RangeWorkers: 1,
				WorkerID:     fmt.Sprintf("w%d", k),
			}
			stats[k], errs[k] = dsweep.Run(context.Background(), cfg, grid.params, w.pointFunc(sp, n, id, traced))
			we := now()
			if traced {
				w.tr.add(span{ID: id, Trace: int64(round) + 1, Name: "dsweep.worker", Start: w.tr.at(ws), End: w.tr.at(we)})
			}
			sp.mu.Lock()
			sp.workerTime += we.Sub(ws)
			sp.mu.Unlock()
		}()
	}
	wg.Wait()
	runEnd := now()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if w.tamperFleet != nil {
		if err := w.tamperFleet(fleet); err != nil {
			return err
		}
	}
	w.rep.attempted += n
	missing, err := dsweep.Missing(fleet, n)
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		w.rep.failN(len(missing), "sweep-fleet round %d: %d of %d points missing (first: %d)", round, len(missing), n, missing[0])
		return nil
	}
	m0 := now()
	ms, err := dsweep.Merge(fleet, merged, 0)
	m1 := now()
	rt := rt0.to(readRuntime())
	if err != nil {
		w.rep.failN(n, "sweep-fleet round %d: merge: %v", round, err)
		return nil
	}
	if traced {
		w.tr.add(span{Trace: int64(round) + 1, Name: "dsweep.merge", Start: w.tr.at(m0), End: w.tr.at(m1)})
	}
	for _, st := range stats {
		sp.leased += st.Leased
		sp.stolen += st.Stolen
		sp.lost += st.Lost
		if st.Stolen != 0 || st.Lost != 0 {
			w.rep.fail("sweep-fleet round %d: a worker stole %d and lost %d leases; a fault-free fleet does neither", round, st.Stolen, st.Lost)
		}
	}
	sp.coordinate += start.Sub(t0)
	sp.rt.add(rt)
	sp.points += ms.Points
	sp.busy += runEnd.Sub(start) + m1.Sub(m0)
	win.dur = runEnd.Sub(start) + m1.Sub(m0)
	// A sweep's first result is its first completed range: the first
	// shard a reader could see.
	win.ttfr = []float64{sinceMs(start, sp.firstRange)}
	sp.merge = append(sp.merge, sinceMs(m0, m1))
	sp.rounds++
	fb, err := dirBytes(fleet)
	if err != nil {
		return err
	}
	mb, err := dirBytes(merged)
	if err != nil {
		return err
	}
	sp.disk = append(sp.disk, float64(fb+mb)/float64(n))
	if err := w.checkMerged(grid, round, merged, sp); err != nil {
		return err
	}
	if round == 0 {
		if err := w.setShardSizes(merged); err != nil {
			return err
		}
	}
	return os.RemoveAll(root)
}

// pointFunc is a fleet worker's sweep point: build the point's scenario,
// stream the solver's rows into the archive record, seal it.
func (w *workload) pointFunc(sp *sweepPhase, n int, worker int64, traced bool) sweep.ArchivePointFunc {
	probe := newHeapProbe() // one worker runs its points one at a time
	return func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
		t0 := now()
		sys, tEnd, samples, err := pointSpec(i, params).BuildSystem()
		if err != nil {
			return err
		}
		t1 := now()
		if _, err := sim.RunStream(sys, tEnd, samples, rec); err != nil {
			return err
		}
		t2 := now()
		if err := rec.Finish(nil, nil); err != nil {
			return err
		}
		t3 := now()
		if traced {
			id := w.tr.id()
			tid := int64(i) + 1
			w.tr.add(span{ID: id, Parent: worker, Trace: tid, Name: "sweep.point", Start: w.tr.at(t0), End: w.tr.at(t3)})
			w.tr.add(span{Parent: id, Trace: tid, Name: "scenario.build", Start: w.tr.at(t0), End: w.tr.at(t1)})
			w.tr.add(span{Parent: id, Trace: tid, Name: "sim.solve", Start: w.tr.at(t1), End: w.tr.at(t2)})
			w.tr.add(span{Parent: id, Trace: tid, Name: "archive.finish", Start: w.tr.at(t2), End: w.tr.at(t3)})
		}
		sp.mu.Lock()
		defer sp.mu.Unlock()
		win := sp.windows[len(sp.windows)-1]
		win.peak.observe(probe)
		win.lat = append(win.lat, sinceMs(t0, t3))
		if (i+1)%w.size.rangeSize == 0 || i+1 == n {
			if sp.firstRange.IsZero() || t3.Before(sp.firstRange) {
				sp.firstRange = t3
			}
		}
		sp.solve = append(sp.solve, sinceMs(t1, t2))
		sp.pointTime += t3.Sub(t0)
		return nil
	}
}

// rowCapture materializes a run's rows into an archive.Record.
type rowCapture struct{ rec *archive.Record }

func (c *rowCapture) Begin(n, nSamples int) { c.rec.Width = n }

func (c *rowCapture) Sample(t float64, y []float64) {
	c.rec.Ts = append(c.rec.Ts, t)
	c.rec.Samples = append(c.rec.Samples, y...)
}

// checkMerged compares a seed-chosen sample of merged records bitwise
// (canonical payload bytes) against direct runs of the same points, and
// times the archive encode, close and read those checks perform.
func (w *workload) checkMerged(grid sweepGrid, round int, merged string, sp *sweepPhase) error {
	n := grid.points()
	if missing, err := dsweep.Missing(merged, n); err != nil {
		return err
	} else if len(missing) > 0 {
		w.rep.failN(len(missing), "sweep-fleet round %d: merged archive misses %d points", round, len(missing))
	}
	a, err := archive.OpenDir(merged)
	if err != nil {
		return err
	}
	defer func() { _ = a.Close() }() // read-only close
	dir := filepath.Join(w.dir, fmt.Sprintf("check-%d", round))
	for j := 0; j < w.size.sweepChecks; j++ {
		i := w.rng.IntN(n)
		params := grid.params(i)
		sys, tEnd, samples, err := pointSpec(i, params).BuildSystem()
		if err != nil {
			return err
		}
		c := rowCapture{rec: &archive.Record{Index: uint64(i), Params: params}}
		if _, err := sim.RunStream(sys, tEnd, samples, &c); err != nil {
			return err
		}
		enc, err := encodeRecord(dir, j, c.rec)
		if err != nil {
			return err
		}
		s, err := archive.OpenShard(archive.ShardPath(dir, j))
		if err != nil {
			return err
		}
		want, err := s.ReadCanonical(0)
		_ = s.Close() // read-only close
		if err != nil {
			return err
		}
		got, err := a.ReadCanonical(uint64(i))
		if err != nil {
			w.rep.fail("sweep-fleet round %d: reading merged point %d: %v", round, i, err)
			continue
		}
		if string(got) != string(want) {
			w.rep.fail("sweep-fleet round %d: merged point %d differs from a direct run", round, i)
		}
		r0 := now()
		rec, err := a.Read(uint64(i))
		r1 := now()
		if err != nil {
			return err
		}
		sp.closeMs = append(sp.closeMs, float64(enc.close)/float64(time.Millisecond))
		sp.encBytes += enc.bytes
		sp.encTime += enc.encode
		sp.read = append(sp.read, sinceMs(r0, r1))
		sp.rdB += decodedBytes(rec)
		sp.rdTime += r1.Sub(r0)
	}
	return nil
}
