// Command pomsim integrates the physical oscillator model from command
// line flags or a scenario JSON — the role of the paper's MATLAB GUI. It
// prints the settled state, wave metrics, and an ASCII phase strip, and
// optionally writes the phase-timeline and circle-diagram SVGs.
//
// A cluster scenario runs the discrete-event MPI engine and, after the
// unified report, prints the trace metrics: makespan, socket bandwidth,
// the idle wave of every delay, the asymptotic desync and the mean
// communication fraction. There -svg DIR writes the ITAC-style Gantt
// chart (DIR/trace.svg) and the full trace (DIR/trace.csv).
//
// With -archive DIR the run streams its full trajectory into a new
// shard of the disk-backed archive at DIR (creating it if needed):
// every sample row plus the summary-metric vector, readable back with
// cmd/pomread or internal/archive. Archiving implies streaming mode, so
// it composes with -stream and, for POM runs, excludes -svg. Shards are
// written in the POMARC2 format; -archive-codec picks the record codec
// (delta compression by default, raw for byte-for-byte POMARC1
// payloads) and one directory may mix codecs and generations freely.
//
// With -sweep DIR the process instead joins a fault-tolerant
// distributed sweep as one lease-coordinated worker (internal/dsweep):
// the scenario is swept along -sweep-param over a -sweep-points grid,
// every point's trajectory lands in the shared archive at DIR, and any
// number of pomsim processes pointed at the same DIR divide the grid —
// a worker that dies mid-range is re-leased after -lease-ttl. Merge
// and verify the result with cmd/pomread.
//
// Examples:
//
//	pomsim -n 40 -potential tanh -delay-rank 5
//	pomsim -n 40 -potential desync -sigma 1.5 -offsets=-1,1 -svg out
//	pomsim -n 40 -potential desync -sigma 1.5 -archive runs/desync
//	pomsim -save-config fig2b.json -potential desync -sigma 1.5
//	pomsim -config fig2b.json
//	pomsim -config examples/scenarios/cluster.json -svg out
//	pomsim -potential desync -sweep runs/scan -sweep-points 64 -sweep-param sigma -sweep-from 0.5 -sweep-to 3
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pomsim: ")

	var (
		n         = flag.Int("n", 40, "number of oscillators (MPI processes)")
		potName   = flag.String("potential", "tanh", "interaction potential: tanh | desync | kuramoto")
		sigma     = flag.Float64("sigma", 1.5, "interaction horizon σ of the desync potential")
		offsets   = flag.String("offsets", "-1,1", "comma-separated communication stencil offsets")
		periodic  = flag.Bool("periodic", false, "wrap the stencil into a ring")
		tComp     = flag.Float64("tcomp", 0.8, "computation phase duration")
		tComm     = flag.Float64("tcomm", 0.2, "communication phase duration")
		coupling  = flag.Float64("coupling", 0, "coupling override v_p (0 = βκ/period)")
		rendez    = flag.Bool("rendezvous", false, "rendezvous protocol (β=2) instead of eager (β=1)")
		grouped   = flag.Bool("grouped-waitall", false, "κ = max|d| (grouped MPI_Waitall) instead of Σ|d|")
		delayRank = flag.Int("delay-rank", -1, "rank receiving a one-off delay (-1 = none)")
		delayAt   = flag.Float64("delay-at", 10, "delay start time")
		delayLen  = flag.Float64("delay-len", 2, "delay duration")
		jitter    = flag.Float64("jitter", 0, "Gaussian period noise σ (0 = silent)")
		commLag   = flag.Float64("comm-lag", 0, "constant interaction delay τ")
		tEnd      = flag.Float64("t", 150, "integration end time")
		samples   = flag.Int("samples", 601, "output samples")
		desyncIC  = flag.Bool("desync-init", false, "start in the developed wavefront state")
		seed      = flag.Uint64("seed", 1, "noise / perturbation seed")
		svgDir    = flag.String("svg", "", "directory to write SVG plots into (empty = none)")
		stream    = flag.Bool("stream", false, "stream samples through online accumulators instead of materializing the trajectory (constant memory; no phase strip / SVGs)")
		archDir   = flag.String("archive", "", "archive the run (all sample rows + summary metrics) into a new shard of this directory; implies -stream")
		archCodec = flag.String("archive-codec", "delta", "record codec for archived shards: delta (XOR-delta compressed) | raw (POMARC1 payload bits)")
		quiet     = flag.Bool("quiet", false, "suppress the ASCII phase strip")
		cfgPath   = flag.String("config", "", "load a scenario JSON (replaces the model flags)")
		savePath  = flag.String("save-config", "", "write the effective scenario JSON and exit")
		listFams  = flag.Bool("list-families", false, "list the registered scenario families and exit")

		sweepDir     = flag.String("sweep", "", "join a fault-tolerant distributed sweep archiving into this shared directory (this process becomes one lease-coordinated worker)")
		sweepPoints  = flag.Int("sweep-points", 0, "sweep grid size (required with -sweep)")
		sweepParam   = flag.String("sweep-param", "sigma", "swept parameter: sigma | seed")
		sweepFrom    = flag.Float64("sweep-from", 0.5, "first grid value (seed sweeps: a non-negative integer to count up from)")
		sweepTo      = flag.Float64("sweep-to", 3.0, "last grid value (sigma sweeps only)")
		rangeSize    = flag.Int("range-size", 0, "points per lease range (0 = default)")
		leaseTTL     = flag.Duration("lease-ttl", 0, "lease expiry; a worker silent this long forfeits its range (0 = default)")
		rangeWorkers = flag.Int("range-workers", 0, "point goroutines per leased range (0 = 1)")
		workerID     = flag.String("worker-id", "", "unique worker name in lease files (empty = host-pid)")
		coordinate   = flag.Bool("coordinate", false, "with -sweep: publish/validate the sweep plan and exit without claiming work")
	)
	flag.Parse()

	codec, err := archive.ParseCodec(*archCodec)
	if err != nil {
		log.Fatal(err)
	}
	shardCodec = codec

	if *listFams {
		for _, f := range scenario.Families() {
			fmt.Println(f)
		}
		return
	}

	var spec *scenario.Spec
	if *cfgPath != "" {
		loaded, err := scenario.LoadFile(*cfgPath)
		if err != nil {
			log.Fatal(err)
		}
		spec = loaded
	} else {
		offs, err := parseOffsets(*offsets)
		if err != nil {
			log.Fatal(err)
		}
		spec = &scenario.Spec{
			Name:             "pomsim",
			N:                *n,
			TComp:            *tComp,
			TComm:            *tComm,
			Potential:        scenario.PotentialSpec{Kind: *potName, Sigma: *sigma},
			Offsets:          offs,
			Periodic:         *periodic,
			Rendezvous:       *rendez,
			GroupedWaitall:   *grouped,
			CouplingOverride: *coupling,
			CommLag:          *commLag,
			TEnd:             *tEnd,
			Samples:          *samples,
			PerturbSeed:      *seed,
		}
		if *potName == "tanh" || *potName == "kuramoto" {
			spec.Potential.Sigma = 0
		}
		if *delayRank >= 0 {
			spec.Delays = []scenario.DelaySpec{{
				Rank: *delayRank, Start: *delayAt, Duration: *delayLen,
			}}
		}
		if *jitter > 0 {
			spec.Jitter = &scenario.JitterSpec{Dist: "gaussian", Amp: *jitter, Seed: *seed}
		}
		switch {
		case *desyncIC:
			spec.Init = "desync"
		case *potName == "desync":
			spec.Init = "random"
			spec.PerturbAmp = 0.02
		}
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := spec.Save(f); err != nil {
			_ = f.Close()
			log.Fatal(err)
		}
		// A buffered write error can surface at Close; "written" must
		// not be reported until the file is really closed clean.
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scenario written to %s\n", *savePath)
		return
	}

	// Distributed worker mode: sweep the scenario along one parameter
	// into a shared lease-coordinated archive (internal/dsweep). Works
	// for every family — each point builds through the unified runtime.
	if *sweepDir != "" {
		if *svgDir != "" {
			log.Fatal("-svg is incompatible with -sweep (archive runs stream)")
		}
		runDistributed(spec, sweepOpts{
			dir:          *sweepDir,
			points:       *sweepPoints,
			param:        *sweepParam,
			from:         *sweepFrom,
			to:           *sweepTo,
			rangeSize:    *rangeSize,
			ttl:          *leaseTTL,
			rangeWorkers: *rangeWorkers,
			workerID:     *workerID,
			coordinate:   *coordinate,
		})
		return
	}

	// Every family builds through the registry; only a POM run without
	// -stream/-archive materializes its trajectory (phase strip, SVGs).
	// All other runs stream through runStreamed and the family's
	// cliFamilies entry.
	name, err := spec.FamilyName()
	if err != nil {
		log.Fatal(err)
	}
	sys, runEnd, runSamples, err := spec.BuildSystem()
	if err != nil {
		log.Fatal(err)
	}
	fam := cliFamilies[name]
	if name != "pom" && *svgDir != "" && fam.artifacts == nil {
		log.Fatalf("-svg: family %q runs in streaming mode and writes no plots or traces", name)
	}
	if name == "pom" && !*stream && *archDir == "" {
		m := sys.(*core.Model)
		res, err := m.Run(runEnd, runSamples)
		if err != nil {
			log.Fatal(err)
		}
		report(spec, m, res, *svgDir, *quiet)
		return
	}
	if name == "pom" && *svgDir != "" {
		log.Fatal("-svg needs the materialized trajectory; drop -stream/-archive")
	}
	runStreamed(&streamed{spec: spec, sys: sys, tEnd: runEnd, samples: runSamples}, fam, *archDir)
	if *svgDir != "" {
		if err := fam.artifacts(spec, sys, *svgDir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace SVG and CSV written to %s\n", *svgDir)
	}
}

// shardCodec is the record codec of every shard this invocation
// writes, set once in main from -archive-codec.
var shardCodec archive.Codec

// runStreamed runs a built scenario through the unified runtime in one
// streamed pass: the standard summary accumulators, the family's extra
// sinks and, with a non-empty archDir, a record in a new shard of the
// archive there. Only O(N) state is retained. Each invocation gets its
// own shard and uses the shard id as the point index, so successive
// runs accumulate in one directory.
func runStreamed(r *streamed, fam familyCLI, archDir string) {
	var extra []sim.Sink
	printSinks := func() {}
	if fam.sinks != nil {
		sinks, after, err := fam.sinks(r.spec, r.sys)
		if err != nil {
			log.Fatal(err)
		}
		extra, printSinks = sinks, after
	}

	var aw *archive.Writer
	var rec *archive.RecordWriter
	if archDir != "" {
		shard, err := archive.NextShard(archDir)
		if err != nil {
			log.Fatal(err)
		}
		if aw, err = archive.CreateWith(archDir, shard, shardCodec); err != nil {
			log.Fatal(err)
		}
		params := append([]float64{float64(r.sys.Dim()), r.tEnd, float64(r.samples)}, fam.params(r.spec)...)
		if rec, err = aw.Begin(uint64(shard), params); err != nil {
			log.Fatal(err)
		}
		extra = append(extra, rec)
	}

	sum, err := sim.RunSummary(r.sys, r.tEnd, r.samples, 0.1, 0.15, extra...)
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		if err := rec.Finish(sum.Vector(), nil); err != nil {
			log.Fatal(err)
		}
		if err := aw.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("archived %d sample rows to %s (point %d)\n", r.samples, aw.Path(), rec.Index())
	}
	r.sum = sum
	fam.report(r)
	printSinks()
}

// report prints the run summary and writes optional SVGs.
func report(spec *scenario.Spec, m *core.Model, res *core.Result, svgDir string, quiet bool) {
	fmt.Printf("POM run: %s  N=%d potential=%s offsets=%v v_p=%.3g coupling=%.3g\n",
		spec.Name, spec.N, spec.Potential.Kind, spec.Offsets, m.Vp(), m.Coupling())
	fmt.Printf("solver: %s\n", res.Stats)
	fmt.Printf("asymptotic spread: %.4f rad   frequency-locked: %v\n",
		res.AsymptoticSpread(0.15), res.FrequencyLocked(0.2, 1e-2))
	if rt, err := res.ResyncTime(0.1); err == nil {
		fmt.Printf("resynchronized at t = %.2f\n", rt)
	} else {
		fmt.Println("no resynchronization (broken-symmetry state)")
		gaps := res.AsymptoticGaps(0.15)
		var s float64
		for _, g := range gaps {
			if g < 0 {
				g = -g
			}
			s += g
		}
		fmt.Printf("mean |adjacent gap| = %.4f%s\n", s/float64(len(gaps)), stableZeroNote(spec))
	}
	for _, d := range spec.Delays {
		if wf, err := res.MeasureWave(d.Rank, d.Start, 0.15); err == nil {
			printWave(d.Rank, wf)
		}
	}

	if !quiet {
		fmt.Println("\nphase strip (rows: time, columns: ranks; digits = lag behind leader):")
		fmt.Print(viz.PhaseStrip(res.NormalizedPhases(), 30))
	}

	if svgDir != "" {
		if err := writeSVGs(svgDir, res, m); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SVGs written to %s\n", svgDir)
	}
}

// parseOffsets parses "-1,1,-2" into a stencil offset list.
func parseOffsets(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad offset %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// writeSVGs renders the phase-timeline and final circle diagram.
func writeSVGs(dir string, res *core.Result, m *core.Model) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	norm := res.NormalizedPhases()
	plot := viz.LinePlot{
		Title:  "Normalized phases θᵢ − ωt (lagger baseline)",
		XLabel: "time", YLabel: "phase [rad]",
	}
	stride := m.N() / 8
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < m.N(); i += stride {
		ys := make([]float64, len(res.Ts))
		for k := range res.Ts {
			ys[k] = norm[k][i]
		}
		plot.Series = append(plot.Series, viz.Series{
			Name: fmt.Sprintf("rank %d", i), Xs: res.Ts, Ys: ys,
		})
	}
	if err := os.WriteFile(filepath.Join(dir, "phases.svg"), []byte(plot.SVG()), 0o644); err != nil {
		return err
	}

	hm := viz.Heatmap{
		Title:  "Lag behind leader (white low, red high)",
		XLabel: "rank", YLabel: "time →",
		Data: norm,
	}
	if err := os.WriteFile(filepath.Join(dir, "lag_heatmap.svg"), []byte(hm.SVG()), 0o644); err != nil {
		return err
	}

	final := res.FinalPhases()
	freqs := res.FrequencyTimeline()
	var lastFreq []float64
	if len(freqs) > 0 {
		lastFreq = freqs[len(freqs)-1]
	}
	circ := viz.CircleDiagram{
		Title:  "Asymptotic phase configuration",
		Phases: final,
		Freqs:  lastFreq,
	}
	return os.WriteFile(filepath.Join(dir, "circle.svg"), []byte(circ.SVG()), 0o644)
}
