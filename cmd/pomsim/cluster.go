package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/viz"
)

// clusterMetrics returns the cluster family's post-run closure: it
// prints the trace metrics the paper reads from ITAC, measured on the
// engine run the built system replays.
func clusterMetrics(s *scenario.Spec, sys sim.System) ([]sim.Sink, func(), error) {
	res := sys.(*cluster.TraceSystem).Result()
	return nil, func() { printTraceMetrics(s.Cluster, res) }, nil
}

// printTraceMetrics prints the makespan, the per-socket bandwidth, the
// idle wave of every delay, the asymptotic desync of a disturbed run and
// the mean communication fraction.
func printTraceMetrics(c *scenario.ClusterSpec, res *cluster.Result) {
	tr := res.Trace
	iterDur := tr.MeanIterationTime(0)
	fmt.Printf("makespan %.4f s, %d events, mean iteration %.6f s\n",
		res.Makespan, res.Events, iterDur)
	for s, b := range res.SocketBytes {
		if b > 0 {
			fmt.Printf("socket %d bandwidth: %.2f GB/s\n", s, res.AggregateBandwidth(s)/1e9)
		}
	}
	// The wave starts where the delayed iteration does: at the end of
	// the rank's previous iteration, so a delay at iteration 0 has no
	// measured origin.
	for _, d := range c.Delays {
		if d.Iter == 0 {
			continue
		}
		tDelay := tr.IterEnds[d.Rank][d.Iter-1]
		if wm, err := tr.MeasureIdleWave(d.Rank, tDelay, 0.5*iterDur, iterDur, c.Periodic); err == nil {
			fmt.Printf("idle wave: %.3f ranks/iter (R²=%.2f, reached %d)\n",
				wm.SpeedRanksPerIter, wm.R2, wm.Reached)
		} else {
			fmt.Printf("idle wave: %v\n", err)
		}
	}
	if len(c.Delays) > 0 {
		if dm, err := tr.MeasureDesync(res.Makespan*0.75, res.Makespan*0.97, 40); err == nil {
			fmt.Printf("asymptotic desync: spread %.3f iterations, adjacent skew %.4f\n",
				dm.Spread, dm.MeanAbsAdjacent)
		}
	}
	var meanFrac float64
	fracs := tr.CommFractions()
	for _, f := range fracs {
		meanFrac += f
	}
	fmt.Printf("mean communication fraction: %.3f\n", meanFrac/float64(len(fracs)))
}

// writeTraceArtifacts writes the run's ITAC-style Gantt chart to
// dir/trace.svg and its full trace to dir/trace.csv.
func writeTraceArtifacts(s *scenario.Spec, sys sim.System, dir string) error {
	res := sys.(*cluster.TraceSystem).Result()
	tr := res.Trace
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g := viz.Gantt{
		Title: fmt.Sprintf("%s trace (white compute, red communication)", kernelTitle(s.Cluster)),
		Rows:  tr.N(),
		T1:    res.Makespan,
	}
	for r, spans := range tr.Spans {
		for _, sp := range spans {
			g.Spans = append(g.Spans, viz.GanttSpan{
				Row: r, Start: sp.Start, End: sp.End,
				Comm: sp.Kind == trace.SpanComm,
			})
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.svg"), []byte(g.SVG()), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.csv"))
	if err != nil {
		return err
	}
	if err := tr.WriteCSV(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// kernelTitle names the spec's workload in the Gantt title: the paper
// kernel's name, or "custom" for a compute_seconds workload.
func kernelTitle(c *scenario.ClusterSpec) string {
	if c.ComputeSeconds > 0 {
		return "custom"
	}
	name := c.Kernel
	if name == "" {
		name = "pisolver"
	}
	k, err := kernels.ByName(name) // validated by the build
	if err != nil {
		return name
	}
	return k.Name
}
