package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric. The tables below are the
// benchmark's contract and must match BENCHMARK.json (a test pins it).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the service or a sweep sees; every
// workload reports all of them on untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"ttfr_p50_ms", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "bytes"},
	{"peak_heap_mib", "MiB"},
	{"disk_bytes_per_op", "bytes"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// layer it bypasses; the run prints which ones those are.
var perLayer = func() []metricDef {
	var defs []metricDef
	fam := func(prefix, unit string) {
		for _, f := range families {
			defs = append(defs, metricDef{prefix + "." + f, unit})
		}
	}
	fam("scenario.build_ms", "ms")
	defs = append(defs, metricDef{"scenario.decode_us", "us"}, metricDef{"scenario.hash_us", "us"})
	fam("sim.solve_ms", "ms")
	defs = append(defs, metricDef{"sim.solve_ms.sweep_point", "ms"})
	fam("ode.steps", "count")
	fam("ode.evals", "count")
	fam("ode.rejected", "count")
	fam("serve.render_ms", "ms")
	defs = append(defs,
		metricDef{"serve.render_mb_per_s", "MB/s"},
		metricDef{"serve.submit_us", "us"},
		metricDef{"serve.queue_wait_ms.derived", "ms"},
		metricDef{"serve.hit_ratio", "ratio"},
		metricDef{"serve.executions_per_spec", "ratio"},
		metricDef{"serve.unaccounted_share", "ratio"},
		metricDef{"http.body_mb_per_s", "MB/s"},
		metricDef{"http.body_bytes_per_op", "bytes"},
		metricDef{"archive.encode_mb_per_s", "MB/s"},
		metricDef{"archive.close_ms", "ms"},
		metricDef{"archive.read_ms", "ms"},
		metricDef{"archive.decode_mb_per_s", "MB/s"},
		metricDef{"archive.bytes_per_point", "bytes"},
		metricDef{"archive.compression_ratio", "ratio"},
		metricDef{"dsweep.overhead_ratio", "ratio"},
		metricDef{"dsweep.merge_ms", "ms"},
		metricDef{"dsweep.leased", "count"},
		metricDef{"dsweep.stolen", "count"},
		metricDef{"dsweep.lost", "count"},
		metricDef{"go.gc_cycles_per_op", "count"},
		metricDef{"go.gc_cpu_fraction", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self_ms." + l, "ms"})
	}
	defs = append(defs, metricDef{"host.calibration_ms", "ms"})
	return defs
}()

// selfLayers are the layers self time is reported for, per operation.
var selfLayers = []string{"scenario", "sim", "serve", "http", "archive", "sweep", "dsweep"}

// report is one workload run's outcome.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// exact holds counts that depend only on the workload inputs; they
	// must repeat bit for bit on every run of the same seed.
	exact map[string]float64
	log   io.Writer
}

func newReport(log io.Writer) *report {
	return &report{metrics: make(map[string]float64), exact: make(map[string]float64), log: log}
}

// fail counts a failed check as a failed operation and says why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(r.log, "perfbench: check failed: "+format+"\n", args...)
	}
}

// failN counts n failed operations with one reason.
func (r *report) failN(n int, format string, args ...any) {
	r.failed += n - 1
	r.fail(format, args...)
}

// set records a metric value.
func (r *report) set(name string, v float64) { r.metrics[name] = v }

// setExact records an exact count as a metric and for drift checks.
func (r *report) setExact(name string, v float64) {
	r.metrics[name] = v
	r.exact[name] = v
}

// missing lists the metrics of defs the run did not report, sorted.
func (r *report) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := r.metrics[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}
