package main

import (
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// window is one slice of a measured phase — a server lifetime or a
// sweep round: the operations completed in it, the time it took, and
// the peak heap seen in it.
type window struct {
	lat, ttfr []float64 // per operation, ms
	dur       time.Duration
	peak      peakHeap
}

// timings are a phase's end-to-end timing and memory metrics. The rate
// and the latency percentiles pool every operation of the phase; the
// peak heap is the median of the windows' peaks, so a collection that
// happens to land late spoils one window, not the run.
type timings struct {
	opsPerS, p50, p95, ttfr50, peakMiB float64
}

func summarize(ws []*window) timings {
	var peak, lat, ttfr []float64
	var dur time.Duration
	for _, w := range ws {
		if len(w.lat) == 0 || w.dur <= 0 {
			continue
		}
		dur += w.dur
		peak = append(peak, w.peak.mib())
		lat = append(lat, w.lat...)
		ttfr = append(ttfr, w.ttfr...)
	}
	return timings{
		opsPerS: float64(len(lat)) / dur.Seconds(),
		p50:     quantile(lat, 0.5),
		p95:     quantile(lat, 0.95),
		ttfr50:  quantile(ttfr, 0.5),
		peakMiB: median(peak),
	}
}

// runtime/metrics sample names the benchmark reads.
const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
)

// runtimeStats is one reading of the process-wide runtime counters.
type runtimeStats struct {
	allocObjects, allocBytes, gcCycles uint64
	gcCPU, totalCPU                    float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: mAllocObjects}, {Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeStats{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// runtimeDelta is the runtime cost of measured stretches.
type runtimeDelta struct {
	allocObjects, allocBytes, gcCycles float64
	gcCPU, totalCPU                    float64
}

func (a runtimeStats) to(b runtimeStats) runtimeDelta {
	return runtimeDelta{
		allocObjects: float64(b.allocObjects - a.allocObjects),
		allocBytes:   float64(b.allocBytes - a.allocBytes),
		gcCycles:     float64(b.gcCycles - a.gcCycles),
		gcCPU:        b.gcCPU - a.gcCPU,
		totalCPU:     b.totalCPU - a.totalCPU,
	}
}

// add accumulates another stretch.
func (d *runtimeDelta) add(e runtimeDelta) {
	d.allocObjects += e.allocObjects
	d.allocBytes += e.allocBytes
	d.gcCycles += e.gcCycles
	d.gcCPU += e.gcCPU
	d.totalCPU += e.totalCPU
}

// gcCPUFraction is the share of the runtime's CPU estimate spent in GC.
func (d runtimeDelta) gcCPUFraction() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// peakHeap keeps the largest heap reading seen. Readings are taken at
// operation boundaries, so the peak compares between runs of one
// workload; it is not an instantaneous maximum.
type peakHeap struct{ max atomic.Uint64 }

// heapProbe is one goroutine's runtime/metrics buffer for peakHeap.
type heapProbe [1]metrics.Sample

func newHeapProbe() *heapProbe { return &heapProbe{{Name: mHeapObjects}} }

// observe reads the heap through the caller's probe and raises the peak.
func (p *peakHeap) observe(probe *heapProbe) {
	metrics.Read(probe[:])
	v := probe[0].Value.Uint64()
	for {
		cur := p.max.Load()
		if v <= cur || p.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// mib returns the peak in MiB.
func (p *peakHeap) mib() float64 { return float64(p.max.Load()) / (1 << 20) }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
