package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/ode"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serveClients is the closed-loop client count of the serve workloads:
// each client posts its next spec only after the last body byte of the
// previous response, so load never exceeds the two-core host.
const serveClients = 2

// warmSerial offsets the serials of serve-cold's warm-up specs from the
// measured ones, so warm-up never pre-caches a measured request.
const warmSerial = 7_000_000 // a multiple of len(rotation): serials keep their family

// rig is one server under test: a pomsimd Server with Workers 2 behind
// an in-process httptest listener on the loopback interface.
type rig struct {
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func startRig(dir string) (*rig, error) {
	srv, err := serve.New(serve.Config{
		Workers:  2,
		Clock:    wallClock{},
		CacheDir: dir,
		// Snapshots are read only between phases; never serve a stale one.
		SnapshotTTL: time.Nanosecond,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &rig{dir: dir, srv: srv, ts: ts, client: ts.Client()}, nil
}

func (r *rig) close() error {
	r.ts.Close()
	return r.srv.Close()
}

// response is one completed POST /v1/run as the client saw it.
type response struct {
	start, first, last time.Time
	status             int
	cache, state       string
	rows               int
}

// client is one closed-loop HTTP client with reusable buffers.
type client struct {
	http  *http.Client
	url   string
	buf   bytes.Buffer
	chunk []byte
	probe *heapProbe
}

func newClient(r *rig) *client {
	return &client{http: r.client, url: r.ts.URL + "/v1/run", chunk: make([]byte, 32<<10), probe: newHeapProbe()}
}

// post submits spec and reads the whole NDJSON body into c.buf, noting
// when the first and last body bytes arrived.
func (c *client) post(spec []byte) (response, error) {
	var res response
	c.buf.Reset()
	res.start = now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(spec))
	if err != nil {
		return res, err
	}
	defer func() { _ = resp.Body.Close() }() // body fully read below
	for {
		n, err := resp.Body.Read(c.chunk)
		if n > 0 {
			if res.first.IsZero() {
				res.first = now()
			}
			c.buf.Write(c.chunk[:n])
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, err
		}
	}
	res.last = now()
	if res.first.IsZero() {
		res.first = res.last
	}
	res.status = resp.StatusCode
	res.cache = resp.Header.Get("X-Pomsimd-Cache")
	res.state = resp.Trailer.Get("X-Pomsimd-Status")
	res.rows, _ = strconv.Atoi(resp.Trailer.Get("X-Pomsimd-Rows"))
	return res, nil
}

// checkResponse verifies one response: HTTP 200, the done trailer, the
// expected cache kind, and the row count in both the trailer and the
// body. want, when non-nil, must equal the body byte for byte.
func checkResponse(res response, body []byte, kind string, rows int, want []byte) error {
	switch {
	case res.status != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", res.status, body)
	case res.state != string(serve.StateDone):
		return fmt.Errorf("X-Pomsimd-Status %q, want done", res.state)
	case res.cache != kind:
		return fmt.Errorf("X-Pomsimd-Cache %q, want %q", res.cache, kind)
	case res.rows != rows:
		return fmt.Errorf("X-Pomsimd-Rows %d, want %d", res.rows, rows)
	case bytes.Count(body, []byte{'\n'}) != rows:
		return fmt.Errorf("body has %d rows, want %d", bytes.Count(body, []byte{'\n'}), rows)
	case want != nil && !bytes.Equal(body, want):
		return errors.New("body differs from its reference bytes")
	}
	return nil
}

// request is one measured request a phase issued.
type request struct {
	serial int
	spec   []byte
	res    response
	bytes  int
	ok     bool
}

// serveLoad describes what a serve phase posts and expects.
type serveLoad struct {
	spec  func(serial int) ([]byte, error)
	rows  func(serial int) int
	kind  string
	want  func(serial int) []byte // reference body, or nil
	keep  func(serial int) bool   // copy this body out for a later check
	first int                     // first serial of the phase
}

// phase is the outcome of one closed-loop measurement window.
type phase struct {
	ok                  int
	windows             []*window
	wall                time.Duration // Σ epoch wall time
	bodyBytes           int64
	bodyTime            time.Duration
	rt                  runtimeDelta
	reqs                []request // all requests, for traced replay
	kept                map[int][]byte
	next                int // first serial not yet issued
	executed, jobs, hit int // snapshot deltas
	diskBytes           int64
}

func (ph *phase) opsPerS() float64 { return float64(ph.ok) / ph.wall.Seconds() }

// runPhase drives serveClients closed-loop clients until dur has passed
// and at least minOps requests were issued. Every response is checked;
// a failure is counted on the report and never retried.
//
// The server is replaced by a fresh one after every size.epochOps
// requests, between timed epochs: the service keeps every job it has
// answered in its job table (an executed job with its whole body), so a
// long run would otherwise grow the heap without bound.
func (w *workload) runPhase(rp **rig, load serveLoad, dur time.Duration, traced bool) (*phase, error) {
	ph := &phase{kept: make(map[int][]byte), next: load.first}
	deadline := now().Add(dur)
	for {
		if err := w.runEpoch(*rp, load, deadline, traced, ph); err != nil {
			return nil, err
		}
		if !now().Before(deadline) && ph.next-load.first >= w.size.minOps {
			return ph, nil
		}
		if err := w.restartRig(rp, load.kind); err != nil {
			return nil, err
		}
	}
}

// restartRig closes the rig and starts a fresh server. A rig serving
// hits reopens its cache directory (the cache survives restarts); one
// serving misses starts over in a new directory.
func (w *workload) restartRig(rp **rig, kind string) error {
	old := *rp
	if err := old.close(); err != nil {
		return err
	}
	dir := old.dir
	if kind != string(serve.SubmitHit) {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		w.epochs++
		dir = filepath.Join(w.dir, fmt.Sprintf("epoch-%d", w.epochs))
	}
	r, err := startRig(dir)
	if err != nil {
		return err
	}
	*rp = r
	return nil
}

// runEpoch is one timed stretch of closed-loop load on one server. It
// ends at the deadline (once the phase issued minOps requests) or after
// size.epochOps requests, and adds its measurements to ph.
func (w *workload) runEpoch(r *rig, load serveLoad, deadline time.Time, traced bool, ph *phase) error {
	snap0 := r.srv.Snapshot()
	disk0, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	first := ph.next
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var genErr error
	win := &window{}
	var last time.Time
	rt0 := readRuntime()
	start := now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		cl := newClient(r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k-first >= w.size.epochOps ||
					k-load.first >= w.size.minOps && !now().Before(deadline) {
					return
				}
				spec, err := load.spec(k)
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					return
				}
				res, err := cl.post(spec)
				body := cl.buf.Bytes()
				if err == nil && w.tamperBody != nil {
					w.tamperBody(k, body)
				}
				if err == nil {
					var want []byte
					if load.want != nil {
						want = load.want(k)
					}
					err = checkResponse(res, body, load.kind, load.rows(k), want)
				}
				win.peak.observe(cl.probe)
				req := request{serial: k, res: res, bytes: len(body), ok: err == nil}
				mu.Lock()
				if err != nil {
					w.rep.fail("%s request %d (%s): %v", w.name, k, familyOf(k), err)
				} else {
					ph.ok++
					win.lat = append(win.lat, sinceMs(res.start, res.last))
					win.ttfr = append(win.ttfr, sinceMs(res.start, res.first))
					ph.bodyBytes += int64(len(body))
					ph.bodyTime += res.last.Sub(res.first)
					if load.keep != nil && load.keep(k) {
						ph.kept[k] = bytes.Clone(body)
					}
				}
				if traced {
					req.spec = spec
					ph.reqs = append(ph.reqs, req)
				}
				if last.Before(res.last) {
					last = res.last
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.rt.add(rt0.to(readRuntime()))
	if genErr != nil {
		return genErr
	}
	issued := int(next.Load()) - first - serveClients
	w.rep.attempted += issued
	ph.next = first + issued
	win.dur = last.Sub(start)
	ph.wall += win.dur
	ph.windows = append(ph.windows, win)
	snap1 := r.srv.Snapshot()
	ph.executed += snap1.Executions - snap0.Executions
	ph.jobs += snap1.Jobs - snap0.Jobs
	ph.hit += snap1.CacheHits - snap0.CacheHits
	disk1, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	ph.diskBytes += disk1 - disk0
	return nil
}

// warmUp posts specs one at a time, checks each like a measured
// request, and returns the bodies. One client keeps the set-up time a
// sum of request times, free of how two clients would share the work.
func warmUp(r *rig, specs [][]byte, rows []int, kind string) ([][]byte, error) {
	cl := newClient(r)
	out := make([][]byte, len(specs))
	for i, spec := range specs {
		res, err := cl.post(spec)
		if err == nil {
			err = checkResponse(res, cl.buf.Bytes(), kind, rows[i], nil)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		out[i] = bytes.Clone(cl.buf.Bytes())
	}
	return out, nil
}

// setupRig starts a server in a fresh cache directory and warms it with
// specs, size.setupReps times; it reports the median set-up time and
// keeps the last rig and its warm-up bodies.
func (w *workload) setupRig(specs [][]byte, rows []int) (*rig, [][]byte, error) {
	var times []float64
	var r *rig
	var bodies [][]byte
	for rep := 0; rep < w.size.setupReps; rep++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, nil, err
			}
		}
		dir := filepath.Join(w.dir, fmt.Sprintf("cache-%d", rep))
		t0 := now()
		var err error
		r, err = startRig(dir)
		if err != nil {
			return nil, nil, err
		}
		bodies, err = warmUp(r, specs, rows, string(serve.SubmitNew))
		if err != nil {
			_ = r.close()
			return nil, nil, err
		}
		times = append(times, float64(now().Sub(t0))/float64(time.Second))
	}
	w.rep.set("setup_s", median(times))
	return r, bodies, nil
}

// reportTimings sets the end-to-end metrics every workload shares.
func (w *workload) reportTimings(t timings, rt runtimeDelta, ops int, diskPerOp float64) {
	w.rep.set("ops_per_s", t.opsPerS)
	w.rep.set("latency_p50_ms", t.p50)
	w.rep.set("latency_p95_ms", t.p95)
	w.rep.set("ttfr_p50_ms", t.ttfr50)
	n := float64(max(ops, 1))
	w.rep.set("allocs_per_op", rt.allocObjects/n)
	w.rep.set("alloc_bytes_per_op", rt.allocBytes/n)
	w.rep.set("peak_heap_mib", t.peakMiB)
	w.rep.set("disk_bytes_per_op", diskPerOp)
}

// measure runs the workload's window: one untraced phase for an
// end-to-end run; an untraced and a traced half for a traced run, whose
// ops/s ratio is the tracing overhead.
func (w *workload) measure(rp **rig, load serveLoad) (untraced, traced *phase, err error) {
	if !w.trace {
		untraced, err = w.runPhase(rp, load, w.dur, false)
		return untraced, nil, err
	}
	untraced, err = w.runPhase(rp, load, w.dur/2, false)
	if err != nil {
		return nil, nil, err
	}
	load.first = untraced.next
	traced, err = w.runPhase(rp, load, w.dur/2, true)
	if err != nil {
		return nil, nil, err
	}
	w.rep.set("trace.overhead_ratio", 1-traced.opsPerS()/untraced.opsPerS())
	w.rep.set("go.gc_cycles_per_op", untraced.rt.gcCycles/float64(max(untraced.ok, 1)))
	w.rep.set("go.gc_cpu_fraction", untraced.rt.gcCPUFraction())
	w.rep.set("http.body_mb_per_s", float64(traced.bodyBytes)/1e6/traced.bodyTime.Seconds())
	return untraced, traced, nil
}

// runServeCold is the serve-cold workload.
//
// Why: it is the path a user's first run takes — decode, hash, build,
// solve, NDJSON render, archive encode, shard close and publish — with
// every request a cache miss (each spec is a distinct seed-derived
// variant of one of the six example scenarios, families taken round
// robin). The solver dominates, so render or cache-read gains barely
// move it. Bypasses: the cache-read path (KeyDir hit, shard decode).
func runServeCold(w *workload) error {
	gen := w.gen
	rowsOf := func(k int) int { return gen.rows[familyOf(k)] }
	var warm [][]byte
	var warmRows []int
	for i := range rotation {
		b, err := gen.spec(warmSerial + i)
		if err != nil {
			return err
		}
		warm = append(warm, b)
		warmRows = append(warmRows, rowsOf(warmSerial+i))
	}
	r, _, err := w.setupRig(warm, warmRows)
	if err != nil {
		return err
	}
	defer func() { _ = r.close() }() // a failing close surfaces in the final close below
	// One seed-chosen request per family, among the first two rotations,
	// is compared byte for byte against a direct run after the window.
	checkSerial := make(map[int]bool)
	for _, f := range families {
		var cands []int
		for k := range 2 * len(rotation) {
			if familyOf(k) == f {
				cands = append(cands, k)
			}
		}
		checkSerial[cands[w.rng.IntN(len(cands))]] = true
	}
	load := serveLoad{
		spec: gen.spec,
		rows: rowsOf,
		kind: string(serve.SubmitNew),
		keep: func(k int) bool { return checkSerial[k] },
	}
	untraced, traced, err := w.measure(&r, load)
	if err != nil {
		return err
	}
	specs, executed, jobs, hits := untraced.next, untraced.executed, untraced.jobs, untraced.hit
	if traced != nil {
		specs = traced.next
		executed += traced.executed
		jobs += traced.jobs
		hits += traced.hit
	}
	if !w.trace {
		w.reportTimings(summarize(untraced.windows), untraced.rt, untraced.ok, float64(untraced.diskBytes)/float64(max(untraced.executed, 1)))
	}
	w.rep.set("serve.executions_per_spec", float64(executed)/float64(specs))
	if executed != specs {
		w.rep.fail("serve-cold: %d executions for %d distinct specs", executed, specs)
	}
	w.rep.set("serve.hit_ratio", float64(hits)/float64(max(jobs, 1)))

	if err := w.checkCold(untraced.kept, checkSerial); err != nil {
		return err
	}
	if traced != nil {
		if err := w.replayCold(traced); err != nil {
			return err
		}
	}
	return r.close()
}

// checkCold compares each family's seed-chosen body against serve's own
// row renderer over a direct sim.RunStream of the same spec, and takes
// the workload's exact counts from those runs.
func (w *workload) checkCold(kept map[int][]byte, checkSerial map[int]bool) error {
	dir := filepath.Join(w.dir, "check")
	var bodyBytes int64
	for k := range 2 * len(rotation) {
		if !checkSerial[k] {
			continue
		}
		fam := familyOf(k)
		got, ok := kept[k]
		if !ok {
			w.rep.fail("serve-cold: check request %d (%s) did not complete", k, fam)
			continue
		}
		spec, err := w.gen.spec(k)
		if err != nil {
			return err
		}
		want, stats, err := directRun(spec, dir, k)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			w.rep.fail("serve-cold: %s body of request %d differs from a direct run", fam, k)
		}
		bodyBytes += int64(len(want))
		w.rep.setExact("ode.steps."+fam, float64(stats.Steps))
		w.rep.setExact("ode.evals."+fam, float64(stats.Evals))
		w.rep.setExact("ode.rejected."+fam, float64(stats.Rejected))
	}
	w.rep.setExact("http.body_bytes_per_op", float64(bodyBytes)/float64(len(families)))
	return w.setShardSizes(dir)
}

func (w *workload) setShardSizes(dir string) error {
	perPoint, ratio, err := shardSizes(dir)
	if err != nil {
		return err
	}
	w.rep.setExact("archive.bytes_per_point", perPoint)
	w.rep.setExact("archive.compression_ratio", ratio)
	return nil
}

// directRun runs spec in-process — sim.RunStream into serve.AppendRow
// and an archive record in shard `shard` of dir — and returns the body
// the service must have streamed plus the solver's exact work counts.
func directRun(body []byte, dir string, shard int) ([]byte, ode.Stats, error) {
	spec, err := decode(body)
	if err != nil {
		return nil, ode.Stats{}, err
	}
	sys, tEnd, samples, err := spec.BuildSystem()
	if err != nil {
		return nil, ode.Stats{}, err
	}
	aw, err := archive.CreateWith(dir, shard, archive.CodecDefault)
	if err != nil {
		return nil, ode.Stats{}, err
	}
	rec, err := aw.Begin(0, nil)
	if err != nil {
		_ = aw.Abort()
		return nil, ode.Stats{}, err
	}
	var out []byte
	render := sim.SinkFunc(func(t float64, y []float64) { out = serve.AppendRow(out, t, y) })
	stats, err := sim.RunStream(sys, tEnd, samples, sim.Tee(render, rec))
	if err == nil {
		err = rec.Finish(nil, nil)
	}
	if err != nil {
		_ = aw.Abort()
		return nil, ode.Stats{}, err
	}
	if err := aw.Close(); err != nil {
		return nil, ode.Stats{}, err
	}
	return out, stats, nil
}

// runServeHot is the serve-hot workload.
//
// Why: every measured request is a cache hit on a pool of seed-derived
// specs the set-up pre-ran, so it exercises KeyDir lookup, shard open
// and decode, RenderRecord and the HTTP write — the layers a render,
// codec or framing change moves. Bypasses: scenario build, the solver
// and archive encode; solver gains must not show here.
func runServeHot(w *workload) error {
	gen := w.gen
	pool := make([][]byte, w.size.hotPool)
	rows := make([]int, len(pool))
	for i := range pool {
		b, err := gen.spec(i)
		if err != nil {
			return err
		}
		pool[i], rows[i] = b, gen.rows[familyOf(i)]
	}
	r, bodies, err := w.setupRig(pool, rows)
	if err != nil {
		return err
	}
	defer func() { _ = r.close() }() // a failing close surfaces in the final close below
	var bodyBytes int64
	for _, b := range bodies {
		bodyBytes += int64(len(b))
	}
	w.rep.setExact("http.body_bytes_per_op", float64(bodyBytes)/float64(len(bodies)))
	cacheBytes, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	load := serveLoad{
		spec: func(k int) ([]byte, error) { return pool[k%len(pool)], nil },
		rows: func(k int) int { return rows[k%len(pool)] },
		kind: string(serve.SubmitHit),
		want: func(k int) []byte { return bodies[k%len(pool)] },
	}
	warmExecutions := r.srv.Snapshot().Executions
	untraced, traced, err := w.measure(&r, load)
	if err != nil {
		return err
	}
	if !w.trace {
		// No measured request writes: the disk cost per op is what the
		// pool's executions wrote into the cache.
		w.reportTimings(summarize(untraced.windows), untraced.rt, untraced.ok, float64(cacheBytes)/float64(len(pool)))
	}
	hits, jobs, executed := untraced.hit, untraced.jobs, warmExecutions+untraced.executed
	if traced != nil {
		hits += traced.hit
		jobs += traced.jobs
		executed += traced.executed
	}
	w.rep.set("serve.hit_ratio", float64(hits)/float64(max(jobs, 1)))
	if hits != jobs {
		w.rep.fail("serve-hot: %d of %d requests were cache hits", hits, jobs)
	}
	w.rep.set("serve.executions_per_spec", float64(executed)/float64(len(pool)))
	if executed != len(pool) {
		w.rep.fail("serve-hot: %d executions for %d pooled specs", executed, len(pool))
	}
	if err := w.setShardSizes(r.dir); err != nil {
		return err
	}
	if traced != nil {
		if err := w.replayHot(r, traced); err != nil {
			return err
		}
	}
	return r.close()
}

// replayOrder returns the traced requests interleaved by family, so a
// replay cut short by its time budget still covers every family.
func replayOrder(reqs []request) []request {
	byFam := make(map[string][]request)
	for _, q := range reqs {
		if q.ok {
			byFam[familyOf(q.serial)] = append(byFam[familyOf(q.serial)], q)
		}
	}
	var out []request
	for i := 0; len(out) < len(reqs); i++ {
		added := false
		for _, f := range families {
			if i < len(byFam[f]) {
				out = append(out, byFam[f][i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return out
}

// replayStep is one timed public-layer call of a replayed request.
type replayStep struct {
	name  string
	d     time.Duration
	bytes int64
	aux   bool
}

// layerTimes collects replayed step timings by metric.
type layerTimes struct {
	byName map[string][]float64 // span name (+ "." family) → ms
	bytes  map[string]int64
	dur    map[string]time.Duration
}

func newLayerTimes() *layerTimes {
	return &layerTimes{byName: make(map[string][]float64), bytes: make(map[string]int64), dur: make(map[string]time.Duration)}
}

func (lt *layerTimes) add(key string, st replayStep) {
	lt.byName[key] = append(lt.byName[key], float64(st.d)/float64(time.Millisecond))
	lt.bytes[st.name] += st.bytes
	lt.dur[st.name] += st.d
}

// traceRequest records a replayed request: its client-side span, and
// the replay steps re-based onto the request's start as its children,
// laid end to end. The request span's self time is then the part of
// its latency the layer calls do not account for.
func (w *workload) traceRequest(q request, steps []replayStep) {
	root := w.tr.id()
	start := w.tr.at(q.res.start)
	w.tr.add(span{ID: root, Trace: int64(q.serial) + 1, Name: "http.request", Start: start, End: w.tr.at(q.res.last), Bytes: int64(q.bytes)})
	at := start
	for _, st := range steps {
		sp := span{Parent: root, Trace: int64(q.serial) + 1, Name: st.name, Start: at, End: at + st.d, Bytes: st.bytes, Aux: st.aux}
		if !st.aux {
			at += st.d
		}
		w.tr.add(sp)
	}
}

// replayCold replays each traced serve-cold request through the public
// layer functions, after the window: decode, hash, build, a solve into
// a no-op sink, Submit on a fresh replay server (whose execution yields
// the record), then shard read, RenderRecord, and a re-encode + close.
func (w *workload) replayCold(ph *phase) error {
	dir := filepath.Join(w.dir, "replay")
	rs, err := serve.New(serve.Config{Workers: 1, Clock: wallClock{}, CacheDir: filepath.Join(dir, "cache")})
	if err != nil {
		return err
	}
	defer func() { _ = rs.Close() }() // read-only use after the replays
	handler := rs.Handler()
	lt := newLayerTimes()
	var queueWait []float64
	budget := now().Add(w.replayBudget())
	for i, q := range replayOrder(ph.reqs) {
		if i >= len(families) && budget.Before(now()) {
			break
		}
		fam := familyOf(q.serial)
		var steps []replayStep
		step := func(name string, d time.Duration, b int64, aux bool) {
			st := replayStep{name: name, d: d, bytes: b, aux: aux}
			steps = append(steps, st)
			lt.add(name+"."+fam, st)
		}
		t0 := now()
		spec, err := decode(q.spec)
		t1 := now()
		if err != nil {
			return err
		}
		hash, err := scenario.CanonicalHash(spec)
		t2 := now()
		if err != nil {
			return err
		}
		sys, tEnd, samples, err := spec.BuildSystem()
		t3 := now()
		if err != nil {
			return err
		}
		var sink firstRowSink
		_, err = sim.RunStream(sys, tEnd, samples, &sink)
		t4 := now()
		if err != nil {
			return err
		}
		job, kind, err := rs.Submit(spec)
		t5 := now()
		if err != nil {
			return err
		}
		if kind != serve.SubmitNew {
			return fmt.Errorf("replay of request %d was a %s, want a miss", q.serial, kind)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil))
		t6 := now()
		cached, ok, err := rs.CachedRecord(hash)
		t7 := now()
		if err != nil || !ok {
			return fmt.Errorf("replay of request %d: cached record missing (%v)", q.serial, err)
		}
		body := serve.RenderRecord(cached)
		t8 := now()
		if !bytes.Equal(body, rec.Body.Bytes()) {
			w.rep.fail("serve-cold: replayed %s request %d rendered differently from its stream", fam, q.serial)
		}
		enc, err := encodeRecord(dir, i, cached)
		if err != nil {
			return err
		}
		step("scenario.decode", t1.Sub(t0), int64(len(q.spec)), false)
		step("scenario.hash", t2.Sub(t1), 0, false)
		step("serve.submit", t5.Sub(t4), 0, false)
		step("scenario.build", t3.Sub(t2), 0, false)
		step("sim.solve", t4.Sub(t3), 0, false)
		step("serve.render", t8.Sub(t7), int64(len(body)), false)
		step("archive.encode", enc.encode, enc.bytes, false)
		step("archive.close", enc.close, 0, false)
		step("serve.replay_exec", t6.Sub(t5), 0, true)
		step("archive.read", t7.Sub(t6), decodedBytes(cached), true)
		w.traceRequest(q, steps)
		firstRow := sink.first.Sub(t3)
		wait := q.res.first.Sub(q.res.start) - (t3.Sub(t0) + t5.Sub(t4) + firstRow)
		queueWait = append(queueWait, max(0, float64(wait)/float64(time.Millisecond)))
	}
	for _, f := range families {
		w.rep.set("scenario.build_ms."+f, median(lt.byName["scenario.build."+f]))
		w.rep.set("sim.solve_ms."+f, median(lt.byName["sim.solve."+f]))
		w.rep.set("serve.render_ms."+f, median(lt.byName["serve.render."+f]))
	}
	w.rep.set("serve.queue_wait_ms.derived", median(queueWait))
	w.setCommonReplay(lt)
	w.rep.set("archive.encode_mb_per_s", mbPerS(lt, "archive.encode"))
	w.rep.set("archive.close_ms", median(lt.all("archive.close")))
	return nil
}

// replayHot replays each traced serve-hot request: decode, hash, Submit
// (a hit), the cached-record read, and RenderRecord.
func (w *workload) replayHot(r *rig, ph *phase) error {
	lt := newLayerTimes()
	budget := now().Add(w.replayBudget())
	for i, q := range replayOrder(ph.reqs) {
		if i >= len(families) && budget.Before(now()) {
			break
		}
		fam := familyOf(q.serial)
		var steps []replayStep
		step := func(name string, d time.Duration, b int64) {
			st := replayStep{name: name, d: d, bytes: b}
			steps = append(steps, st)
			lt.add(name+"."+fam, st)
		}
		t0 := now()
		spec, err := decode(q.spec)
		t1 := now()
		if err != nil {
			return err
		}
		hash, err := scenario.CanonicalHash(spec)
		t2 := now()
		if err != nil {
			return err
		}
		_, kind, err := r.srv.Submit(spec)
		t3 := now()
		if err != nil {
			return err
		}
		if kind != serve.SubmitHit {
			return fmt.Errorf("replay of request %d was a %s, want a hit", q.serial, kind)
		}
		rec, ok, err := r.srv.CachedRecord(hash)
		t4 := now()
		if err != nil || !ok {
			return fmt.Errorf("replay of request %d: cached record missing (%v)", q.serial, err)
		}
		body := serve.RenderRecord(rec)
		t5 := now()
		step("scenario.decode", t1.Sub(t0), int64(len(q.spec)))
		step("scenario.hash", t2.Sub(t1), 0)
		step("serve.submit", t3.Sub(t2), 0)
		step("archive.read", t4.Sub(t3), decodedBytes(rec))
		step("serve.render", t5.Sub(t4), int64(len(body)))
		w.traceRequest(q, steps)
	}
	for _, f := range families {
		w.rep.set("serve.render_ms."+f, median(lt.byName["serve.render."+f]))
	}
	w.setCommonReplay(lt)
	return nil
}

// all returns every timing of a span name across families.
func (lt *layerTimes) all(name string) []float64 {
	var out []float64
	for _, f := range families {
		out = append(out, lt.byName[name+"."+f]...)
	}
	return out
}

func mbPerS(lt *layerTimes, name string) float64 {
	if lt.dur[name] <= 0 {
		return 0
	}
	return float64(lt.bytes[name]) / 1e6 / lt.dur[name].Seconds()
}

// setCommonReplay reports the replay metrics both serve workloads share.
func (w *workload) setCommonReplay(lt *layerTimes) {
	w.rep.set("scenario.decode_us", 1000*median(lt.all("scenario.decode")))
	w.rep.set("scenario.hash_us", 1000*median(lt.all("scenario.hash")))
	w.rep.set("serve.submit_us", 1000*median(lt.all("serve.submit")))
	w.rep.set("serve.render_mb_per_s", mbPerS(lt, "serve.render"))
	w.rep.set("archive.read_ms", median(lt.all("archive.read")))
	w.rep.set("archive.decode_mb_per_s", mbPerS(lt, "archive.read"))
	var reqDur time.Duration
	var reqs int
	for _, sp := range w.tr.spans {
		if sp.Name == "http.request" {
			reqDur += sp.dur()
			reqs++
		}
	}
	self := w.tr.selfTimes()
	w.rep.set("serve.unaccounted_share", float64(self["http"])/float64(max(reqDur, 1)))
	w.setSelf(self, reqs)
}

// replayBudget bounds the replay phase of a traced run.
func (w *workload) replayBudget() time.Duration { return 2 * w.dur }
