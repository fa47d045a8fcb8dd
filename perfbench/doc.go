// Command perfbench is the repository's benchmark: it measures the
// service (pomsimd's serve package behind HTTP) and distributed sweeps
// (dsweep) end to end, and splits the same work by layer in a separate
// traced run. It times calls into the public functions of the layers
// from outside; the program under test is never modified or hooked.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 15   # every workload
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// host fingerprint (CPU model, nproc, GOMAXPROCS, GOAMD64, Go version,
// and the time of a fixed calibration loop, so results from different
// hosts compare as ratios) and every metric as "workload name value
// unit". The exit code is 0 when every output check passed, 1 when one
// failed, and 2 when the run could not complete (no result then).
//
// # Workloads
//
// All load comes from one process with two closed-loop clients or two
// fleet workers: each sends its next request only after the previous
// one finished. The seed generates every input; the program sees only
// the generated specs.
//
//   - serve-cold: two clients POST /v1/run to an httptest server with
//     serve.Config{Workers: 2}. Each spec is a distinct variant of one
//     of examples/scenarios/*.json with one numeric field perturbed
//     (a seed field, or a float scaled by at most 4%), families taken
//     round robin with kuramoto in a second of seven slots, so every
//     request is a cache miss. The server is replaced by a fresh one
//     every 150 requests, between timed epochs, because the service
//     keeps every finished job's body in memory. Why: it is a user's
//     first run — build, solve, render, archive encode, publish; the
//     solver dominates. Bypasses the cache-read path.
//   - serve-hot: the same server; set-up pre-runs a pool of 14 seed-
//     derived specs (two rotations) and every measured request is a
//     cache hit. Why: it isolates KeyDir lookup, shard read and decode,
//     RenderRecord and the HTTP write. Bypasses scenario build, the
//     solver and archive encode, so solver gains must not show here.
//   - sweep-fleet: two dsweep.Run workers (RangeWorkers 1) sweep a
//     seed-placed 48 × 20 sigma × coupling grid of the POM desync shape
//     (N=8, 201 samples, t_end 40) in ranges of 64 points, then
//     dsweep.Merge; rounds repeat in fresh directories for the whole
//     window. The lease TTL is ten minutes: both workers share one
//     process, so a stall of the process must not expire a lease. Why: points are small, so per-point runtime costs show —
//     lease files, shard fsync and rename, merge decode and re-encode.
//     Bypasses serve and http.
//
// Coalesced attaches get no workload: whether a duplicate coalesces or
// hits depends on the scheduler, so the split would not repeat.
//
// # End-to-end metrics (--trace 0)
//
// setup_s: server start plus a warm-up pass over one rotation of
// specs (serve-cold) or the hit pool (serve-hot), or Coordinate plus one
// warm-up round (sweep-fleet); the median of three set-ups.
// ops_per_s: requests/s, or merged points/s including merge time.
// latency_p50_ms and latency_p95_ms: POST to the last body byte, or per
// point. ttfr_p50_ms: POST to the first NDJSON byte, or from a sweep
// round's start to its first completed range (the last record sealed
// into the first shard a reader could see). allocs_per_op
// and alloc_bytes_per_op: runtime/metrics. peak_heap_mib: the largest
// heap reading at an operation boundary. disk_bytes_per_op: archive
// bytes written per executed result or point.
//
// peak_heap_mib is the median over windows — one server lifetime of 150
// requests, or one sweep round — of each window's peak, so a collection
// that happens to land late spoils one window, not the run.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures half its window untraced and half traced
// (trace.overhead_ratio compares their ops/s), then replays each traced
// serve request through the public layer functions: scenario.Load,
// CanonicalHash, BuildSystem, sim.RunStream into a no-op sink, Submit
// (on a fresh replay server for serve-cold), the cached-record read,
// RenderRecord and an archive re-encode. The replayed calls become the
// children of the request's span, so the request's self time is the
// latency the replay does not account for (serve.unaccounted_share).
// Sweep spans wrap each worker's dsweep.Run, each point and its build,
// solve and record seal, and the merge. Spans stay in memory and are
// written to <work>/traces/<workload>-seed<n>.jsonl at the end. A layer
// a workload bypasses reports 0.
//
// Which end-to-end metric each layer metric should move, and where:
//
//	scenario.build_ms.<family>         latency_p95_ms, ops_per_s   serve-cold (linstab, cluster)
//	scenario.decode_us, .hash_us       latency_p50_ms              serve-hot
//	sim.solve_ms.<family>              ops_per_s, latency_p95_ms   serve-cold (torus2d)
//	sim.solve_ms.sweep_point           ops_per_s                   sweep-fleet
//	ode.steps/evals/rejected.<family>  explains solve time         serve-cold
//	serve.render_ms.<family>, _mb_per_s ops_per_s, latency_p50_ms  serve-hot
//	serve.submit_us                    ttfr_p50_ms                 serve-cold, serve-hot
//	serve.queue_wait_ms.derived        ttfr_p50_ms                 serve-cold
//	http.body_mb_per_s, _bytes_per_op  latency_p50_ms              serve-hot
//	archive.encode_mb_per_s, close_ms  ops_per_s                   sweep-fleet, serve-cold
//	archive.read_ms, decode_mb_per_s   latency_p50_ms              serve-hot
//	archive.bytes_per_point, ratio     disk_bytes_per_op           all
//	dsweep.overhead_ratio, merge_ms    ops_per_s                   sweep-fleet
//	go.gc_cycles_per_op, gc_cpu_frac.  allocs_per_op, latency_p95  all
//
// serve.queue_wait_ms.derived is derived, not measured: the request's
// time to first row minus its replayed decode, hash, submit, build and
// first-row time.
//
// # Checks
//
// Every response must be 200 with the X-Pomsimd-Status: done trailer,
// the expected X-Pomsimd-Cache kind and the expected row count;
// serve-hot bodies must equal their warm-up bodies byte for byte; one
// seed-chosen serve-cold request per family must equal serve.AppendRow
// over a direct sim.RunStream. Sweep rounds must leave dsweep.Missing
// empty, merged records sampled by the seed must be bitwise equal to
// direct point runs, and no lease may be stolen or lost. Exact counts
// (ode work counts, archive bytes per point and compression ratio, body
// bytes per op) are stored per workload and seed under <work>/exact and
// must repeat on every later run. Every failed check is a failed
// operation.
package main
