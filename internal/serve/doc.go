// Package serve is the pomsimd simulation service: the long-running
// HTTP/JSON runtime that promotes the batch CLI into a spec-in /
// stream-out server over the unified sim/scenario/archive stack.
//
// A request posts the exact scenario JSON SCENARIOS.md documents (any
// registered family). The server canonicalizes and content-hashes the
// spec (scenario.CanonicalHash), then takes the cheapest path that can
// answer it:
//
//		admission → queue → runner → cache/archive → stream
//
//	  - Cache hit: the hash is already in the archive-backed result cache,
//	    so the response is a disk read: the shard's record is decoded and
//	    its rows are streamed, rendered into a pooled ~32 KiB chunk that
//	    is written each time it fills. The body is byte-identical to the
//	    one a fresh run would have produced. No worker time is spent and
//	    no admission token is consumed.
//	  - Coalesced: an identical spec is already queued or running; the
//	    request attaches to that job's live row stream instead of
//	    executing a second time. One execution per cache key, always.
//	  - Miss: the request passes admission control (token bucket or
//	    always-admit; rejections are typed 429s with Retry-After), enters
//	    the bounded job queue, and a worker integrates it through
//	    sim.RunStream. Every sample row is rendered to NDJSON once and
//	    tee'd to (a) the live broadcast buffer every attached client
//	    follows and (b) an archive.RecordWriter, so the run lands in the
//	    result cache as a side effect of streaming it.
//
// Client disconnects never cancel a running job (the run completes into
// the cache for the next caller); cancellation is explicit via the job
// API. A canceled or failed run aborts its shard (archive.Writer.Abort)
// and publishes nothing, so the cache can never hold a partial result.
//
// Determinism discipline: nothing in this package reads the wall clock.
// Admission control and observability snapshots take the time from an
// injected Clock — the serve boundary (cmd/pomsimd) owns the single
// //pomvet:allow wallclock site — and the run path itself never
// consults a clock at all, so the rows streamed for a spec are bitwise
// the rows sim.Run produces in-process (the e2e pin).
//
// Observability reads (GET /v1/stats) come from a cached immutable
// snapshot (Snapshot / snapshotProvider) rebuilt at most once per TTL,
// so status polling never contends with the run path.
package serve
