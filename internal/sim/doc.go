// Package sim is the unified simulation runtime shared by every model
// family in the repository. The POM core (core.Model), the Kuramoto
// baseline (kuramoto.Model), the continuum field (continuum.Field), the
// linear-stability scan replay (linstab.Scan), and the cluster trace
// facade (cluster.TraceSystem) all implement the System contract and
// route their integrations through Run / RunStream here. One runtime
// means one implementation of the sample-plan machinery, the
// streaming-sink protocol, the accumulator set, and the
// worker-pool/chunking logic — and everything built on top
// (sweep.RunReduce, sweep.RunArchive, the scenario registry, cmd/pomsim)
// works uniformly over any family.
//
// # The contract
//
// A System is a fixed-dimension state with an initial condition and a
// right-hand side (Dim, InitialState, Eval). Three optional extensions
// refine the runtime's behavior:
//
//   - Delayed: systems whose right-hand side reads the solution history
//     integrate with the DDE driver (EvalDelayed + MaxDelay);
//   - Tuned: systems override the default solver tolerances and step cap
//     (the POM caps the step at a quarter period so piecewise-constant
//     noise cells are never stepped over);
//   - Releaser: systems holding resources (worker pools, scratch arenas)
//     are released exactly once per run, success or error, so sweeps can
//     build thousands of systems without leaks.
//
// # Streaming
//
// RunStream is the one integration path: it emits the sample rows to a
// Sink from reused buffers, so memory is independent of the sample
// count. Run is RunStream into a collecting sink that copies the rows
// into one arena, so a materialized trajectory is the streamed one. The accumulator sinks (SpreadAccumulator, OrderAccumulator,
// ResyncDetector, GapAccumulator, LockAccumulator) reduce a stream to
// O(N) summaries; they are each metric's only implementation, since the
// materialized Result metrics Replay their rows through them. RunSummary
// bundles them into the standard Summary, optionally teeing extra sinks
// (an archive.RecordWriter, a continuum.FrontTracker, a
// kuramoto.SlipCounter) into the same single pass. Bitwise determinism
// is the load-bearing invariant: streamed rows equal materialized rows,
// parallel right-hand sides equal serial ones, and resumed archives
// equal uninterrupted ones.
//
// # Parallelism
//
// Runner owns a persistent worker pool for row-parallel right-hand
// sides; WeightedChunks balances chunks by CSR nonzeros so irregular
// topologies load workers evenly. Any chunking is bit-for-bit identical
// to serial evaluation.
//
// The architecture mirrors inference-sim's ClusterSimulator /
// DeploymentConfig split: declarative per-family configs (package
// scenario) build a System, and a single simulator core owns
// integration, determinism, and statistics. ARCHITECTURE.md draws the
// full stack; SCENARIOS.md documents the JSON surface.
package sim
