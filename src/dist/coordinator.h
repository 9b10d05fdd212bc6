// Coordinator of the distributed (multi-process) replay scheduler.
//
// One distributed search is one job on a standing ShardFleet
// (src/dist/fleet.h), run by RunDistributedJob. Its callers own the
// fleet: Pipeline::Reproduce routes every num_shards > 1 search to the
// pipeline's own fleet, and ReplayService to the service's.
//   1. Scouts: runs ReplayEngine::Scout, a short one-worker DFS, until
//      its frontier holds 4 pendings per shard;
//      what is left is exported once and dealt out. A scout that
//      reproduces the bug outright forks no process.
//   2. Shards: attaches the job to every live shard of the fleet, ships
//      each its partition of the frontier over the wire format (deep
//      pendings interleaved round-robin so every shard gets a mix), and
//      divides the run/step budget evenly.
//   3. Relays: gossips freshly proved slice-cache verdicts hub-and-spoke
//      between shards — the prover's journal drains to the coordinator,
//      which forwards the frames verbatim to every other shard — so the
//      fleet-wide cache hit rate survives the process split.
//   4. Finishes: the first kResult with a reproduced crash wins; everyone
//      else receives kStop and reports its final stats. Stats aggregate
//      shard-aware: per-worker entries concatenate across shards,
//      per_shard carries the process/wire breakdown, and the scout's
//      contribution is labelled harvest_runs.
#ifndef RETRACE_DIST_COORDINATOR_H_
#define RETRACE_DIST_COORDINATOR_H_

#include "src/replay/replay_engine.h"

namespace retrace {

class ShardFleet;

/// \brief Per-job scheduler core: scout, partition, seed, relay,
/// aggregate — on `fleet`.
///
/// The fleet's owner calls it search after search, so consecutive
/// searches reuse live shard processes and their warm slice caches. Runs the scout (and any fallback search) on
/// the calling thread, and starts the fleet only when the scout leaves
/// work to deal: that first job forks, so it must come from a
/// single-threaded context (forking a multi-threaded process would clone
/// held locks into the children). Never throws; a shard that dies
/// mid-search simply contributes nothing. Wire byte counts in the result
/// are this job's own. **Thread safety:** one job per fleet at a time.
ReplayResult RunDistributedJob(const IrModule& module, const InstrumentationPlan& plan,
                               const BugReport& report, const ReplayConfig& config,
                               ShardFleet& fleet);

}  // namespace retrace

#endif  // RETRACE_DIST_COORDINATOR_H_
