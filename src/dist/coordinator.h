// Coordinator of the distributed (multi-process) replay scheduler.
//
// ReplayConfig::num_shards > 1 routes ReplayEngine::Reproduce here. One
// distributed search is one job on a ShardFleet (src/dist/fleet.h):
//   1. Scouts: runs ReplayEngine::Scout, a short one-worker DFS on a
//      private frontier, until the frontier holds 4 pendings per shard;
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

/// \brief Multi-process reproduction entry point.
///
/// Requires config.num_shards > 1. Builds a ShardFleet for this search,
/// runs one job on it and shuts it down. A fork fleet forks on the
/// calling thread — call from a single-threaded context (forking a
/// multi-threaded process would clone held locks into the children).
/// Never throws; a shard that dies mid-search simply contributes
/// nothing. **Thread safety:** not reentrant; one distributed search per
/// process at a time.
ReplayResult ReproduceDistributed(const IrModule& module, const InstrumentationPlan& plan,
                                  const BugReport& report, const ReplayConfig& config);

/// \brief Per-job scheduler core: scout, partition, seed, relay,
/// aggregate — on `fleet`.
///
/// ReproduceDistributed is exactly this over a fleet built for one job;
/// the replay service calls it repeatedly against a standing fleet so
/// consecutive reports reuse live shard processes (and their warm slice
/// caches). Runs the scout (and any fallback search) on the calling
/// thread, and starts the fleet only when the scout leaves work to deal.
ReplayResult RunDistributedJob(const IrModule& module, const InstrumentationPlan& plan,
                               const BugReport& report, const ReplayConfig& config,
                               ShardFleet& fleet);

}  // namespace retrace

#endif  // RETRACE_DIST_COORDINATOR_H_
