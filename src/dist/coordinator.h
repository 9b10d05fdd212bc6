// Coordinator of the distributed (multi-process) replay scheduler.
//
// ReplayConfig::num_shards > 1 routes ReplayEngine::Reproduce here. The
// coordinator:
//   1. Scouts: runs ReplayEngine::Scout, a short one-worker DFS on a
//      private frontier, until the frontier holds 4 pendings per shard;
//      what is left is exported once and dealt out. A scout that
//      reproduces the bug outright forks no process.
//   2. Shards: forks num_shards child processes connected by socketpairs,
//      ships each its partition of the frontier over the wire format
//      (deep pendings interleaved round-robin so every shard gets a mix),
//      and divides the run/step budget evenly.
//   3. Relays: gossips freshly proved slice-cache verdicts hub-and-spoke
//      between shards — the prover's journal drains to the coordinator,
//      which forwards the frames verbatim to every other shard — so the
//      fleet-wide cache hit rate survives the process split.
//   4. Finishes: the first kResult with a reproduced crash wins; everyone
//      else receives kStop, reports its final stats, and exits. Stats
//      aggregate shard-aware: per-worker entries concatenate across
//      shards, per_shard carries the process/wire breakdown, and the
//      scout's contribution is labelled harvest_runs.
#ifndef RETRACE_DIST_COORDINATOR_H_
#define RETRACE_DIST_COORDINATOR_H_

#include <vector>

#include "src/dist/wire.h"
#include "src/replay/replay_engine.h"

namespace retrace {

/// \brief Where the shard processes for one distributed search come
/// from — the seam that lets the per-job scheduler core run against
/// either a freshly forked process tree (the historical one-shot path)
/// or a standing fleet that outlives any single search (ShardFleet in
/// src/dist/fleet.h, used by the replay service).
///
/// Per-job protocol, driven by RunDistributedJob:
///   1. AttachJob() hands back one channel per slot (null = that slot is
///      unavailable; the scheduler re-deals its frontier partition).
///   2. The scheduler runs the search over those channels.
///   3. FinishJob() reports which slots broke mid-job so the fleet can
///      retire them; one-shot fleets tear the whole process tree down
///      here. KillAll() may fire first on a wall-budget overrun.
///
/// The returned channels stay owned by the fleet — the scheduler must
/// not hold them past FinishJob().
class JobFleet {
 public:
  virtual ~JobFleet() = default;

  /// Number of shard slots AttachJob will return. Stable for the
  /// fleet's lifetime (dead slots return null rather than shrinking the
  /// vector, so shard ids stay dense and stable).
  virtual u32 num_shards() const = 0;

  /// Makes every live slot ready to run `plan`/`report` under
  /// `shard_cfg` and returns its channel, null per unavailable slot.
  virtual std::vector<WireChannel*> AttachJob(const ReplayConfig& shard_cfg,
                                              const InstrumentationPlan& plan,
                                              const BugReport& report) = 0;

  /// Hard-stops every shard (wall-budget overrun past the kill grace).
  virtual void KillAll() = 0;

  /// Ends the job. `lost[s]` marks slots that died, wedged or broke
  /// mid-search — a standing fleet retires those and keeps the rest.
  virtual void FinishJob(const std::vector<bool>& lost) = 0;
};

/// \brief Multi-process reproduction entry point.
///
/// Requires config.num_shards > 1. Forks on the calling thread — call
/// from a single-threaded context (forking a multi-threaded process
/// would clone held locks into the children). Never throws; a shard that
/// dies mid-search simply contributes nothing. **Thread safety:** not
/// reentrant; one distributed search per process at a time.
ReplayResult ReproduceDistributed(const IrModule& module, const InstrumentationPlan& plan,
                                  const BugReport& report, const ReplayConfig& config);

/// \brief Per-job scheduler core: scout, partition, seed, relay,
/// aggregate — against whatever fleet is passed in.
///
/// ReproduceDistributed is exactly this over a one-shot fork/TCP fleet;
/// the replay service calls it repeatedly against a standing ShardFleet
/// so consecutive reports reuse live shard processes (and their warm
/// slice caches). `config` must already be usable as-is: transport
/// fallbacks resolved and fault specs parsed by the caller. Runs the
/// scout (and any fallback search) on the calling thread.
ReplayResult RunDistributedJob(const IrModule& module, const InstrumentationPlan& plan,
                               const BugReport& report, const ReplayConfig& config,
                               JobFleet* fleet);

}  // namespace retrace

#endif  // RETRACE_DIST_COORDINATOR_H_
