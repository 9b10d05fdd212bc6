// Replay-as-a-service: the resident, multi-tenant coordinator.
//
// Pipeline::Reproduce answers one bug report per call, searching every
// report it is handed. A deployment receiving a *stream* of reports from
// many users would search each one — and most reports are duplicates of
// a handful of crashes (the paper's deployment model: many users, few
// bugs). ReplayService searches each crash once:
//
//   Submit ─→ fingerprint ─→ cluster table ─┬─ solved    → cached verdict
//                                           ├─ in flight → attach, wait
//                                           └─ novel     → admission FIFO
//                                                           (per-tenant caps)
//   worker: dequeue → search on the standing fleet (or in-process with
//           the service's cross-report slice cache) → re-run the
//           witness (VerifyWitness) → complete cluster → wake every
//           attached submitter. A witness that fails to verify is
//           published as "not reproduced".
//
// One search per crash cluster, ever: N identical reports cost one
// search and N verdicts. The standing ShardFleet (num_shards > 1; fork
// shards by default, TCP shards under the same rule as a pipeline's
// fleet) outlives every search, so consecutive novel reports skip the
// fork/dial/handshake tax and hit shard-resident warm slice caches; the
// in-process mode (num_shards <= 1) keeps its warmth in the service's
// own SliceCache, which can snapshot to disk on shutdown and reload on
// start (warm-starting a restarted daemon).
//
// **Threading:** Submit blocks the calling thread until its cluster has
// a verdict and may be called from many threads; one worker thread runs
// searches strictly in admission order. Call Start() before any other
// thread exists when the fleet has shards (it forks).
#ifndef RETRACE_SERVICE_SERVICE_H_
#define RETRACE_SERVICE_SERVICE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/dist/fleet.h"
#include "src/dist/wire.h"
#include "src/service/report_queue.h"
#include "src/service/search_registry.h"
#include "src/solver/incremental.h"

namespace retrace {

struct ServiceConfig {
  /// Per-search template: budgets, worker counts, transport knobs.
  /// num_shards > 1 runs every search on a standing ShardFleet (TCP
  /// shards need program sources — Pipeline::MakeService fills them);
  /// num_shards <= 1 searches in-process against the service's own
  /// slice cache.
  ReplayConfig replay;
  /// Global cap on admitted-but-not-started searches; past it, novel
  /// reports are rejected (duplicates still attach).
  u64 queue_capacity = 64;
  /// Max queued + running searches per tenant.
  u64 per_tenant_cap = 16;
  /// Slice-cache snapshot: loaded on Start, saved on Shutdown. Empty
  /// disables both. Only the in-process mode's cache is snapshotted
  /// (fleet shards keep their caches in their own processes).
  std::string snapshot_path;
};

/// What Submit hands back. `result` is the cluster's search result
/// (empty for kRejected); `origin` says how it was obtained.
struct ServiceVerdict {
  u64 cluster = 0;  // The report's fingerprint.
  VerdictOrigin origin = VerdictOrigin::kRejected;
  bool reproduced = false;
  ReplayResult result;
};

class ReplayService {
 public:
  /// Borrows `module`; it must outlive the service. `plan` must match
  /// the module (Pipeline::MakeService enforces this).
  ReplayService(const IrModule& module, InstrumentationPlan plan, ServiceConfig config);
  ~ReplayService();

  ReplayService(const ReplayService&) = delete;
  ReplayService& operator=(const ReplayService&) = delete;

  /// Loads the snapshot (if configured), starts the fleet (if
  /// num_shards > 1; a fleet that fails to form degrades to in-process
  /// searches) and the worker thread. Idempotent.
  bool Start();

  /// Stops admission, finishes the in-flight search, wakes every
  /// waiting submitter (their verdicts come back kRejected if their
  /// cluster never ran), saves the snapshot, ends the fleet.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// Blocks until this report's cluster has a verdict. Thread-safe.
  ServiceVerdict Submit(const std::string& tenant, const BugReport& report);

  /// Consistent snapshot of the daemon's counters, queue depth, cluster
  /// table (most recent first, capped) and cache/fleet occupancy.
  WireHealthStats HealthStats() const;

  /// The cross-report slice cache (in-process search mode). Exposed for
  /// tests and cache-occupancy reporting.
  SliceCache& cache() { return cache_; }
  bool snapshot_loaded() const { return snapshot_loaded_; }

 private:
  void WorkerLoop();
  ReplayResult RunSearch(const BugReport& report);

  const IrModule& module_;
  InstrumentationPlan plan_;
  ServiceConfig config_;
  SliceCache cache_;
  std::unique_ptr<ShardFleet> fleet_;  // Null in in-process mode.

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // Wakes the worker (new admission / stop).
  std::condition_variable cv_done_;  // Wakes submitters (cluster solved / stop).
  SearchRegistry registry_;
  ReportQueue queue_;
  std::thread worker_;
  bool started_ = false;
  bool stop_ = false;
  bool snapshot_loaded_ = false;

  // Counters (mu_). Fleet figures are mirrored here after each job so the
  // health endpoint never touches the fleet while the worker drives it.
  u64 reports_ingested_ = 0;
  u64 searches_run_ = 0;
  u64 duplicates_attached_ = 0;
  u64 cached_verdicts_ = 0;
  u64 rejected_ = 0;
  u64 in_flight_ = 0;
  u32 fleet_shards_ = 0;
  u32 fleet_live_ = 0;
  u64 fleet_jobs_ = 0;
};

}  // namespace retrace

#endif  // RETRACE_SERVICE_SERVICE_H_
