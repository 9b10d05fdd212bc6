#include "src/service/service.h"

#include <cstdio>
#include <utility>

#include "src/dist/coordinator.h"

namespace retrace {

ReplayService::ReplayService(const IrModule& module, InstrumentationPlan plan,
                             ServiceConfig config)
    : module_(module),
      plan_(std::move(plan)),
      config_(std::move(config)),
      cache_(config_.replay.slice_cache_capacity),
      queue_(config_.queue_capacity, config_.per_tenant_cap) {}

ReplayService::~ReplayService() { Shutdown(); }

bool ReplayService::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return true;
  }
  if (!config_.snapshot_path.empty()) {
    SliceCache::SnapshotInfo info;
    if (cache_.LoadSnapshot(config_.snapshot_path, &info)) {
      snapshot_loaded_ = true;
      std::fprintf(stderr,
                   "[service] warm cache: %llu sat / %llu unsat entries from %s\n",
                   static_cast<unsigned long long>(info.sat_entries),
                   static_cast<unsigned long long>(info.unsat_entries),
                   config_.snapshot_path.c_str());
    }
  }
  if (config_.replay.num_shards > 1) {
    fleet_ = std::make_unique<ShardFleet>(module_, config_.replay);
    if (fleet_->Start()) {
      fleet_shards_ = fleet_->num_shards();
      fleet_live_ = fleet_->live_shards();
    } else {
      // A service with no fleet still serves: the in-process mode is
      // slower but answers every report.
      std::fprintf(stderr, "[service] shard fleet failed to form; searching in-process\n");
      fleet_.reset();
    }
  }
  stop_ = false;
  started_ = true;
  worker_ = std::thread(&ReplayService::WorkerLoop, this);
  return true;
}

void ReplayService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) {
      return;
    }
    stop_ = true;
    cv_work_.notify_all();
    cv_done_.notify_all();
  }
  worker_.join();
  if (!config_.snapshot_path.empty()) {
    SliceCache::SnapshotInfo info;
    if (cache_.SaveSnapshot(config_.snapshot_path, &info)) {
      std::fprintf(stderr,
                   "[service] snapshot saved: %llu sat / %llu unsat entries to %s\n",
                   static_cast<unsigned long long>(info.sat_entries),
                   static_cast<unsigned long long>(info.unsat_entries),
                   config_.snapshot_path.c_str());
    }
  }
  if (fleet_ != nullptr) {
    fleet_->Shutdown();
    fleet_.reset();
  }
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

ServiceVerdict ReplayService::Submit(const std::string& tenant, const BugReport& report) {
  const u64 fingerprint = ReportFingerprint(report);
  ServiceVerdict verdict;
  verdict.cluster = fingerprint;

  std::unique_lock<std::mutex> lock(mu_);
  if (!started_ || stop_) {
    rejected_ += 1;
    return verdict;  // kRejected.
  }
  reports_ingested_ += 1;

  ClusterEntry* entry = registry_.Find(fingerprint);
  const bool fresh = entry == nullptr;
  if (!fresh) {
    entry->reports += 1;
    if (entry->state == ClusterState::kSolved) {
      // The crash is already understood: answer from the cluster table
      // without spending a single run.
      cached_verdicts_ += 1;
      verdict.origin = VerdictOrigin::kCached;
      verdict.reproduced = entry->reproduced;
      verdict.result = entry->result;
      return verdict;
    }
    duplicates_attached_ += 1;
  } else {
    if (!queue_.Admit(tenant, fingerprint)) {
      rejected_ += 1;
      return verdict;  // kRejected: queue full or tenant over budget.
    }
    registry_.Insert(fingerprint, tenant, report);
    cv_work_.notify_one();
  }

  // Attached or freshly admitted: wait for the cluster's search.
  cv_done_.wait(lock, [&] {
    const ClusterEntry* e = registry_.Find(fingerprint);
    return stop_ || (e != nullptr && e->state == ClusterState::kSolved);
  });
  entry = registry_.Find(fingerprint);
  if (entry == nullptr || entry->state != ClusterState::kSolved) {
    return verdict;  // Shut down before the cluster ran: kRejected.
  }
  verdict.origin = fresh ? VerdictOrigin::kFresh : VerdictOrigin::kAttached;
  verdict.reproduced = entry->reproduced;
  verdict.result = entry->result;
  return verdict;
}

WireHealthStats ReplayService::HealthStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WireHealthStats stats;
  stats.reports_ingested = reports_ingested_;
  stats.clusters = registry_.size();
  stats.searches_run = searches_run_;
  stats.duplicates_attached = duplicates_attached_;
  stats.cached_verdicts = cached_verdicts_;
  stats.rejected = rejected_;
  stats.queue_depth = queue_.depth();
  stats.in_flight = in_flight_;
  stats.cache_sat_entries = cache_.sat_entries();
  stats.cache_unsat_entries = cache_.unsat_entries();
  stats.cache_evictions = cache_.evictions();
  stats.snapshot_loaded = snapshot_loaded_ ? 1 : 0;
  stats.fleet_shards = fleet_shards_;
  stats.fleet_live = fleet_live_;
  stats.fleet_jobs = fleet_jobs_;
  for (const ClusterEntry* entry : registry_.MostRecent(kMaxHealthClusterRows)) {
    WireClusterRow row;
    row.fp = entry->fingerprint;
    row.state = static_cast<u8>(entry->state);
    row.reproduced = entry->reproduced ? 1 : 0;
    row.reports = entry->reports;
    stats.rows.push_back(row);
  }
  return stats;
}

void ReplayService::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || !queue_.Empty(); });
    if (stop_) {
      return;  // Queued clusters stay unsolved; Shutdown wakes their waiters.
    }
    u64 fingerprint = 0;
    std::string tenant;
    queue_.Pop(&fingerprint, &tenant);
    ClusterEntry* entry = registry_.Find(fingerprint);
    entry->state = ClusterState::kRunning;
    in_flight_ = 1;
    // Copy out what the search needs: the registry may rehash under new
    // admissions while the lock is dropped.
    const BugReport report = entry->report;
    lock.unlock();

    ReplayResult result = RunSearch(report);
    if (result.reproduced && !VerifyWitness(module_, report, result.witness_cells)) {
      // Never publish a witness that does not crash where the report
      // says: every attached submitter would inherit it.
      std::fprintf(stderr,
                   "[service] cluster %016llx: witness failed to verify; publishing not "
                   "reproduced\n",
                   static_cast<unsigned long long>(fingerprint));
      result.reproduced = false;
      result.witness_argv.clear();
      result.witness_cells.clear();
    }

    lock.lock();
    searches_run_ += 1;
    in_flight_ = 0;
    if (fleet_ != nullptr) {
      // Mirror fleet figures under the lock: the health endpoint must
      // never touch the fleet while this thread drives it.
      fleet_live_ = fleet_->live_shards();
      fleet_jobs_ = fleet_->jobs_dispatched();
    }
    entry = registry_.Find(fingerprint);
    entry->state = ClusterState::kSolved;
    entry->reproduced = result.reproduced;
    entry->result = std::move(result);
    queue_.Release(tenant);
    cv_done_.notify_all();
  }
}

ReplayResult ReplayService::RunSearch(const BugReport& report) {
  if (fleet_ != nullptr) {
    return RunDistributedJob(module_, plan_, report, config_.replay, *fleet_);
  }
  // In-process: one shard-shaped search sharing the service's
  // cross-report cache, so the next cluster starts where this one's
  // proofs ended.
  ReplayEngine engine(module_, plan_, report);
  ReplayConfig cfg = config_.replay;
  cfg.num_shards = 1;
  ShardContext ctx;
  ctx.cache = &cache_;
  return engine.ReproduceShard(cfg, &ctx);
}

}  // namespace retrace
