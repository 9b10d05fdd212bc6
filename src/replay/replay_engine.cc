#include "src/replay/replay_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "src/replay/replay_run.h"
#include "src/solver/incremental.h"
#include "src/support/env.h"
#include "src/support/stop_token.h"
#include "src/support/workqueue.h"

namespace retrace {
namespace {

// First-crash-wins cancellation: aborts an in-flight run once another
// worker has reproduced the bug, instead of letting it finish a pointless
// multi-million-step execution.
class CancelObserver : public BranchObserver {
 public:
  explicit CancelObserver(const StopSource& stop) : stop_(stop) {}

  Action OnBranch(i32 /*branch_id*/, bool /*taken*/, ExprRef /*cond_shadow*/) override {
    return stop_.StopRequested() ? Action::kAbort : Action::kContinue;
  }

 private:
  const StopSource& stop_;
};

// The reproduction predicate. Reproduction requires reaching the
// reported crash site having consumed the *entire* branch log: the
// recorded bits end exactly at the user-site crash, so a run that
// crashes at the same location with bits left over took a shortcut
// (e.g. an early signal delivery) and is not the recorded execution.
bool IsReproduction(const RunResult& run, size_t log_cursor, const BugReport& report) {
  return run.Crashed() && run.crash.SameSite(report.crash) &&
         log_cursor == report.branch_log.size();
}

// Strict enum-knob parsing for ReplayConfig::FromEnv — same contract as
// src/support/env.h: unset keeps the default, garbage exits loudly.
[[noreturn]] void BadReplayKnob(const char* name, const char* value, const char* expected) {
  std::fprintf(stderr, "%s: invalid value '%s' (expected %s)\n", name, value, expected);
  std::exit(2);
}

ReplayTransport TransportFromEnv() {
  const char* env = std::getenv("RETRACE_REPLAY_TRANSPORT");
  if (env == nullptr) {
    return ReplayTransport::kFork;
  }
  const std::string transport = env;
  if (transport == "fork") return ReplayTransport::kFork;
  if (transport == "tcp") return ReplayTransport::kTcp;
  BadReplayKnob("RETRACE_REPLAY_TRANSPORT", env, "fork|tcp");
}

// First entry of the comma-separated RETRACE_REPLAY_SHARDS sweep list
// ("1,2,4" — benches sweep the whole list; a single config uses the
// head). The first entry must be a plain positive integer.
u32 FirstShardCountFromEnv() {
  const char* env = std::getenv("RETRACE_REPLAY_SHARDS");
  if (env == nullptr) {
    return 1;
  }
  u64 value = 0;
  const char* c = env;
  if (*c < '0' || *c > '9') {
    BadReplayKnob("RETRACE_REPLAY_SHARDS", env, "comma-separated positive shard counts");
  }
  for (; *c >= '0' && *c <= '9'; ++c) {
    value = value * 10 + static_cast<u64>(*c - '0');
    if (value > 64) {
      BadReplayKnob("RETRACE_REPLAY_SHARDS", env, "shard counts in [1, 64]");
    }
  }
  if (*c != '\0' && *c != ',') {
    BadReplayKnob("RETRACE_REPLAY_SHARDS", env, "comma-separated positive shard counts");
  }
  if (value == 0) {
    BadReplayKnob("RETRACE_REPLAY_SHARDS", env, "shard counts in [1, 64]");
  }
  return static_cast<u32>(value);
}

}  // namespace

void ReplayFailureProfile::Merge(const ReplayFailureProfile& other) {
  if (other.branches.empty()) {
    deaths_unattributed += other.deaths_unattributed;
    return;
  }
  std::vector<BranchFailureCounts> merged;
  merged.reserve(branches.size() + other.branches.size());
  size_t i = 0;
  size_t j = 0;
  while (i < branches.size() || j < other.branches.size()) {
    if (j >= other.branches.size() ||
        (i < branches.size() && branches[i].branch_id < other.branches[j].branch_id)) {
      merged.push_back(branches[i++]);
    } else if (i >= branches.size() || other.branches[j].branch_id < branches[i].branch_id) {
      merged.push_back(other.branches[j++]);
    } else {
      BranchFailureCounts sum = branches[i++];
      const BranchFailureCounts& o = other.branches[j++];
      sum.deaths_concrete += o.deaths_concrete;
      sum.deaths_exhausted += o.deaths_exhausted;
      sum.deaths_wrong_crash += o.deaths_wrong_crash;
      sum.blind_execs += o.blind_execs;
      merged.push_back(sum);
    }
  }
  branches = std::move(merged);
  deaths_unattributed += other.deaths_unattributed;
}

const BranchFailureCounts* ReplayFailureProfile::Find(u32 branch_id) const {
  auto it = std::lower_bound(
      branches.begin(), branches.end(), branch_id,
      [](const BranchFailureCounts& c, u32 id) { return c.branch_id < id; });
  return it != branches.end() && it->branch_id == branch_id ? &*it : nullptr;
}

u64 ReplayFailureProfile::TotalDeaths() const {
  u64 total = deaths_unattributed;
  for (const BranchFailureCounts& c : branches) {
    total += c.Deaths();
  }
  return total;
}

ReplayConfig ReplayConfig::FromEnv() {
  ReplayConfig config;
  config.num_workers = static_cast<u32>(EnvKnobI64("RETRACE_REPLAY_WORKERS", 1, 1, 4096));
  config.num_shards = FirstShardCountFromEnv();
  config.transport = TransportFromEnv();
  config.gossip_interval_ms =
      static_cast<int>(EnvKnobI64("RETRACE_GOSSIP_INTERVAL_MS", 20, 1, 1000));
  config.heartbeat_interval_ms =
      static_cast<int>(EnvKnobI64("RETRACE_HEARTBEAT_INTERVAL_MS", 100, 0, 60'000));
  // Stored raw; the coordinator parses it (src/dist/fault.h) and exits 2
  // on garbage, matching the strict contract of every other knob —
  // validating here would invert the replay -> dist layering.
  if (const char* fault = std::getenv("RETRACE_FAULT_SPEC")) {
    config.fault_spec = fault;
  }
  // Free-form shared secret; any value is valid, so no strict parse.
  if (const char* token = std::getenv("RETRACE_SHARD_TOKEN")) {
    config.shard_token = token;
  }
  // Comma-separated host:port list of waiting retrace_shardd daemons to
  // dial out to. Free-form here — the connect attempt is the validator,
  // and an unreachable endpoint already fails loudly in the transport.
  if (const char* endpoints = std::getenv("RETRACE_SHARD_ENDPOINTS")) {
    config.shard_endpoints.clear();
    std::string current;
    for (const char* c = endpoints;; ++c) {
      if (*c == ',' || *c == '\0') {
        if (!current.empty()) {
          config.shard_endpoints.push_back(current);
          current.clear();
        }
        if (*c == '\0') {
          break;
        }
      } else {
        current.push_back(*c);
      }
    }
  }
  return config;
}

u32 DefaultReplayWorkers() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
}

u32 ResolveReplayWorkers(u32 num_workers) {
  return num_workers == 0 ? DefaultReplayWorkers() : num_workers;
}

// ----- FrontierPort: the re-balance window into a live frontier -----
//
// Lock order: port mutex, then (inside DonationPool calls) the pool
// mutex — never the reverse, so Attach/Detach cannot deadlock against a
// pump mid-Import/Export.

void FrontierPort::Attach(DonationPool<PooledPending>* frontier, u32 num_workers,
                          StopSource* stop) {
  std::lock_guard<std::mutex> lock(mu_);
  frontier_ = frontier;
  stop_ = stop;
  num_workers_ = std::max(1u, num_workers);
  ever_attached_ = true;
  // A hold acquired before the search started (the pump arms re-balancing
  // ahead of the first worker run) transfers onto the live pool.
  if (held_) {
    frontier_->AddProducer();
  }
  // Imports that raced ahead of the frontier's existence land now.
  for (PortablePending& pending : pre_attach_imports_) {
    frontier_->Push(PooledPending{std::move(pending)});
  }
  pre_attach_imports_.clear();
  // A kStop that beat the search to its start: the workers wake into a
  // closed frontier and exit without running.
  if (cancelled_) {
    stop_->RequestStop();
    frontier_->Close();
  }
}

void FrontierPort::Detach() {
  std::lock_guard<std::mutex> lock(mu_);
  if (frontier_ != nullptr && held_) {
    frontier_->Retire();
    held_ = false;
  }
  frontier_ = nullptr;
  stop_ = nullptr;
}

void FrontierPort::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
  if (frontier_ != nullptr) {
    stop_->RequestStop();
    frontier_->Close();
  }
}

bool FrontierPort::Import(PortablePending pending) {
  std::lock_guard<std::mutex> lock(mu_);
  if (frontier_ == nullptr) {
    if (ever_attached_) {
      return false;  // Search over: too late for this pending.
    }
    pre_attach_imports_.push_back(std::move(pending));
    imported_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // A closed frontier will never be popped again (termination or run
  // cap): refusing lets the pump return the pending to the fleet
  // instead of burying it in a pool that is about to be destroyed.
  if (!frontier_->PushIfOpen(PooledPending{std::move(pending)})) {
    return false;
  }
  imported_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

size_t FrontierPort::Export(size_t max_items, std::vector<PortablePending>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (frontier_ == nullptr) {
    return 0;
  }
  // Never starve ourselves to feed a peer: keep ~2 entries per worker.
  std::vector<PooledPending> taken;
  const size_t n = frontier_->TakeForPeer(max_items, 2 * num_workers_, &taken);
  for (PooledPending& pooled : taken) {
    out->push_back(std::move(pooled.pending));
  }
  exported_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

size_t FrontierPort::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frontier_ == nullptr ? 0 : frontier_->size();
}

void FrontierPort::HoldOpen() {
  std::lock_guard<std::mutex> lock(mu_);
  if (held_) {
    return;
  }
  held_ = true;
  if (frontier_ != nullptr) {
    frontier_->AddProducer();
  }
}

void FrontierPort::ReleaseHold() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!held_) {
    return;
  }
  held_ = false;
  if (frontier_ != nullptr) {
    frontier_->Retire();
  }
}

namespace {

// A trace in the arena of the worker that holds it. `base` is the slice
// state of the solve whose model ran this trace (null for the first run,
// corpus seeds and imported traces): every pending of the trace extends
// it (delta solving, src/solver/incremental.h), and it is freed with the
// last of them. The constraints are shared on their own because the
// state borrows them (SliceState::Rebase) and pins them, never the trace
// itself.
struct ResidentTrace {
  std::shared_ptr<const std::vector<Constraint>> constraints;
  std::shared_ptr<const SliceState> base;
};

// A pending on its worker's own stack: PortablePending over a resident
// trace, plus its dedup key.
struct ResidentPending {
  std::shared_ptr<const ResidentTrace> trace;
  size_t len = 0;
  bool negate_last = false;
  std::shared_ptr<const std::vector<i64>> seed;
  std::shared_ptr<const std::vector<Interval>> domains;
  u64 priority = 0;
  // FingerprintConstraints of the set in portable form, so equal across
  // arenas. Only searches that dedup fill it (0 otherwise).
  u64 key = 0;
};

// Running fingerprints along `cs` from index `from`, whose prefix
// [0, from) fingerprints as `fp`: (*chain)[i - from] is the fingerprint
// of [0, i) for every i in [from, cs.size()] — the chain
// FingerprintConstraints walks, over arena hashes.
void FingerprintChain(const ExprArena& arena, const std::vector<Constraint>& cs, size_t from,
                      u64 fp, std::vector<u64>* chain) {
  chain->clear();
  chain->push_back(fp);
  for (size_t i = from; i < cs.size(); ++i) {
    fp = ExtendConstraintFingerprint(fp, arena.StructuralHash(cs[i].expr), cs[i].want_true);
    chain->push_back(fp);
  }
}

// Dedup key of constraints [0, len) of `cs`, the last one negated when
// `negate_last`, from its chain (which starts at `from` <= len - 1 for a
// negated set): one chain step at most.
u64 ChainKey(const ExprArena& arena, const std::vector<Constraint>& cs,
             const std::vector<u64>& chain, size_t from, size_t len, bool negate_last) {
  if (!negate_last) {
    return chain[len - from];
  }
  const Constraint& last = cs[len - 1];
  return ExtendConstraintFingerprint(chain[len - 1 - from], arena.StructuralHash(last.expr),
                                     !last.want_true);
}

// True when `trace` starts with `set`: the run of a model solving `set`
// followed the set's path.
bool StartsWith(const std::vector<Constraint>& trace, ConstraintSpan set) {
  if (trace.size() < set.size()) {
    return false;
  }
  for (size_t i = 0; i < set.size(); ++i) {
    if (!(trace[i] == set[i])) {
      return false;
    }
  }
  return true;
}

// How an entry point runs the one search loop.
struct SearchShape {
  u32 workers = 1;
  // Distributed-shard or service context; null = a plain search.
  ShardContext* shard = nullptr;
  // Scout only: stop once the frontier holds this many pendings (0 =
  // never), and append what is left, exported, to `leftover`.
  size_t stop_at_frontier = 0;
  std::vector<PortablePending>* leftover = nullptr;
};

// The search loop (paper §3): `shape.workers` workers drain one frontier
// of pending constraint sets, each solving a set and running its model
// until some run reproduces the crash or the budgets run out.
//
// Every worker keeps the pendings its runs publish on its own stack, in
// its own arena, and pops them itself. Pendings cross between workers —
// and in from outside (seeds, re-balance imports) — only in portable
// form, through the shared DonationPool: a worker that runs dry waits
// there, a busy one donates its oldest pending when asked, and the
// worker that pops a portable pending imports its trace once.
//
// A search that can meet one set twice — several workers, a seed
// frontier, a FrontierPort — is `shared`: it drops sets it already tried
// (per-pop dedup on a running fingerprint) and can be cancelled mid-run
// by another worker's or shard's crash. A one-worker search with none of
// those skips both.
ReplayResult RunSearch(const IrModule& module, const InstrumentationPlan& plan,
                       const BugReport& report, const ReplayConfig& config,
                       const SearchShape& shape) {
  const auto t0 = std::chrono::steady_clock::now();
  ReplayResult result;
  const u32 num_workers = shape.workers;
  ShardContext* shard = shape.shard;
  const bool shared =
      num_workers > 1 ||
      (shard != nullptr && (shard->port != nullptr || !shard->seed_frontier.empty()));

  // Shared scheduler state. Everything the workers share is either
  // immutable (module, plan, report), synchronized here (pool, dedup
  // registry, winner slot), or lock-free (stop flag, run admission).
  DonationPool<PooledPending> frontier(num_workers);
  StopSource stop;
  std::mutex winner_mu;
  bool have_winner = false;
  std::mutex dedup_mu;
  std::unordered_set<u64> tried;
  std::atomic<u64> runs_admitted{0};
  std::vector<ReplayWorkerStats> worker_stats(num_workers);
  // Thread-confined failure telemetry: each worker bumps its own dense
  // accumulator; the join below folds them into the aggregate profile.
  std::vector<FailureAccum> worker_failures(num_workers, FailureAccum(module.branches.size()));
  // Fleet-wide slice verdict store: once any worker proves a slice
  // SAT/UNSAT, every worker reuses the verdict. A distributed shard or
  // the service shares its process-wide cache instead — a shard's gossip
  // pump merges remote verdicts into it concurrently.
  std::unique_ptr<SliceCache> owned_cache;
  SliceCache* slice_cache = shard != nullptr ? shard->cache : nullptr;
  if (slice_cache == nullptr) {
    owned_cache = std::make_unique<SliceCache>(config.slice_cache_capacity);
    slice_cache = owned_cache.get();
  }
  const u64 rng_stream = shard != nullptr ? shard->rng_stream : 0;
  if (shard != nullptr) {
    // Coordinator-shipped frontier: distributed shards start from their
    // partition of the scout's pending sets, pooled for whichever worker
    // runs dry first (workers still perform their own initial random
    // runs — cross-shard search diversification is part of the speedup).
    for (PortablePending& pending : shard->seed_frontier) {
      frontier.Push(PooledPending{std::move(pending)});
    }
    shard->seed_frontier.clear();
    // Publish the frontier to the re-balance port before any worker can
    // drain it: the gossip pump may import/export from here on.
    if (shard->port != nullptr) {
      shard->port->Attach(&frontier, num_workers, &stop);
    }
  }

  const SyscallLog* replay_log =
      config.use_syscall_log && report.has_syscall_log ? &report.syscall_log : nullptr;

  auto worker_fn = [&](u32 wid) {
    ReplayWorkerStats& ws = worker_stats[wid];
    FailureAccum& failures = worker_failures[wid];
    // Thread-confined execution context: arena, interpreter harness and
    // solver are all single-threaded by design.
    ExprArena arena;
    IncrementalSolver solver(arena, config.solver, *slice_cache);
    Rng rng(config.seed + 0x9e3779b97f4a7c15ull * (wid + rng_stream));
    const u64 step_share = std::max<u64>(1, config.total_steps / num_workers);
    Budget budget = config.wall_ms > 0 ? Budget::StepsAndMillis(step_share, config.wall_ms)
                                       : Budget::Steps(step_share);
    CancelObserver cancel(stop);
    ReplayRunLimits limits;
    limits.syscall_log = replay_log;
    limits.max_steps = config.max_steps_per_run;
    limits.budget = &budget;
    if (shared) {
      // Only a shared search can be stopped by someone else mid-run.
      limits.cancel = &cancel;
    }
    ReplayRunner runner(module, plan, report, &arena, &failures, limits);

    const PopOrder pop_order = config.pick == ReplayConfig::Pick::kFifo ? PopOrder::kOldestFirst
                                                                        : PopOrder::kNewestFirst;

    // This worker's own pendings. No other thread reads them: their
    // constraints live in `arena`.
    std::deque<ResidentPending> stack;
    auto push_own = [&](ResidentPending pending) {
      stack.push_back(std::move(pending));
      frontier.AddResident(1);
    };
    auto pop_own = [&](PopOrder order) {
      ResidentPending pending;
      if (order == PopOrder::kNewestFirst) {
        pending = std::move(stack.back());
        stack.pop_back();
      } else {
        pending = std::move(stack.front());
        stack.pop_front();
      }
      frontier.AddResident(-1);
      return pending;
    };

    // A pending leaving this worker in portable form. Each trace is
    // exported once while its pendings keep leaving — sibling pendings
    // share the snapshot. Keyed by raw pointer; each entry pins its key,
    // so a recycled allocation address can never alias a retired one.
    struct Exported {
      std::shared_ptr<const ResidentTrace> pin;
      std::shared_ptr<const PortableTrace> snapshot;
    };
    std::unordered_map<const ResidentTrace*, Exported> exported;
    auto export_pending = [&](ResidentPending pending) {
      auto it = exported.find(pending.trace.get());
      if (it == exported.end()) {
        if (exported.size() >= 64) {  // Bound pinned snapshots.
          exported.clear();
        }
        auto snapshot = std::make_shared<const PortableTrace>(
            ExportTrace(arena, *pending.trace->constraints));
        it = exported.emplace(pending.trace.get(), Exported{pending.trace, std::move(snapshot)})
                 .first;
      }
      // The seed and domains may be a run snapshot of this worker's pool,
      // which takes them back on this thread only: the pending leaves with
      // copies.
      return PortablePending{it->second.snapshot,
                             pending.len,
                             pending.negate_last,
                             std::make_shared<const std::vector<i64>>(*pending.seed),
                             std::make_shared<const std::vector<Interval>>(*pending.domains),
                             pending.priority};
    };

    // Donations this worker made, in resident form, keyed by their
    // portable identity. A donation that comes back to its donor —
    // nobody else wanted it — resumes that form: no import, and its solve
    // extends its base. Bounded and pinned like `exported`.
    using DonationKey = std::tuple<const PortableTrace*, size_t, bool>;
    struct Donated {
      std::shared_ptr<const PortableTrace> pin;
      ResidentPending resident;
    };
    std::map<DonationKey, Donated> donated;
    auto donate = [&](ResidentPending pending) {
      ResidentPending resident = pending;
      PortablePending portable = export_pending(std::move(pending));
      if (donated.size() >= 64) {
        donated.clear();
      }
      const DonationKey key{portable.trace.get(), portable.len, portable.negate_last};
      donated.insert_or_assign(key, Donated{portable.trace, std::move(resident)});
      return portable;
    };

    // A portable pending entering this worker: its trace is re-interned
    // into `arena` once — sibling pendings share it — and fingerprinted
    // once, and the pending is resident from then on. Its solve starts
    // at depth 0 (no state travels); the pendings of its run inherit
    // again. Keyed and pinned like `exported`.
    struct Imported {
      std::shared_ptr<const PortableTrace> pin;
      std::shared_ptr<const ResidentTrace> trace;
      std::vector<u64> chain;
    };
    std::unordered_map<const PortableTrace*, Imported> imported;
    auto import_pending = [&](PooledPending pooled) {
      PortablePending& pending = pooled.pending;
      if (pooled.donor == wid) {
        const auto own =
            donated.find(DonationKey{pending.trace.get(), pending.len, pending.negate_last});
        if (own != donated.end()) {
          ResidentPending resident = std::move(own->second.resident);
          donated.erase(own);
          return resident;
        }
      } else if (pooled.donor >= 0) {
        ++ws.steals;
      }
      auto it = imported.find(pending.trace.get());
      if (it == imported.end()) {
        if (imported.size() >= 64) {  // Bound resident snapshots.
          imported.clear();
        }
        Imported entry;
        entry.pin = pending.trace;
        auto constraints = std::make_shared<const std::vector<Constraint>>(ImportConstraints(
            *pending.trace, pending.trace->constraints.size(), /*negate_last=*/false, &arena));
        FingerprintChain(arena, *constraints, 0, kConstraintFingerprintSeed, &entry.chain);
        entry.trace =
            std::make_shared<const ResidentTrace>(ResidentTrace{std::move(constraints), nullptr});
        it = imported.emplace(pending.trace.get(), std::move(entry)).first;
      }
      const Imported& entry = it->second;
      return ResidentPending{entry.trace,
                             pending.len,
                             pending.negate_last,
                             std::move(pending.seed),
                             std::move(pending.domains),
                             pending.priority,
                             ChainKey(arena, *entry.trace->constraints, entry.chain, 0,
                                      pending.len, pending.negate_last)};
    };

    // What a run publishes outlives it: its cells, domains and trace, and
    // the trace's resident form, each shared by the run's pendings. They,
    // and the slice states of this worker's solves, come from pools that
    // take them back with the last pending sharing them.
    struct RunSnapshot {
      std::vector<i64> seed;
      std::vector<Interval> domains;
      std::vector<Constraint> constraints;
    };
    struct DropTrace {
      void operator()(ResidentTrace& trace) const { trace = ResidentTrace{}; }
    };
    struct ClearState {
      void operator()(SliceState& state) const { state.Clear(); }
    };
    Recycler<RunSnapshot> snapshots;
    Recycler<ResidentTrace, DropTrace> traces;
    Recycler<SliceState, ClearState> states;

    // Runs one input; returns true when the search is over for this worker
    // (it reproduced the bug, or lost the race to another worker's crash).
    // `solved` is the pending whose solve produced `model` (null for the
    // initial and corpus runs), and `state` that solve's slice state, if
    // any: the pendings this run publishes inherit it.
    std::vector<u64> chain;
    // The trace the previous run published, if it did: each run's path
    // starts with the previous run's up to its resume point.
    std::shared_ptr<const std::vector<Constraint>> previous_trace;
    auto do_run = [&](const std::vector<i64>& model, const ResidentPending* solved,
                      std::shared_ptr<SliceState> state) -> bool {
      const size_t start_depth = solved != nullptr ? solved->len : 0;
      if (config.model_tap) {
        config.model_tap(wid, model, start_depth);
      }
      ReplayRun& run = runner.Run(model, start_depth);
      CellRunOutput& out = run.out;
      const ReplayPath& path = run.path;
      ++ws.runs;
      // A model solved from the previous run's trace: the entries this run
      // kept are that trace's, so they match the solved set.
      const size_t known_equal =
          solved != nullptr && solved->trace->constraints == previous_trace ? run.kept_trace : 0;
      previous_trace.reset();

      if (IsReproduction(out.result, path.cursor, report)) {
        std::lock_guard<std::mutex> lock(winner_mu);
        if (!have_winner) {
          have_winner = true;
          result.reproduced = true;
          result.crash = out.result.crash;
          result.witness_cells = out.cells;
          result.witness_argv = runner.layout().MaterializeArgv(runner.spec(), out.cells);
          stop.RequestStop();
          frontier.Close();
        }
        return true;
      }
      if (stop.StopRequested()) {
        // Aborted by first-crash-wins cancellation; the partial trace does
        // not describe a real divergence, so publish nothing.
        ++ws.cancelled_runs;
        return true;
      }
      if (out.result.Crashed()) {
        ++ws.crashes_wrong_site;
        failures.Death(path.last_blind_branch, failures.deaths_wrong_crash);
      }
      if (path.concrete_mismatch) {
        ++ws.aborts_concrete_mismatch;
        failures.Death(path.last_blind_branch, failures.deaths_concrete);
      }
      if (path.log_exhausted) {
        ++ws.aborts_log_exhausted;
        failures.Death(path.last_blind_branch, failures.deaths_exhausted);
      }
      if (path.forced_direction) {
        ++ws.aborts_forced_direction;
      }

      const bool publishes =
          path.forced_direction ||
          std::any_of(path.flippable.begin(), path.flippable.end(),
                      [start_depth](size_t flip) { return flip >= start_depth; });
      if (!publishes) {
        return false;
      }
      // One snapshot per run; all pendings of this run share it. It takes
      // the run's cells and domains and leaves the runner its old storage.
      const size_t trace_len = path.trace.size();
      std::shared_ptr<RunSnapshot> snapshot = snapshots.Get();
      snapshot->seed.swap(out.cells);
      snapshot->domains.swap(out.domains);
      snapshot->constraints.assign(path.trace.begin(), path.trace.end());
      const std::shared_ptr<const std::vector<i64>> seed(snapshot, &snapshot->seed);
      const std::shared_ptr<const std::vector<Interval>> domains(snapshot, &snapshot->domains);
      const std::shared_ptr<const std::vector<Constraint>> constraints(snapshot,
                                                                       &snapshot->constraints);
      // The run's trace starts with the set its model solved, so the
      // state can borrow it from this trace (and this run's domains,
      // when unchanged) instead of pinning the parent's.
      if (state != nullptr && !state->Rebase(constraints, domains, known_equal)) {
        state.reset();
      }
      previous_trace = constraints;
      std::shared_ptr<ResidentTrace> resident = traces.Get();
      resident->constraints = constraints;
      resident->base = std::move(state);
      const std::shared_ptr<const ResidentTrace> trace = std::move(resident);
      // Dedup keys: the solved set's key extended along the part of the
      // trace past it — or, if the run left that set's path, the whole
      // trace fingerprinted afresh.
      size_t from = 0;
      if (shared) {
        u64 fp = kConstraintFingerprintSeed;
        if (solved != nullptr &&
            StartsWith(*constraints, ConstraintSpan(solved->trace->constraints->data(),
                                                    solved->len, solved->negate_last))) {
          from = start_depth;
          fp = solved->key;
        }
        FingerprintChain(arena, *constraints, from, fp, &chain);
      }
      auto key = [&](size_t len, bool negate_last) {
        return shared ? ChainKey(arena, *constraints, chain, from, len, negate_last) : 0;
      };
      // Case-1 alternatives, deepest explored first under DFS.
      for (size_t flip : path.flippable) {
        if (flip < start_depth) {
          continue;  // Already offered by the run that generated this prefix.
        }
        push_own(ResidentPending{trace, flip + 1, /*negate_last=*/true, seed, domains,
                                 path.bits_at[flip], key(flip + 1, true)});
      }
      if (path.forced_direction) {
        // Pushed last, so DFS pops it first: it steers the run back onto the log.
        push_own(ResidentPending{trace, trace_len, /*negate_last=*/false, seed, domains,
                                 path.cursor, key(trace_len, false)});
      }
      return false;
    };

    // Worker-private initial random input. Worker 0 of an unsharded
    // search draws from config.seed itself; the others diversify the
    // start of the search.
    bool done = false;
    if (!stop.StopRequested() && !budget.Exhausted() &&
        runs_admitted.fetch_add(1) < config.max_runs) {
      std::vector<i64> initial(runner.layout().defaults().size());
      for (i64& v : initial) {
        v = rng.NextPrintable();
      }
      done = do_run(initial, nullptr, nullptr);
    }

    // Corpus seeds: the fleet's slice of the dynamic-analysis corpus,
    // partitioned so no seed runs twice — shard s owns seeds with
    // index % num_shards == s, and this worker takes every num_workers-th
    // of the shard's slice.
    const u32 corpus_shard = shard != nullptr ? shard->shard_id : 0;
    const u32 corpus_shards = shard != nullptr ? std::max(1u, shard->num_shards) : 1;
    for (size_t i = 0; !done && i < config.corpus_seeds.size(); ++i) {
      if (i % corpus_shards != corpus_shard % corpus_shards ||
          (i / corpus_shards) % num_workers != wid) {
        continue;
      }
      if (stop.StopRequested() || budget.Exhausted()) {
        break;
      }
      if (runs_admitted.fetch_add(1) >= config.max_runs) {
        frontier.Close();
        done = true;
        break;
      }
      ++ws.corpus_runs;
      done = do_run(config.corpus_seeds[i], nullptr, nullptr);
    }

    PooledPending pooled;
    SolveResult solved;
    while (!done && !stop.StopRequested() && !budget.Exhausted() && !frontier.closed()) {
      if (shape.stop_at_frontier > 0 && frontier.size() >= shape.stop_at_frontier) {
        break;  // Scout: the frontier is wide enough to shard.
      }
      if (runs_admitted.load(std::memory_order_relaxed) >= config.max_runs) {
        // Global run cap, checked before popping so no pending is taken
        // (or solved) for a run that can never start.
        frontier.Close();
        break;
      }
      // A worker that ran dry, or the shard's pump, asked for work: give
      // away the oldest pending — the root of the largest untouched
      // subtree — and keep at least one to go on with.
      while (frontier.Wanted() && stack.size() >= 2) {
        frontier.Push(PooledPending{donate(pop_own(PopOrder::kOldestFirst)), /*donor=*/wid});
      }
      // Pooled pendings count as older than anything this worker
      // published: FIFO takes them first, DFS only once its stack is dry.
      ResidentPending pending;
      if (pop_order == PopOrder::kOldestFirst && frontier.TryTake(pop_order, &pooled)) {
        pending = import_pending(std::move(pooled));
      } else if (!stack.empty()) {
        pending = pop_own(pop_order);
      } else if (frontier.Take(pop_order, &pooled)) {
        pending = import_pending(std::move(pooled));
      } else {
        break;  // Frontier drained, cancelled, or run cap reached.
      }
      if (shared) {
        // Only a shared search can meet one set twice (two workers or
        // shards reaching it independently).
        std::lock_guard<std::mutex> lock(dedup_mu);
        if (!tried.insert(pending.key).second) {
          ++ws.dedup_skips;
          continue;
        }
      }
      const ConstraintSpan set(pending.trace->constraints->data(), pending.len,
                               pending.negate_last);
      ++ws.solver_calls;
      // Extend the slice state of the solve that produced this trace,
      // and keep this solve's own for the run it produces.
      std::shared_ptr<SliceState> state = states.Get();
      solver.Solve(set, *pending.domains, *pending.seed, pending.trace->base.get(), state.get(),
                   &solved);
      if (solved.status != SolveStatus::kSat) {
        continue;
      }
      state->set_owner = pending.trace->constraints;
      state->domains_owner = pending.domains;
      if (stop.StopRequested() || budget.Exhausted()) {
        break;
      }
      if (runs_admitted.fetch_add(1) >= config.max_runs) {
        // Global run cap: the whole search is over, not just this worker.
        frontier.Close();
        break;
      }
      done = do_run(solved.model, &pending, std::move(state));
    }
    ws.resumed_runs = runner.resumed_runs();
    ws.resumed_at_branch = runner.resumed_at_branch();
    ws.instrs_skipped = runner.instrs_skipped();
    ws.instrs_before_flip = runner.instrs_before_flip();
    const IncrementalStats& inc = solver.stats();
    ws.slices_solved = inc.slices_solved;
    ws.slice_sat_hits = inc.slice_sat_hits;
    ws.slice_unsat_hits = inc.slice_unsat_hits;
    ws.slices_inherited = inc.slices_inherited;
    ws.solves_from_base = inc.solves_from_base;
    // What is left on the stack leaves with the worker, exported while
    // its arena is alive: the scout hands it on to the shards, and a
    // worker whose step share ran out while the others search on donates
    // it to them.
    const bool hand_on = shape.leftover != nullptr ||
                         (num_workers > 1 && !frontier.closed() && !budget.Affords(0));
    while (hand_on && !stack.empty()) {
      PortablePending pending = export_pending(pop_own(PopOrder::kOldestFirst));
      if (shape.leftover != nullptr) {
        shape.leftover->push_back(std::move(pending));
      } else {
        frontier.Push(PooledPending{std::move(pending), /*donor=*/wid});
      }
    }
    frontier.AddResident(-static_cast<i64>(stack.size()));
    frontier.Retire();
  };

  if (num_workers == 1) {
    worker_fn(0);  // A one-worker search runs on the calling thread.
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (u32 wid = 0; wid < num_workers; ++wid) {
      threads.emplace_back(worker_fn, wid);
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  // Lossless aggregation: every per-worker counter sums into exactly one
  // aggregate field.
  for (const ReplayWorkerStats& ws : worker_stats) {
    result.stats.runs += ws.runs;
    result.stats.solver_calls += ws.solver_calls;
    result.stats.aborts_forced_direction += ws.aborts_forced_direction;
    result.stats.aborts_concrete_mismatch += ws.aborts_concrete_mismatch;
    result.stats.aborts_log_exhausted += ws.aborts_log_exhausted;
    result.stats.crashes_wrong_site += ws.crashes_wrong_site;
    result.stats.steals += ws.steals;
    result.stats.dedup_skips += ws.dedup_skips;
    result.stats.cancelled_runs += ws.cancelled_runs;
    result.stats.slices_solved += ws.slices_solved;
    result.stats.slice_sat_hits += ws.slice_sat_hits;
    result.stats.slice_unsat_hits += ws.slice_unsat_hits;
    result.stats.corpus_runs += ws.corpus_runs;
    result.stats.resumed_runs += ws.resumed_runs;
    result.stats.resumed_at_branch += ws.resumed_at_branch;
    result.stats.instrs_skipped += ws.instrs_skipped;
    result.stats.instrs_before_flip += ws.instrs_before_flip;
    result.stats.slices_inherited += ws.slices_inherited;
    result.stats.solves_from_base += ws.solves_from_base;
  }
  for (const FailureAccum& fa : worker_failures) {
    result.stats.failure_profile.Merge(fa.ToProfile());
  }
  result.stats.pending_peak = frontier.peak();
  result.stats.per_worker = std::move(worker_stats);
  result.stats.slice_evictions = slice_cache->evictions();
  if (shard != nullptr && shard->port != nullptr) {
    // Unbind before the frontier dies; the counters survive Detach.
    shard->port->Detach();
    result.stats.pendings_imported = shard->port->imported();
    result.stats.pendings_exported = shard->port->exported();
  }

  result.budget_exhausted = !result.reproduced;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace

ReplayResult ReplayEngine::Reproduce(const ReplayConfig& config) {
  SearchShape shape;
  shape.workers = ResolveReplayWorkers(config.num_workers);
  return RunSearch(module_, plan_, report_, config, shape);
}

ReplayResult ReplayEngine::ReproduceShard(const ReplayConfig& config, ShardContext* shard) {
  SearchShape shape;
  shape.workers = ResolveReplayWorkers(config.num_workers);
  shape.shard = shard;
  return RunSearch(module_, plan_, report_, config, shape);
}

ReplayResult ReplayEngine::Scout(const ReplayConfig& config, size_t target_frontier,
                                 std::vector<PortablePending>* frontier) {
  SearchShape shape;
  shape.stop_at_frontier = target_frontier;
  shape.leftover = frontier;
  return RunSearch(module_, plan_, report_, config, shape);
}

bool VerifyWitness(const IrModule& module, const BugReport& report,
                   const std::vector<i64>& witness_cells) {
  CellRunner runner(module, report.shape);
  CellRunConfig config;
  config.model = witness_cells;
  config.symbolic_syscalls = false;
  const CellRunOutput run = runner.Run(config);
  return run.result.Crashed() && run.result.crash.SameSite(report.crash);
}

}  // namespace retrace
