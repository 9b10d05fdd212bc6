#include "src/replay/replay_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "src/dist/coordinator.h"
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
  config.solver_cache = EnvKnobBool("RETRACE_SOLVER_CACHE", true);
  config.transport = TransportFromEnv();
  config.gossip_interval_ms =
      static_cast<int>(EnvKnobI64("RETRACE_GOSSIP_INTERVAL_MS", 20, 1, 1000));
  config.heartbeat_interval_ms =
      static_cast<int>(EnvKnobI64("RETRACE_HEARTBEAT_INTERVAL_MS", 100, 0, 60'000));
  config.heartbeat_timeout_ms =
      static_cast<int>(EnvKnobI64("RETRACE_HEARTBEAT_TIMEOUT_MS", 10'000, 0, 600'000));
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
// Lock order: port mutex, then (inside WorkStealingQueue calls) the
// queue mutex — never the reverse, so Attach/Detach cannot deadlock
// against a pump mid-Import/Export.

void FrontierPort::Attach(WorkStealingQueue<PortablePending>* frontier, u32 num_workers,
                          StopSource* stop) {
  std::lock_guard<std::mutex> lock(mu_);
  frontier_ = frontier;
  stop_ = stop;
  num_workers_ = std::max(1u, num_workers);
  ever_attached_ = true;
  // A hold acquired before the search started (the pump arms re-balancing
  // ahead of the first worker run) transfers onto the live queue.
  if (held_) {
    frontier_->AddProducer();
  }
  // Imports that raced ahead of the frontier's existence land now.
  for (PortablePending& pending : pre_attach_imports_) {
    frontier_->Push(import_cursor_++ % num_workers_, std::move(pending));
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
  // instead of burying it in a queue that is about to be destroyed.
  if (!frontier_->PushIfOpen(import_cursor_ % num_workers_, std::move(pending))) {
    return false;
  }
  ++import_cursor_;
  imported_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

size_t FrontierPort::Export(size_t max_items, std::vector<PortablePending>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (frontier_ == nullptr) {
    return 0;
  }
  // Never starve ourselves to feed a peer: keep ~2 entries per worker.
  const size_t n = frontier_->ExportDeepest(max_items, 2 * num_workers_, out);
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

// The trace form of a private search's frontier: constraints over the one
// worker's arena, never exported until the scout hands them on. `base`
// is the slice state of the solve whose model ran this trace (null for
// the first run and corpus seeds): every pending of the trace extends it
// (delta solving, src/solver/incremental.h), and it is freed with the
// last of them. The constraints are shared on their own because the
// state borrows them (SliceState::Rebase) and pins them, never the trace
// itself.
struct ResidentTrace {
  std::shared_ptr<const std::vector<Constraint>> constraints;
  std::shared_ptr<const SliceState> base;
};

// Fingerprint of constraints [0, len) with the last one negated when
// `negate_last`, over arena hashes: equal to FingerprintConstraints of
// the same set in portable form, so the key is stable across arenas.
u64 FingerprintResident(const ExprArena& arena, const std::vector<Constraint>& cs, size_t len,
                        bool negate_last) {
  u64 fp = kConstraintFingerprintSeed;
  for (size_t i = 0; i < len; ++i) {
    const bool flip = negate_last && i + 1 == len;
    fp = ExtendConstraintFingerprint(fp, arena.StructuralHash(cs[i].expr),
                                     cs[i].want_true != flip);
  }
  return fp;
}

// How an entry point runs the one search loop.
struct SearchShape {
  u32 workers = 1;
  size_t solve_batch = 1;
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
// `Trace` is the frontier's form. A private search (ResidentTrace: one
// worker, no FrontierPort, no seed frontier) keeps every pending in its
// worker's arena: nothing else can take them, so it pays for portability
// only where the scout hands its frontier on. It skips what only a
// shared frontier needs: the per-pop dedup fingerprint and the
// per-branch cancellation check. Every other search (PortableTrace)
// exports each run's trace once and re-imports it per worker on pop.
template <typename Trace>
ReplayResult RunSearch(const IrModule& module, const InstrumentationPlan& plan,
                       const BugReport& report, const ReplayConfig& config,
                       const SearchShape& shape) {
  constexpr bool kPrivate = std::is_same_v<Trace, ResidentTrace>;
  using Pending = FrontierPending<Trace>;
  const auto t0 = std::chrono::steady_clock::now();
  ReplayResult result;
  const u32 num_workers = shape.workers;
  ShardContext* shard = shape.shard;

  // Shared scheduler state. Everything the workers share is either
  // immutable (module, plan, report), synchronized here (frontier, dedup
  // registry, winner slot), or lock-free (stop flag, run admission).
  WorkStealingQueue<Pending> frontier(num_workers);
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
  // SAT/UNSAT, every worker reuses the verdict (null = layer disabled).
  // A distributed shard or the service shares its process-wide cache
  // instead — a shard's gossip pump merges remote verdicts into it
  // concurrently.
  std::unique_ptr<SliceCache> owned_cache;
  SliceCache* slice_cache = shard != nullptr ? shard->cache : nullptr;
  if (slice_cache == nullptr && config.solver_cache) {
    owned_cache = std::make_unique<SliceCache>(config.slice_cache_capacity);
    slice_cache = owned_cache.get();
  }
  const u64 rng_stream = shard != nullptr ? shard->rng_stream : 0;
  if constexpr (!kPrivate) {
    // Coordinator-shipped frontier: distributed shards start from their
    // partition of the scout's pending sets, spread round-robin over the
    // worker deques (workers still perform their own initial random runs
    // — cross-shard search diversification is part of the speedup).
    if (shard != nullptr) {
      for (size_t i = 0; i < shard->seed_frontier.size(); ++i) {
        frontier.Push(i % num_workers, std::move(shard->seed_frontier[i]));
      }
      shard->seed_frontier.clear();
      // Publish the frontier to the re-balance port before any worker can
      // drain it: the gossip pump may import/export from here on.
      if (shard->port != nullptr) {
        shard->port->Attach(&frontier, num_workers, &stop);
      }
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
    Solver solver(arena, config.solver);
    std::unique_ptr<IncrementalSolver> incremental;
    if (config.solver_cache) {
      incremental = std::make_unique<IncrementalSolver>(arena, config.solver, slice_cache);
    }
    Rng rng(config.seed + 0x9e3779b97f4a7c15ull * (wid + rng_stream));
    const u64 step_share = std::max<u64>(1, config.total_steps / num_workers);
    Budget budget = config.wall_ms > 0 ? Budget::StepsAndMillis(step_share, config.wall_ms)
                                       : Budget::Steps(step_share);
    CancelObserver cancel(stop);
    ReplayRunLimits limits;
    limits.syscall_log = replay_log;
    limits.max_steps = config.max_steps_per_run;
    limits.budget = &budget;
    if constexpr (!kPrivate) {
      // Only a shared search can be stopped by someone else mid-run.
      limits.cancel = &cancel;
    }
    ReplayRunner runner(module, plan, report, &arena, &failures, limits);

    const PopOrder pop_order = config.pick == ReplayConfig::Pick::kFifo ? PopOrder::kOldestFirst
                                                                        : PopOrder::kNewestFirst;

    // Runs one input; returns true when the search is over for this worker
    // (it reproduced the bug, or lost the race to another worker's crash).
    // `state` is the slice state of the solve that produced `model`, if
    // any; a private search hands it to the pendings this run publishes.
    auto do_run = [&](const std::vector<i64>& model, size_t start_depth,
                      std::shared_ptr<SliceState> state) -> bool {
      if (config.model_tap) {
        config.model_tap(wid, model, start_depth);
      }
      ReplayRun run = runner.Run(model, start_depth);
      CellRunOutput& out = run.out;
      ReplayPath& path = run.path;
      ++ws.runs;

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
      // One snapshot per run; all pendings of this run share it.
      const size_t trace_len = path.trace.size();
      auto seed = std::make_shared<const std::vector<i64>>(std::move(out.cells));
      auto domains = std::make_shared<const std::vector<Interval>>(std::move(out.domains));
      std::shared_ptr<const Trace> trace;
      if constexpr (kPrivate) {
        auto constraints = std::make_shared<const std::vector<Constraint>>(std::move(path.trace));
        // The run's trace starts with the set its model solved, so the
        // state can borrow it from this trace (and this run's domains,
        // when unchanged) instead of pinning the parent's.
        if (state != nullptr && !state->Rebase(constraints, domains)) {
          state.reset();
        }
        trace = std::make_shared<const ResidentTrace>(
            ResidentTrace{std::move(constraints), std::move(state)});
      } else {
        trace = std::make_shared<const PortableTrace>(ExportTrace(arena, path.trace));
      }
      // Case-1 alternatives, deepest explored first under DFS.
      for (size_t flip : path.flippable) {
        if (flip < start_depth) {
          continue;  // Already offered by the run that generated this prefix.
        }
        frontier.Push(wid, Pending{trace, flip + 1, /*negate_last=*/true, seed, domains,
                                   path.bits_at[flip]});
      }
      if (path.forced_direction) {
        // Pushed last, so DFS pops it first: it steers the run back onto the log.
        frontier.Push(wid, Pending{trace, trace_len, /*negate_last=*/false, seed, domains,
                                   path.cursor});
      }
      return false;
    };

    // The popped set's constraints in this worker's arena. Resident
    // traces already are. A portable trace is re-interned once per
    // worker — sibling pendings share it — and every pop solves over a
    // prefix view of the memoized copy: no per-pop import or copy. Keyed
    // by raw pointer; the keepalive vector pins every keyed trace so a
    // recycled allocation address can never alias a retired one.
    std::unordered_map<const Trace*, std::vector<Constraint>> import_memo;
    std::vector<std::shared_ptr<const Trace>> import_keepalive;
    auto resident_constraints =
        [&](const std::shared_ptr<const Trace>& t) -> const std::vector<Constraint>& {
      if constexpr (kPrivate) {
        return *t->constraints;
      } else {
        auto it = import_memo.find(t.get());
        if (it != import_memo.end()) {
          return it->second;
        }
        if (import_memo.size() >= 64) {  // Bound resident snapshots.
          import_memo.clear();
          import_keepalive.clear();
        }
        import_keepalive.push_back(t);
        return import_memo
            .emplace(t.get(), ImportConstraints(*t, t->constraints.size(),
                                                /*negate_last=*/false, &arena))
            .first->second;
      }
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
      done = do_run(initial, 0, nullptr);
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
      done = do_run(config.corpus_seeds[i], 0, nullptr);
    }

    // Batched frontier solves: pop up to K pendings per frontier visit and
    // solve them back to back before running any model. Sibling pendings
    // share almost every slice, so the batch's first solve warms the cache
    // for the rest; runs follow in pop order.
    const size_t batch_cap = std::max<size_t>(1, shape.solve_batch);
    std::vector<Pending> batch;
    struct ReadyRun {
      std::vector<i64> model;
      size_t len = 0;
      std::shared_ptr<SliceState> state;
    };
    std::vector<ReadyRun> ready;
    while (!done && !stop.StopRequested() && !budget.Exhausted()) {
      if (shape.stop_at_frontier > 0 && frontier.size() >= shape.stop_at_frontier) {
        break;  // Scout: the frontier is wide enough to shard.
      }
      if (runs_admitted.load(std::memory_order_relaxed) >= config.max_runs) {
        // Global run cap, checked before popping so no pending is taken
        // (or solved) for a run that can never start.
        frontier.Close();
        break;
      }
      u64 stolen = 0;
      if (!frontier.PopBatch(wid, pop_order, batch_cap, &batch, &stolen)) {
        break;  // Frontier drained, cancelled, or run cap reached.
      }
      ws.steals += stolen;
      ready.clear();
      for (const Pending& pending : batch) {
        const std::vector<Constraint>& constraints = resident_constraints(pending.trace);
        if constexpr (!kPrivate) {
          // Only a shared frontier can hand one set out twice (two workers
          // or shards reaching it independently).
          const u64 fp =
              FingerprintResident(arena, constraints, pending.len, pending.negate_last);
          std::lock_guard<std::mutex> lock(dedup_mu);
          if (!tried.insert(fp).second) {
            ++ws.dedup_skips;
            continue;
          }
        }
        const ConstraintSpan set(constraints.data(), pending.len, pending.negate_last);
        ++ws.solver_calls;
        SolveResult solved;
        std::shared_ptr<SliceState> state;
        if (incremental == nullptr) {
          solved = solver.Solve(set, *pending.domains, *pending.seed);
        } else if constexpr (kPrivate) {
          // Extend the slice state of the solve that produced this trace,
          // and keep this solve's own for the run it produces.
          state = std::make_shared<SliceState>();
          solved = incremental->Solve(set, *pending.domains, *pending.seed,
                                      pending.trace->base.get(), state.get());
          state->set_owner = pending.trace->constraints;
          state->domains_owner = pending.domains;
        } else {
          // A portable trace can run on any worker or shard: no state
          // travels with it, so every solve starts at depth 0.
          solved = incremental->Solve(set, *pending.domains, *pending.seed);
        }
        if (solved.status == SolveStatus::kSat) {
          ready.push_back(ReadyRun{std::move(solved.model), pending.len, std::move(state)});
        }
      }
      for (ReadyRun& run : ready) {
        if (done || stop.StopRequested() || budget.Exhausted()) {
          break;
        }
        if (runs_admitted.fetch_add(1) >= config.max_runs) {
          // Global run cap: the whole search is over, not just this worker.
          frontier.Close();
          done = true;
          break;
        }
        done = do_run(run.model, run.len, std::move(run.state));
      }
    }
    ws.resumed_runs = runner.resumed_runs();
    ws.resumed_at_branch = runner.resumed_at_branch();
    ws.instrs_skipped = runner.instrs_skipped();
    ws.instrs_before_flip = runner.instrs_before_flip();
    if (incremental != nullptr) {
      const IncrementalStats& inc = incremental->stats();
      ws.slices_solved = inc.slices_solved;
      ws.slice_sat_hits = inc.slice_sat_hits;
      ws.slice_unsat_hits = inc.slice_unsat_hits;
      ws.slices_inherited = inc.slices_inherited;
      ws.solves_from_base = inc.solves_from_base;
    }
    if constexpr (kPrivate) {
      if (shape.leftover != nullptr) {
        // Scout exit: the one place a private pending leaves its worker.
        // Each distinct trace is exported once, here, while its arena is
        // alive; sibling pendings keep sharing the snapshot.
        std::vector<Pending> left;
        frontier.Drain(&left);
        std::unordered_map<const ResidentTrace*, std::shared_ptr<const PortableTrace>> exported;
        for (Pending& pending : left) {
          std::shared_ptr<const PortableTrace>& snapshot = exported[pending.trace.get()];
          if (snapshot == nullptr) {
            snapshot = std::make_shared<const PortableTrace>(
                ExportTrace(arena, *pending.trace->constraints));
          }
          shape.leftover->push_back(PortablePending{
              snapshot, pending.len, pending.negate_last, std::move(pending.seed),
              std::move(pending.domains), pending.priority});
        }
      }
    }
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
  if (slice_cache != nullptr) {
    result.stats.slice_evictions = slice_cache->evictions();
  }
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
  if (config.num_shards > 1) {
    // Multi-process mode: the coordinator forks shard processes, each of
    // which re-enters this engine through ReproduceShard.
    return ReproduceDistributed(module_, plan_, report_, config);
  }
  SearchShape shape;
  shape.workers = ResolveReplayWorkers(config.num_workers);
  if (shape.workers == 1) {
    // One pending per frontier visit: the depth-first order the 1x1
    // sentinels pin.
    return RunSearch<ResidentTrace>(module_, plan_, report_, config, shape);
  }
  shape.solve_batch = config.solve_batch;
  return RunSearch<PortableTrace>(module_, plan_, report_, config, shape);
}

ReplayResult ReplayEngine::ReproduceShard(const ReplayConfig& config, ShardContext* shard) {
  SearchShape shape;
  shape.workers = ResolveReplayWorkers(config.num_workers);
  shape.solve_batch = config.solve_batch;
  shape.shard = shard;
  if (shape.workers == 1 && shard->port == nullptr && shard->seed_frontier.empty()) {
    return RunSearch<ResidentTrace>(module_, plan_, report_, config, shape);
  }
  return RunSearch<PortableTrace>(module_, plan_, report_, config, shape);
}

ReplayResult ReplayEngine::Scout(const ReplayConfig& config, size_t target_frontier,
                                 std::vector<PortablePending>* frontier) {
  SearchShape shape;
  shape.stop_at_frontier = target_frontier;
  shape.leftover = frontier;
  return RunSearch<ResidentTrace>(module_, plan_, report_, config, shape);
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
