// Developer-site bug reproduction: symbolic execution guided by the
// partial branch log (paper §3).
//
// The engine performs runs with concrete inputs. At every executed branch
// the four cases of §3.1 apply:
//   1. symbolic, not instrumented  -> record the constraint; both
//      directions are explorable (pending set with the negation).
//   2. symbolic, instrumented      -> compare with the next log bit;
//      (a) match: keep going; (b) mismatch: build the constraint set that
//      forces the logged direction, push it, abort the run.
//   3. concrete, instrumented      -> compare with the next log bit;
//      (a) match: keep going; (b) mismatch: abort (an earlier wrong turn
//      at an uninstrumented symbolic branch).
//   4. concrete, not instrumented  -> keep going.
// Aborted runs pull the next pending constraint set (depth-first by
// default), solve it over a prefix view of its trace (no per-pop copy),
// and restart with the resulting input. Reproduction succeeds when a run
// crashes at the reported crash site.
//
// One search loop, run by every entry point below. Its shape:
//   - num_workers == 1, num_shards <= 1: one worker on a private
//     frontier. Nothing else can take its pendings, so they stay in the
//     worker's arena, and it pops one pending per frontier visit: the
//     depth-first order the 1x1 sentinels (863/7027/2810 runs) pin.
//   - num_workers > 1: N threads with thread-confined interpreter/arena/
//     solver contexts share a work-stealing frontier, exchange pending
//     sets in arena-portable form, dedup tried sets fleet-wide, share
//     slice verdicts through a SliceCache, and cancel on first crash.
//   - num_shards > 1: the coordinator in src/dist/ scouts with a
//     one-worker private search, then forks num_shards processes, each
//     running the loop above on a portable frontier; pending sets and
//     slice verdicts travel between them over a versioned binary wire
//     format (src/dist/wire.h).
#ifndef RETRACE_REPLAY_REPLAY_ENGINE_H_
#define RETRACE_REPLAY_REPLAY_ENGINE_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/concolic/cellrun.h"
#include "src/core/report.h"
#include "src/solver/incremental.h"
#include "src/solver/solver.h"
#include "src/support/rng.h"

namespace retrace {

/// How distributed shard processes are connected to the coordinator
/// (only consulted when ReplayConfig::num_shards > 1).
enum class ReplayTransport {
  kFork,  // fork() + socketpairs on this host (the historical default).
  kTcp,   // TCP sockets: remote hosts join via tools/retrace_shardd.
};

/// Program sources a TCP shard needs to rebuild the module on a remote
/// host (lowering is deterministic, so branch ids match the
/// coordinator's). Filled automatically by Pipeline::Reproduce and
/// Pipeline::MakeService; required whenever the shards are TCP shards.
struct ReplayProgramSources {
  std::string app;
  std::vector<std::string> libs;
};

struct ReplayConfig {
  /// Builds a config from the documented RETRACE_* environment knobs
  /// (docs/BENCHMARKS.md): RETRACE_REPLAY_WORKERS, RETRACE_REPLAY_SHARDS
  /// (first entry of a comma-separated sweep list), RETRACE_REPLAY_PICK,
  /// RETRACE_SOLVER_CACHE, RETRACE_REPLAY_PRUNE, RETRACE_REPLAY_TRANSPORT
  /// and RETRACE_GOSSIP_INTERVAL_MS. Every knob is parsed strictly
  /// (src/support/env.h): an unset knob keeps the field default, garbage
  /// prints the offending value and exits with code 2 — a replay whose
  /// configuration was silently ignored produces numbers nobody should
  /// trust. Budget fields (max_runs, wall_ms, seed) are NOT environment
  /// knobs; callers set them explicitly.
  static ReplayConfig FromEnv();

  u64 max_runs = 20'000;
  i64 wall_ms = -1;               // The paper's 1-hour allotment (scaled).
  u64 total_steps = 4'000'000'000ull;
  u64 max_steps_per_run = 100'000'000;
  SolverOptions solver;
  u64 seed = 42;                  // Initial random input.
  bool use_syscall_log = true;    // Replay logged syscall results (§3.3).
  // Pending-set heuristic. kLogBits prioritizes pendings whose prefix
  // consumed the most branch-log bits — the deepest on-log progress — the
  // bet for scenarios where DFS/FIFO drown in off-log subtrees.
  // kDirection prioritizes pendings whose constraint set *forces* the
  // most logged directions (the case-2a/2b constraints of §3.1 — the
  // observer signal behind aborts_forced_direction): unlike raw log
  // bits, concrete instrumented branches consume bits without binding
  // the solver to the log, so kDirection ranks by how hard the set
  // actually pins the run to the recorded execution.
  // kPortfolio is only meaningful with num_workers > 1: worker 0 runs
  // DFS, worker 1 FIFO, worker 2 log-bits, worker 3 direction-aware, and
  // the rest adaptive — they start as randomized DFS with per-worker
  // seeds and periodically promote themselves to whichever fixed
  // discipline is producing the best on-log-run rate
  // (aborts_forced_direction / runs) on this scenario, so one search
  // discipline's pathology does not stall the whole fleet and the best
  // one gains workers over time (ReplayStats::promotions).
  enum class Pick { kDfs, kFifo, kPortfolio, kLogBits, kDirection } pick = Pick::kDfs;
  // Concolic executions in flight *per process*. 1 = one worker on a
  // private frontier (the 1x1 sentinels); 0 = one per hardware thread.
  u32 num_workers = 1;
  // Replay shard processes. <= 1 keeps everything in-process (the search
  // above). N > 1 runs N shard processes — each running num_workers
  // threads — under a coordinator that partitions an initial pending-set
  // frontier across them, gossips slice-cache verdicts between them, and
  // cancels the fleet on the first reproduced crash
  // (src/dist/coordinator.h). Fork shards fork on the calling thread;
  // call from a single-threaded context.
  u32 num_shards = 1;
  // Incremental solving layer: partition each pending set into
  // independent slices and share slice SAT/UNSAT verdicts fleet-wide
  // (src/solver/incremental.h). Off = the monolithic solver. The 1x1
  // sentinels are pinned with it on, the default.
  bool solver_cache = true;
  // Upper bound on resident SliceCache entries (0 = unbounded, the
  // historical behavior). Long-horizon daemons reusing one search budget
  // across reports want a bound; evictions surface in
  // ReplayStats::slice_evictions.
  u64 slice_cache_capacity = 0;
  // Pendings a worker pops (and solves) per frontier visit. Batching
  // lets sibling pendings — which share almost all slices — hit the
  // caches back to back while the worker holds its own deque's items
  // anyway; extras beyond the first never come from stealing. One-worker
  // Reproduce ignores it and pops one at a time (depth-first order).
  u32 solve_batch = 8;
  // Prefix-subsumption pruning: drop a pending at Push time when a
  // structurally identical constraint set was already executed by some
  // run or already published to the frontier (fleet-wide FingerprintSet;
  // ReplayStats::pendings_pruned). Sound — the pruned pending's subtree
  // stays reachable through its subsumer — but it changes run counts,
  // so it defaults off: the 1x1 sentinels hold only with it off.
  bool prune_subsumed = false;
  // Dynamic-analysis corpus seeds: concrete input-cell models (the shape
  // of AnalysisResult::corpus / AnalysisConfig::extra_seed_models) run
  // by the fleet right after each worker's initial random input, so the
  // search radiates from exploration-discovered prefixes (deep protocol
  // byte-ladders) instead of random bytes alone. Partitioned across the
  // fleet: shard s runs seeds with index % num_shards == s, and within a
  // shard workers split that slice round-robin — no seed runs twice.
  // Ships to every shard inside the job config codec. Empty (the
  // default) changes nothing.
  std::vector<std::vector<i64>> corpus_seeds;
  // ----- Distributed mode only (ignored when num_shards <= 1) -----
  // Shard transport, for one-shot searches and the service's fleet alike
  // (UsesTcpShards in src/dist/fleet.h). kFork (default) forks children
  // over socketpairs. kTcp — implied by a non-empty `shard_endpoints` —
  // makes the coordinator listen on `tcp_listen` and accept shard
  // connections:
  // remote hosts join the fleet by running `retrace_shardd <host:port>`
  // against a *fixed* listen port; with `shard_endpoints` set the
  // coordinator instead dials out to daemons waiting in `retrace_shardd
  // --listen` mode; with neither — and the default ephemeral listen
  // port ":0", which no remote host could target — the coordinator
  // self-spawns local children that connect over loopback (the full TCP
  // path on one machine, used by tests/CI).
  ReplayTransport transport = ReplayTransport::kFork;
  // Coordinator listen address for kTcp, "host:port"; port 0 binds an
  // ephemeral port (loopback self-spawn and tests).
  std::string tcp_listen = "127.0.0.1:0";
  // kTcp dial-out targets: "host:port" per waiting `retrace_shardd
  // --listen` daemon. Fewer endpoints than shards leaves the remaining
  // slots to inbound connections on `tcp_listen`.
  std::vector<std::string> shard_endpoints;
  // Shard verdict-publish cadence in milliseconds: the longest a shard's
  // pump goes without shipping freshly proved slice verdicts (it also
  // ships them whenever something else wakes it). Not a latency floor:
  // the pump wakes at once for an incoming frame (kStop, re-balance
  // traffic) and for the end of its own search. Clamped to [1, 1000].
  int gossip_interval_ms = 20;
  // Heartbeat cadence riding the gossip pump (wire v5): the shard sends
  // kHeartbeat to the coordinator and the coordinator to every shard at
  // least this often, so silence is meaningful on an otherwise idle
  // channel. 0 disables outbound heartbeats. Ships in the job config.
  int heartbeat_interval_ms = 100;
  // Liveness deadline: a shard silent for this long is declared dead by
  // the coordinator (its unaccounted frontier pendings re-deal to live
  // shards); a shard that hears nothing from the coordinator for this
  // long self-terminates, so `retrace_shardd --listen` daemons never
  // orphan on a hung or partitioned coordinator. 0 disables both
  // deadlines (death is then only detected on channel close/corruption).
  int heartbeat_timeout_ms = 10'000;
  // Deterministic fault injection for the dist layer (tests/CI only):
  // comma-separated `<target>:<action><trigger>` clauses, where target is
  // `shardN` or `all`, action is `drop|delay|dup|corrupt|close|hang`, and
  // trigger is `@frameN` (the Nth frame received from that shard) or `%P`
  // (each frame with probability P percent, seeded from `seed`). Example:
  // "shard1:close@frame20,shard2:hang@frame5,all:corrupt%1". Parsed by
  // src/dist/fault.h; a malformed spec aborts loudly (exit 2, like every
  // other strict knob). Empty = no faults. Never shipped to shards.
  std::string fault_spec;
  // Program sources for TCP shards (see ReplayProgramSources). Fork
  // shards inherit the module by copy-on-write and never receive them.
  ReplayProgramSources program;
  // Shared-secret auth token for the kTcp listener (RETRACE_SHARD_TOKEN,
  // wire v7). Non-empty: every joiner's kJoin must carry the same token
  // or the connection is refused before any job bytes ship. Empty: auth
  // off (trusted local setups). Never shipped inside the job codec —
  // the secret authenticates the channel, it must not ride it.
  std::string shard_token;
};

/// The search disciplines a portfolio fleet runs, in the index order of
/// ReplayStats::discipline_runs/discipline_on_log. kRandom is the
/// adaptive workers' starting state; promotion moves them onto one of
/// the four fixed disciplines.
enum class SearchDiscipline : u8 { kDfs = 0, kFifo, kLogBits, kDirection, kRandom };
inline constexpr size_t kNumDisciplines = 5;

inline const char* SearchDisciplineName(size_t d) {
  switch (static_cast<SearchDiscipline>(d)) {
    case SearchDiscipline::kDfs: return "dfs";
    case SearchDiscipline::kFifo: return "fifo";
    case SearchDiscipline::kLogBits: return "logbits";
    case SearchDiscipline::kDirection: return "direction";
    case SearchDiscipline::kRandom: return "random";
  }
  return "?";
}

/// Off-log death telemetry for one unlogged branch location (wire v4).
///
/// When a replay run aborts off the log (case 3b concrete mismatch, an
/// exhausted log, or a crash at the wrong site), the death is attributed
/// to the *last case-1 branch* the run executed — the most recent point
/// where the search took an unlogged turn the log could not check. A
/// branch collecting many attributed deaths is where the search is
/// blind: the refinement layer (src/instrument/refine.h) promotes such
/// branches into the plan.
struct BranchFailureCounts {
  u32 branch_id = 0;
  u64 deaths_concrete = 0;   // Case-3b aborts attributed here.
  u64 deaths_exhausted = 0;  // Log-exhausted aborts attributed here.
  u64 deaths_wrong_crash = 0;  // Wrong-site crashes attributed here.
  u64 blind_execs = 0;       // Case-1 (unlogged symbolic) executions.

  u64 Deaths() const { return deaths_concrete + deaths_exhausted + deaths_wrong_crash; }
};

/// Per-branch off-log death counts for a whole search, aggregated
/// losslessly across workers and shards (the per-branch counters sum,
/// exactly like ReplayWorkerStats into ReplayStats). Sparse and sorted
/// by branch_id — only branches with at least one case-1 execution or
/// attributed death appear.
struct ReplayFailureProfile {
  std::vector<BranchFailureCounts> branches;
  // Off-log deaths with no preceding case-1 branch in the run (the
  // divergence predates any unlogged symbolic turn — e.g. a different
  // random seed diverging at the very first instrumented branch).
  u64 deaths_unattributed = 0;

  // Losslessly folds `other` into this profile (counters sum per
  // branch id; the sparse union stays sorted).
  void Merge(const ReplayFailureProfile& other);
  const BranchFailureCounts* Find(u32 branch_id) const;
  u64 TotalDeaths() const;
  bool Empty() const { return branches.empty() && deaths_unattributed == 0; }
};

/// Counters for one worker of the search loop. The aggregate
/// ReplayStats sums these losslessly, so `stats.runs` etc. mean the same
/// at any worker count.
struct ReplayWorkerStats {
  u64 runs = 0;
  u64 solver_calls = 0;
  u64 aborts_forced_direction = 0;   // Case 2b.
  u64 aborts_concrete_mismatch = 0;  // Case 3b.
  u64 aborts_log_exhausted = 0;
  u64 crashes_wrong_site = 0;
  u64 steals = 0;        // Pending sets taken from another worker's deque.
  u64 dedup_skips = 0;   // Pending sets dropped: already tried fleet-wide.
  u64 cancelled_runs = 0;  // Runs aborted by first-crash-wins cancellation.
  // Incremental solving layer (zero when ReplayConfig::solver_cache off).
  u64 slices_solved = 0;     // Constraint slices sent to the local search.
  u64 slice_sat_hits = 0;    // Slices satisfied from the fleet-wide cache.
  u64 slice_unsat_hits = 0;  // Pendings rejected by the UNSAT cache.
  // Search-quality layer (all zero unless the matching knob is on).
  u64 pendings_pruned = 0;  // Dropped at Push by the subsumption index.
  u64 corpus_runs = 0;      // Runs seeded from ReplayConfig::corpus_seeds.
  u64 promotions = 0;       // Times this adaptive worker switched discipline.
};

/// Counters for one shard process of the distributed scheduler
/// (ReplayConfig::num_shards > 1), reported back over the wire and
/// paired with the coordinator's transport byte counts.
struct ReplayShardStats {
  u32 shard_id = 0;
  bool reproduced = false;   // This shard won the first-crash-wins race.
  u64 runs = 0;
  u64 solver_calls = 0;
  u64 pendings_seeded = 0;       // Frontier entries shipped at start.
  u64 verdicts_published = 0;    // Slice verdicts this shard gossiped out.
  u64 verdicts_imported = 0;     // Verdicts merged in from other shards.
  u64 pendings_exported = 0;     // Frontier entries carved off for starved peers.
  u64 pendings_imported = 0;     // Re-balanced entries merged into this frontier.
  u64 rebalance_rounds = 0;      // kWorkRequest cycles this shard initiated.
  u64 pendings_pruned = 0;       // Pendings this shard's subsumption index dropped.
  u64 wire_bytes_tx = 0;         // Coordinator -> shard bytes.
  u64 wire_bytes_rx = 0;         // Shard -> coordinator bytes.
  double wall_seconds = 0.0;
  // ----- Failure handling (wire v5) -----
  // This shard was declared dead mid-search (channel closed/corrupted or
  // the missed-heartbeat deadline expired) without reporting a result.
  bool lost = false;
  // Ledgered frontier pendings the coordinator re-injected into live
  // shards when *this* shard died. For lost shards `pendings_seeded` is
  // the coordinator's queue-time count (the shard never echoed one).
  u64 pendings_recovered = 0;
  // Missed-heartbeat deadline expiries the coordinator charged to this
  // shard (0 or 1 today: the first expiry declares it dead).
  u64 heartbeats_missed = 0;
};

/// Aggregate search statistics.
///
/// Single process: every counter is the lossless sum over `per_worker`.
/// Distributed (num_shards > 1): counters additionally include the
/// coordinator's scout runs (`harvest_runs` of `runs` happened in the
/// coordinator before sharding), `per_worker` concatenates every shard's
/// workers in shard order, and `per_shard` carries the per-process and
/// wire-transport breakdown.
struct ReplayStats {
  u64 runs = 0;
  u64 solver_calls = 0;
  u64 aborts_forced_direction = 0;  // Case 2b.
  u64 aborts_concrete_mismatch = 0;  // Case 3b.
  u64 aborts_log_exhausted = 0;
  u64 crashes_wrong_site = 0;
  u64 pending_peak = 0;
  u64 steals = 0;
  u64 dedup_skips = 0;
  u64 cancelled_runs = 0;
  u64 slices_solved = 0;
  u64 slice_sat_hits = 0;
  u64 slice_unsat_hits = 0;
  // Entries dropped by the slice-cache LRU bound (0 while
  // slice_cache_capacity == 0; summed over shards when distributed).
  u64 slice_evictions = 0;
  // ----- Search-quality layer (PR 5) -----
  // Pendings dropped at Push time by the prefix-subsumption index (0
  // while prune_subsumed is off; summed over workers and shards).
  u64 pendings_pruned = 0;
  // Runs whose input came from ReplayConfig::corpus_seeds.
  u64 corpus_runs = 0;
  // Adaptive-worker discipline switches under Pick::kPortfolio.
  u64 promotions = 0;
  // Per-discipline run accounting (SearchDiscipline index order):
  // completed (non-cancelled) runs attributed to the discipline whose
  // pop produced them, and how many of those ended in a forced logged
  // direction (case 2b) — the on-log rate the promotion layer ranks by.
  std::array<u64, kNumDisciplines> discipline_runs{};
  std::array<u64, kNumDisciplines> discipline_on_log{};
  // ----- Distributed mode only (all zero when num_shards <= 1) -----
  u64 harvest_runs = 0;       // Coordinator scout runs before sharding.
  u64 wire_bytes_tx = 0;      // Total bytes coordinator -> shards.
  u64 wire_bytes_rx = 0;      // Total bytes shards -> coordinator.
  u64 verdicts_gossiped = 0;  // Slice verdicts relayed between shards.
  // Frontier re-balancing (summed over shards when distributed): entries
  // exported to / imported from peers via kWorkRequest/kPendingExport,
  // and how many request cycles ran.
  u64 pendings_exported = 0;
  u64 pendings_imported = 0;
  u64 rebalance_rounds = 0;
  // ----- Failure handling (wire v5; all zero when nothing fails) -----
  // Shards declared dead mid-search (channel loss, corrupt stream, or a
  // missed-heartbeat deadline) that never reported a result.
  u64 shards_lost = 0;
  // Ownership-ledger pendings re-injected into live shards (or, with no
  // live shard left, into the in-process fallback) on shard death.
  // At-least-once: a dead shard may have already run some of them, and
  // FingerprintSet subsumption dedups the re-execution.
  u64 pendings_recovered = 0;
  // Missed-heartbeat deadline expiries across the fleet (sum of the
  // per-shard counters).
  u64 heartbeats_missed = 0;
  // The whole fleet died without a result and the coordinator fell back
  // to an in-process search on the remaining wall budget.
  bool fallback_inprocess = false;
  // Off-log death telemetry (wire v4): which unlogged branches aborted
  // runs died flipping, split by abort class. Always collected — the
  // accumulators never influence a search decision, so run counts stay
  // bit-identical to the pre-telemetry engine. Workers fold their dense
  // per-branch accumulators in here losslessly; the distributed
  // coordinator merges every shard's profile the same way.
  ReplayFailureProfile failure_profile;
  // One entry per worker of the search loop (one worker: a single entry
  // mirroring the totals). In-process: sum of any counter over
  // per_worker equals the aggregate above. Distributed: aggregates are
  // per_worker sums plus the coordinator's scout (harvest_runs), whose
  // own worker entry is dropped.
  std::vector<ReplayWorkerStats> per_worker;
  // One entry per shard process; empty unless num_shards > 1.
  std::vector<ReplayShardStats> per_shard;
};

// Worker count that saturates the host: hardware threads clamped to
// [1, 16] (frontier contention outgrows the benefit beyond that for
// interpreter-bound runs). This is the resolution of num_workers == 0.
u32 DefaultReplayWorkers();

// ReplayConfig::num_workers as the search runs it: 0 resolves to
// DefaultReplayWorkers(), anything else is taken as is.
u32 ResolveReplayWorkers(u32 num_workers);

struct ReplayResult {
  bool reproduced = false;
  std::vector<std::string> witness_argv;  // Inputs that activate the bug.
  std::vector<i64> witness_cells;
  CrashSite crash;
  ReplayStats stats;
  bool budget_exhausted = false;
  double wall_seconds = 0.0;
};

/// A frontier entry: one pending constraint set and the run that
/// produced it. `Trace` is any type with a `constraints` vector — the
/// form the run's trace is kept in:
///   - PortableTrace (PortablePending below): arena-independent. Pending
///     sets take this form whenever they can leave the producing worker —
///     on a frontier shared by several workers, or across the process
///     boundary in distributed mode (encoded by src/dist/wire.h).
///   - arena-resident: a private one-worker search keeps the trace in its
///     worker's arena (src/replay/replay_engine.cc) and exports only what
///     it hands on at exit.
///
/// **Ownership:** `trace`, `seed` and `domains` are immutable shared
/// snapshots; sibling pendings of one run alias the same trace. The
/// constraint set is `trace->constraints[0, len)` with the last entry
/// negated when `negate_last`.
template <typename Trace>
struct FrontierPending {
  std::shared_ptr<const Trace> trace;
  size_t len = 0;
  bool negate_last = false;
  std::shared_ptr<const std::vector<i64>> seed;
  std::shared_ptr<const std::vector<Interval>> domains;
  u64 priority = 0;   // Log bits the prefix consumed (Pick::kLogBits key).
  u64 dir_score = 0;  // Logged directions the set forces (Pick::kDirection key).
};
using PortablePending = FrontierPending<PortableTrace>;

template <typename T>
class WorkStealingQueue;
class StopSource;

/// \brief Thread-safe window into a running shard search's frontier —
/// the export hook behind distributed work re-balancing.
///
/// The shard main loop (src/dist/shard.cc) owns a FrontierPort and hands
/// it to ReproduceShard via ShardContext::port; the engine attaches its
/// live frontier (and the search's stop source) on entry and detaches
/// before tearing it down. The shard's gossip pump concurrently uses
/// the port to:
///   - Import() pendings re-balanced from loaded peers,
///   - Export() the deepest local entries for starved peers,
///   - HoldOpen()/ReleaseHold() keep a drained frontier from declaring
///     termination while a re-balance request is in flight,
///   - Cancel() the search when another shard won (kStop).
///
/// **Thread safety:** every method is safe from any thread; an internal
/// mutex serializes against Attach/Detach, so calls after Detach are
/// harmless no-ops. **Ownership:** borrows the queue between Attach and
/// Detach; counters survive Detach so the engine can fold them into
/// ReplayStats.
class FrontierPort {
 public:
  /// Binds the port to a live frontier and the stop source its workers
  /// watch. Applies a Cancel() that arrived before the search started.
  /// Engine-side only.
  void Attach(WorkStealingQueue<PortablePending>* frontier, u32 num_workers, StopSource* stop);
  /// Unbinds (releasing any outstanding hold). Engine-side only; must be
  /// called before the frontier is destroyed.
  void Detach();

  /// Pushes one re-balanced pending into the frontier (worker deques
  /// round-robin). Imports that race ahead of Attach are buffered and
  /// flushed when the frontier appears, so an answer to the pump's first
  /// request can never be lost to startup timing. False only after
  /// Detach (search over) — then the pending is dropped, which costs the
  /// fleet nothing but a re-prove.
  bool Import(PortablePending pending);
  /// Carves up to `max_items` of the deepest entries for a starved peer,
  /// keeping at least ~2 per worker locally. Returns the count (0 when
  /// detached or the frontier has nothing to spare).
  size_t Export(size_t max_items, std::vector<PortablePending>* out);
  /// Resident frontier size (0 when detached).
  size_t size() const;

  /// Registers/releases an external-producer hold on the frontier: while
  /// held, a drained frontier with every worker blocked waits instead of
  /// terminating — an imported pending may still arrive. Idempotent;
  /// Detach releases an outstanding hold.
  void HoldOpen();
  void ReleaseHold();

  /// First-crash-wins from outside the process: requests the stop (runs
  /// in flight abort at their next branch) and closes the frontier, so
  /// workers blocked in Pop() return at once. Before Attach the cancel
  /// is remembered and Attach applies it; after Detach it is a no-op.
  /// Idempotent.
  void Cancel();

  u64 imported() const { return imported_; }
  u64 exported() const { return exported_; }

 private:
  mutable std::mutex mu_;
  WorkStealingQueue<PortablePending>* frontier_ = nullptr;
  StopSource* stop_ = nullptr;
  u32 num_workers_ = 1;
  size_t import_cursor_ = 0;
  bool held_ = false;
  bool cancelled_ = false;
  bool ever_attached_ = false;
  std::vector<PortablePending> pre_attach_imports_;
  std::atomic<u64> imported_{0};
  std::atomic<u64> exported_{0};
};

/// External state injected into one distributed shard's in-process
/// search. All pointers are borrowed; the caller (the shard main loop in
/// src/dist/shard.cc) must keep them alive until ReproduceShard returns.
struct ShardContext {
  /// Frontier entries shipped by the coordinator, distributed round-robin
  /// over the workers' deques before the search starts.
  std::vector<PortablePending> seed_frontier;
  /// Shared verdict store (thread-safe); null = engine-private cache.
  /// The shard's gossip pump drains/merges it concurrently with the
  /// search.
  SliceCache* cache = nullptr;
  /// Offsets every worker's rng stream so shards explore from distinct
  /// initial inputs; 0 keeps the in-process streams.
  u64 rng_stream = 0;
  /// This shard's slot and the fleet size — the corpus-seed partition key
  /// (shard s runs seeds with index % num_shards == s). The in-process
  /// defaults (0 of 1) run every seed.
  u32 shard_id = 0;
  u32 num_shards = 1;
  /// Frontier re-balance and cancellation hook: when non-null,
  /// ReproduceShard attaches its live frontier here so the shard's
  /// gossip pump can import/export pendings and cancel the search
  /// mid-flight (first-crash-wins across processes), and folds the
  /// port's counters into ReplayStats::{pendings_imported,
  /// pendings_exported} on exit.
  FrontierPort* port = nullptr;
};

/// \brief The developer-site reproduction engine.
///
/// **Thread safety:** a ReplayEngine instance is not thread-safe; one
/// reproduction call at a time. Internally Reproduce spawns worker
/// threads (num_workers > 1) and — via src/dist/ — shard processes
/// (num_shards > 1); forking happens on the calling thread, so call from
/// a single-threaded context when num_shards > 1.
///
/// **Ownership:** borrows module/plan/report; all must outlive the
/// engine. Every search worker builds its own arena (shared hash-consing
/// is not thread-safe).
class ReplayEngine {
 public:
  /// `plan` must be the plan the report's binary shipped with.
  ReplayEngine(const IrModule& module, const InstrumentationPlan& plan, const BugReport& report)
      : module_(module), plan_(plan), report_(report) {}

  ReplayResult Reproduce(const ReplayConfig& config);

  /// The distributed coordinator's scout: a one-worker private search
  /// (config.num_workers and solve_batch are ignored) that stops on
  /// config's budgets or once its frontier holds `target_frontier`
  /// pendings. Whatever is left of the frontier is appended to
  /// `frontier` in portable form, ready to ship to shards. A reproduced
  /// result short-circuits the whole distributed search.
  ReplayResult Scout(const ReplayConfig& config, size_t target_frontier,
                     std::vector<PortablePending>* frontier);

  /// One distributed shard's in-process search with `shard`'s seed
  /// frontier, shared cache and external cancellation wired in. With one
  /// worker, no port and no seeds the frontier is private, as in
  /// Reproduce. Exposed for src/dist/, the service and tests; `Reproduce`
  /// is the normal entry point.
  ReplayResult ReproduceShard(const ReplayConfig& config, ShardContext* shard);

 private:
  const IrModule& module_;
  const InstrumentationPlan& plan_;
  const BugReport& report_;
};

/// Runs the witness input concretely and checks it crashes at the
/// report's crash site. Pipeline::VerifyWitness and the replay service
/// both call this before trusting a reproduction.
bool VerifyWitness(const IrModule& module, const BugReport& report,
                   const std::vector<i64>& witness_cells);

}  // namespace retrace

#endif  // RETRACE_REPLAY_REPLAY_ENGINE_H_
