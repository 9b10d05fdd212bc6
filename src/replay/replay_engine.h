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
// and run the resulting input. A run starts at the deepest checkpoint on
// its worker's previous run's path — just before a read() or a branch
// that published a pending — that the checkpoint rule admits for the new
// input, with the changed input cells patched in, or at main when none
// is admitted (src/replay/replay_run.h, src/concolic/cellrun.h).
// Reproduction succeeds when a run crashes at the reported crash site.
//
// One search loop, run by every entry point below. Each worker keeps the
// pendings its own runs publish on a private stack, in its own arena,
// each with the slice state of the solve that produced its trace: it
// pops them depth-first, one per frontier visit, solves each from that
// base (delta solving) and resumes its run on the worker's own
// checkpoint stack. A pending becomes portable (PortableTrace) only when
// it crosses a worker or process boundary:
//   - num_workers == 1, num_shards <= 1: one worker and nothing else,
//     in the depth-first order the 1x1 sentinels (863/7027/2810 runs)
//     pin.
//   - num_workers > 1: N threads with thread-confined interpreter/arena/
//     solver contexts. A worker whose stack runs dry asks for work; a
//     busy worker answers at its next pop by donating its oldest pending
//     in portable form through a shared pool (src/support/workqueue.h),
//     and whoever pops it imports it once. The workers dedup tried sets
//     search-wide, share slice verdicts through a SliceCache, and cancel
//     on first crash.
//   - num_shards > 1 (through a fleet owner, not this engine): the
//     coordinator in src/dist/ scouts with a one-worker search, then
//     deals the scouted pendings to the num_shards processes of a
//     standing fleet, each running the loop above with its share in its
//     pool; pending sets and slice verdicts travel between them over a
//     versioned binary wire format (src/dist/wire.h).
#ifndef RETRACE_REPLAY_REPLAY_ENGINE_H_
#define RETRACE_REPLAY_REPLAY_ENGINE_H_

#include <atomic>
#include <functional>
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
  /// (first entry of a comma-separated sweep list),
  /// RETRACE_REPLAY_TRANSPORT, RETRACE_GOSSIP_INTERVAL_MS,
  /// RETRACE_HEARTBEAT_INTERVAL_MS, RETRACE_FAULT_SPEC,
  /// RETRACE_SHARD_TOKEN and RETRACE_SHARD_ENDPOINTS.
  /// Every knob is parsed strictly (src/support/env.h): an unset knob
  /// keeps the field default, garbage prints the offending value and
  /// exits with code 2 — a replay whose configuration was silently
  /// ignored produces numbers nobody should trust. Budget fields
  /// (max_runs, wall_ms, seed) are NOT environment knobs; callers set
  /// them explicitly.
  static ReplayConfig FromEnv();

  u64 max_runs = 20'000;
  i64 wall_ms = -1;               // The paper's 1-hour allotment (scaled).
  u64 total_steps = 4'000'000'000ull;
  u64 max_steps_per_run = 100'000'000;
  SolverOptions solver;
  u64 seed = 42;                  // Initial random input.
  bool use_syscall_log = true;    // Replay logged syscall results (§3.3).
  // Pending-set pick rule. kDfs is the paper's depth-first search (§3);
  // kFifo is the breadth-first ablation of §3.2 (bench_ablation).
  enum class Pick { kDfs, kFifo } pick = Pick::kDfs;
  // Concolic executions in flight *per process*. 1 = one worker (the
  // 1x1 sentinels); 0 = one per hardware thread.
  u32 num_workers = 1;
  // Replay shard processes. <= 1 keeps everything in-process (the search
  // above). N > 1 runs N shard processes — each running num_workers
  // threads — under a coordinator that partitions an initial pending-set
  // frontier across them, gossips slice-cache verdicts between them, and
  // cancels the fleet on the first reproduced crash
  // (src/dist/coordinator.h). Read by the fleet owners (Pipeline,
  // ReplayService), not by ReplayEngine. Fork shards fork on the calling
  // thread of the owner's first distributed search; make it from a
  // single-threaded context.
  u32 num_shards = 1;
  // Upper bound on resident SliceCache entries (0 = unbounded, the
  // historical behavior). Long-horizon daemons reusing one search budget
  // across reports want a bound; evictions surface in
  // ReplayStats::slice_evictions.
  u64 slice_cache_capacity = 0;
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
  // Shard transport, for a pipeline's fleet and the service's alike
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
  // Test tap, in-process only (never shipped to shards): called on the
  // worker's thread with every model the worker runs, in run order, and
  // the length of the pending set it solves (0: none).
  std::function<void(u32 worker, const std::vector<i64>& model, size_t start_depth)> model_tap;
};

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
  u64 steals = 0;        // Pendings received from another worker (donations).
  u64 dedup_skips = 0;   // Pending sets dropped: already tried fleet-wide.
  u64 cancelled_runs = 0;  // Runs aborted by first-crash-wins cancellation.
  // Incremental solving layer (src/solver/incremental.h).
  u64 slices_solved = 0;     // Constraint slices sent to the local search.
  u64 slice_sat_hits = 0;    // Slices satisfied from the fleet-wide cache.
  u64 slice_unsat_hits = 0;  // Pendings rejected by the UNSAT cache.
  u64 corpus_runs = 0;  // Runs seeded from ReplayConfig::corpus_seeds.
  // Checkpoint resume (src/replay/replay_run.h): runs that started at a
  // checkpoint instead of main, those whose checkpoint paused at a branch
  // rather than a read(), the instructions they skipped, and the
  // instructions runs executed before reaching their flipped or forced
  // branch (ReplayRun::instrs_before_flip).
  u64 resumed_runs = 0;
  u64 resumed_at_branch = 0;
  u64 instrs_skipped = 0;
  u64 instrs_before_flip = 0;
  // Delta solving (src/solver/incremental.h): slices taken over from the
  // parent solve's state (also counted in slice_sat_hits), and solves
  // that started from such a state. A pending that arrived in portable
  // form (a seed, an import, another worker's donation) solves from
  // depth 0; its run's pendings inherit again.
  u64 slices_inherited = 0;
  u64 solves_from_base = 0;
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
  u64 wire_bytes_tx = 0;         // Coordinator -> shard bytes, this search only.
  u64 wire_bytes_rx = 0;         // Shard -> coordinator bytes, this search only.
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
  u64 steals = 0;  // Pendings received from another worker (donations).
  u64 dedup_skips = 0;
  u64 cancelled_runs = 0;
  u64 slices_solved = 0;
  u64 slice_sat_hits = 0;
  u64 slice_unsat_hits = 0;
  // Entries dropped by the slice-cache LRU bound (0 while
  // slice_cache_capacity == 0; summed over shards when distributed).
  u64 slice_evictions = 0;
  // Runs whose input came from ReplayConfig::corpus_seeds.
  u64 corpus_runs = 0;
  // Checkpoint resume: runs that started at a checkpoint, those that
  // started at a branch checkpoint, the instructions they did not
  // re-execute, and the instructions executed before flipped branches
  // (summed over workers and, since wire v10 and v12, shards).
  u64 resumed_runs = 0;
  u64 resumed_at_branch = 0;
  u64 instrs_skipped = 0;
  u64 instrs_before_flip = 0;
  // Delta solving: slices inherited from a parent solve's state, and
  // solves that started from one (summed like resumed_runs).
  u64 slices_inherited = 0;
  u64 solves_from_base = 0;
  // ----- Distributed mode only (all zero when num_shards <= 1) -----
  u64 harvest_runs = 0;       // Coordinator scout runs before sharding.
  u64 wire_bytes_tx = 0;      // Bytes coordinator -> shards, this search.
  u64 wire_bytes_rx = 0;      // Bytes shards -> coordinator, this search.
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
  // At-least-once: a dead shard may have already run some of them; a
  // receiver drops a copy it already tried in its per-search dedup, and
  // otherwise runs it again.
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

/// A frontier entry in portable form: one pending constraint set and the
/// run that produced it, independent of any arena. Pendings take this
/// form only when they leave the worker that published them: a donation
/// to another worker, the scout's frontier shipped to shards, re-balance
/// traffic between shards (encoded by src/dist/wire.h). A worker keeps
/// its own pendings arena-resident (src/replay/replay_engine.cc).
///
/// **Ownership:** `trace`, `seed` and `domains` are immutable shared
/// snapshots; sibling pendings of one run alias the same trace. The
/// constraint set is `trace->constraints[0, len)` with the last entry
/// negated when `negate_last`.
struct PortablePending {
  std::shared_ptr<const PortableTrace> trace;
  size_t len = 0;
  bool negate_last = false;
  std::shared_ptr<const std::vector<i64>> seed;
  std::shared_ptr<const std::vector<Interval>> domains;
  // Log bits the prefix consumed: the coordinator deals the scout's
  // frontier to shards deepest-first by it. Not a queue key.
  u64 priority = 0;
};

/// An entry of a search's shared pool: a portable pending, and the
/// worker of the same search that donated it. Another worker that pops
/// it counts it in ReplayWorkerStats::steals.
struct PooledPending {
  PortablePending pending;
  i64 donor = -1;  // -1: from outside the search (a seed, a re-balance import).
};

template <typename T>
class DonationPool;
class StopSource;

/// \brief Thread-safe window into a running shard search's frontier —
/// the export hook behind distributed work re-balancing.
///
/// The shard main loop (src/dist/shard.cc) owns a FrontierPort and hands
/// it to ReproduceShard via ShardContext::port; the engine attaches its
/// live frontier's shared pool (and the search's stop source) on entry
/// and detaches before tearing it down. The port only ever touches the
/// pool: a worker's own pendings live in that worker's arena, which only
/// its thread may read. The shard's gossip pump concurrently uses the
/// port to:
///   - Import() pendings re-balanced from loaded peers,
///   - Export() pooled pendings for starved peers, asking the workers to
///     donate more when the pool runs short,
///   - HoldOpen()/ReleaseHold() keep a drained frontier from declaring
///     termination while a re-balance request is in flight,
///   - Cancel() the search when another shard won (kStop).
///
/// **Thread safety:** every method is safe from any thread; an internal
/// mutex serializes against Attach/Detach, so calls after Detach are
/// harmless no-ops. **Ownership:** borrows the pool between Attach and
/// Detach; counters survive Detach so the engine can fold them into
/// ReplayStats.
class FrontierPort {
 public:
  /// Binds the port to a live frontier and the stop source its workers
  /// watch. Applies a Cancel() that arrived before the search started.
  /// Engine-side only.
  void Attach(DonationPool<PooledPending>* frontier, u32 num_workers, StopSource* stop);
  /// Unbinds (releasing any outstanding hold). Engine-side only; must be
  /// called before the frontier is destroyed.
  void Detach();

  /// Pushes one re-balanced pending into the shared pool, where the
  /// first worker to run dry takes it. Imports that race ahead of Attach are buffered and
  /// flushed when the frontier appears, so an answer to the pump's first
  /// request can never be lost to startup timing. False only after
  /// Detach (search over) — then the pending is dropped, which costs the
  /// fleet nothing but a re-prove.
  bool Import(PortablePending pending);
  /// Takes up to `max_items` pooled pendings for a starved peer, keeping
  /// at least ~2 per worker in the whole frontier. The shortfall is
  /// raised as a donation request: busy workers export their oldest
  /// pendings into the pool at their next pop, for the next call.
  /// Returns the count (0 when detached or nothing is pooled yet).
  size_t Export(size_t max_items, std::vector<PortablePending>* out);
  /// Frontier size, the workers' own stacks included (0 when detached).
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
  DonationPool<PooledPending>* frontier_ = nullptr;
  StopSource* stop_ = nullptr;
  u32 num_workers_ = 1;
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
  /// Frontier entries shipped by the coordinator, put into the search's
  /// shared pool before the search starts.
  std::vector<PortablePending> seed_frontier;
  /// Shared verdict store (thread-safe); null = a cache of the search's
  /// own, sized by ReplayConfig::slice_cache_capacity.
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
/// Every search it runs is in-process: Reproduce ignores num_shards.
/// A distributed search (num_shards > 1) runs through a fleet owner —
/// Pipeline::Reproduce, ReplayService or RunDistributedJob
/// (src/dist/coordinator.h) — whose scout and shards re-enter this
/// engine through Scout and ReproduceShard.
///
/// **Thread safety:** a ReplayEngine instance is not thread-safe; one
/// reproduction call at a time. Internally a search spawns worker
/// threads (num_workers > 1).
///
/// **Ownership:** borrows module/plan/report; all must outlive the
/// engine. Every search worker builds its own arena (shared hash-consing
/// is not thread-safe).
class ReplayEngine {
 public:
  /// `plan` must be the plan the report's binary shipped with.
  ReplayEngine(const IrModule& module, const InstrumentationPlan& plan, const BugReport& report)
      : module_(module), plan_(plan), report_(report) {}

  /// One in-process search under `config`; num_shards is not read.
  ReplayResult Reproduce(const ReplayConfig& config);

  /// The distributed coordinator's scout: a one-worker search
  /// (config.num_workers is ignored) that stops on
  /// config's budgets or once its frontier holds `target_frontier`
  /// pendings. Whatever is left of the frontier is appended to
  /// `frontier` in portable form, ready to ship to shards. A reproduced
  /// result short-circuits the whole distributed search.
  ReplayResult Scout(const ReplayConfig& config, size_t target_frontier,
                     std::vector<PortablePending>* frontier);

  /// One distributed shard's in-process search with `shard`'s seed
  /// frontier, shared cache and external cancellation wired in. With one
  /// worker, no port and no seeds it is the search Reproduce runs. Exposed for
  /// src/dist/, the service and tests; `Reproduce` is the normal entry
  /// point.
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
