// Incremental solving layer between the replay frontier and the
// local-search solver.
//
// Pending constraint sets popped from one search share long prefixes
// (they are prefixes of the same traces, differing in the last flipped
// branch), and most constraints touch disjoint input cells. The layer
// exploits both properties:
//
//   1. Independence partitioning: union-find over shared variables splits
//      a set into connected components ("slices") that are satisfiable
//      independently; the full model is stitched from per-slice
//      sub-models. A flipped last branch only re-solves the slice it
//      touches — the untouched slices reuse their prior sub-model.
//   2. Fleet-wide slice caches: a sharded solution cache and UNSAT cache,
//      keyed by arena-independent structural fingerprints of the slice
//      (constraint structure + polarity + the domains of every variable
//      the slice mentions), shared by all workers of a search. Once any
//      worker proves a slice SAT or UNSAT, no worker solves it again.
//
//   3. Delta solving: a pending is its parent run's path prefix plus a
//      few constraints, so a solve can start from the SliceState of the
//      solve whose model produced that run. Only the slices the delta
//      creates or merges, and slices whose variables' domains changed,
//      go through the caches; every other slice is inherited with the
//      sub-model it was validated with. See SliceState below.
//
// Soundness: the key covers structure, polarity and domains, so a hit is
// the *same* subproblem — a cached model is revalidated against the live
// constraints before use (a fingerprint collision therefore degrades to
// a cache miss, never to a wrong model), and UNSAT entries carry a
// second, independently-seeded fingerprint of the same content, so
// masking a SAT slice requires a simultaneous 128-bit collision. Seeds
// are deliberately excluded from the key: they steer which model the
// search finds, never whether one exists. Only sound verdicts are cached
// — kUnknown (budget-truncated) results are not.
#ifndef RETRACE_SOLVER_INCREMENTAL_H_
#define RETRACE_SOLVER_INCREMENTAL_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/solver/solver.h"
#include "src/support/recycle.h"

namespace retrace {

/// \brief Shared SAT/UNSAT slice-verdict store.
///
/// Sharded internally to keep the per-lookup critical section off the
/// fleet's hot path. One instance lives per reproduction search (or per
/// distributed shard process) and is shared by every worker.
///
/// **Thread safety:** every public method is safe to call concurrently
/// from any number of threads; each internal shard is guarded by its own
/// mutex. **Ownership:** the cache is owned by whoever created the search
/// (engine or shard main loop) and must outlive every `IncrementalSolver`
/// that points at it.
class SliceCache {
 public:
  /// Sub-model of one slice: (variable, value), ascending by variable.
  using SliceModel = std::vector<std::pair<i32, i64>>;

  /// A cached solution, in the wire/gossip exchange shape.
  struct SatEntry {
    u64 key = 0;
    SliceModel model;
  };
  /// A cached UNSAT verdict: primary key plus the independently-seeded
  /// check fingerprint of the same slice content.
  struct UnsatEntry {
    u64 key = 0;
    u64 check = 0;
  };

  /// \param capacity Upper bound on resident entries (SAT + UNSAT
  ///   together), approximately enforced: the bound is split evenly over
  ///   the internal shards (minimum one entry per shard), each of which
  ///   evicts least-recently-used entries independently. 0 = unbounded —
  ///   the pre-LRU behavior, bit-identical for any search that fits in
  ///   memory.
  explicit SliceCache(u64 capacity = 0);

  /// Returns true and fills `model` when `key` has a cached solution.
  /// A hit refreshes the entry's LRU position when the cache is bounded.
  bool LookupSat(u64 key, SliceModel* model) const;
  /// Returns true when (key, check) is a proven-unsatisfiable slice.
  /// `check` is the second fingerprint of the slice content; an entry only
  /// matches when both agree (SAT hits are revalidated against the live
  /// constraints instead, so they need no check key).
  bool LookupUnsat(u64 key, u64 check) const;

  /// Stores a locally proved verdict. First store wins; a duplicate store
  /// only refreshes recency. Journaled for gossip when EnableJournal()
  /// was called.
  void StoreSat(u64 key, SliceModel model);
  void StoreUnsat(u64 key, u64 check);

  /// Stores a verdict learned from another shard's gossip. Identical to
  /// Store*, except the entry is never journaled — so a verdict is
  /// re-broadcast by its prover only, never echoed around the ring.
  void MergeSat(u64 key, SliceModel model);
  void MergeUnsat(u64 key, u64 check);

  /// Switches on journaling of locally proved verdicts (off by default;
  /// the single-process engine never pays for it). Call before sharing
  /// the cache with workers.
  void EnableJournal() { journal_.store(true, std::memory_order_release); }

  /// Moves every verdict journaled since the previous drain into the
  /// output vectors (appended). The distributed shard's gossip pump calls
  /// this periodically and ships the delta to its peers.
  void DrainJournal(std::vector<SatEntry>* sat, std::vector<UnsatEntry>* unsat);

  /// Entry counts across all shards (bench/test introspection).
  u64 sat_entries() const;
  u64 unsat_entries() const;
  /// Entries dropped by the LRU bound so far (0 while unbounded).
  u64 evictions() const { return evictions_.load(std::memory_order_relaxed); }

  // ----- Cross-report retention (replay-as-a-service) -----
  //
  // A resident service keeps one cache alive across many reports. The
  // default policy is retain-everything (slice keys cover structure,
  // polarity and domains, so entries are sound across unrelated
  // reports); Clear() is the isolate-reports policy, and the snapshot
  // pair persists warmth across daemon restarts.

  /// Drops every resident entry and any undrained journal delta. The
  /// LRU bound and eviction counter survive.
  void Clear();

  /// What a snapshot save/load touched (diagnostics).
  struct SnapshotInfo {
    u64 sat_entries = 0;
    u64 unsat_entries = 0;
    u64 bytes = 0;  // Snapshot file size including the header.
  };

  /// Writes every resident verdict to `path` (via a temp file + rename,
  /// so a crashed save never leaves a torn snapshot behind). The file is
  /// versioned and digest-checked like the wire format:
  ///   | magic u32 | version u16 | reserved u16 | payload_len u64 |
  ///   | digest u64 | payload ... |
  /// False on I/O failure.
  bool SaveSnapshot(const std::string& path, SnapshotInfo* info = nullptr) const;

  /// Loads a SaveSnapshot file and merges its entries (journal-free,
  /// first-store-wins, LRU bound enforced). Rejects wrong magic or
  /// version, truncation, trailing garbage, and digest mismatch — on
  /// any rejection the cache is untouched. False on rejection or a
  /// missing/unreadable file.
  bool LoadSnapshot(const std::string& path, SnapshotInfo* info = nullptr);

 private:
  static constexpr size_t kShards = 16;
  // LRU bookkeeping: one recency list per shard, front = most recent.
  struct LruKey {
    u64 key = 0;
    bool is_sat = false;
  };
  struct SatNode {
    SliceModel model;
    std::list<LruKey>::iterator pos;  // Valid only when bounded.
  };
  struct UnsatNode {
    u64 check = 0;
    std::list<LruKey>::iterator pos;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<u64, SatNode> sat;
    std::unordered_map<u64, UnsatNode> unsat;
    std::list<LruKey> lru;
    std::vector<SatEntry> sat_journal;
    std::vector<UnsatEntry> unsat_journal;
  };
  Shard& ShardFor(u64 key) const { return shards_[(key >> 59) % kShards]; }

  void StoreSatImpl(u64 key, SliceModel model, bool journal);
  void StoreUnsatImpl(u64 key, u64 check, bool journal);
  void TouchLocked(Shard& shard, std::list<LruKey>::iterator pos) const;
  void EvictLocked(Shard& shard);

  u64 per_shard_cap_ = 0;  // 0 = unbounded.
  std::atomic<bool> journal_{false};
  mutable std::atomic<u64> evictions_{0};
  mutable Shard shards_[kShards];
};

struct IncrementalStats {
  u64 slices_total = 0;      // Slices encountered across all Solve calls.
  u64 slices_solved = 0;     // Slices actually sent to the local search.
  u64 slice_sat_hits = 0;    // Slices satisfied straight from the cache.
  u64 slice_unsat_hits = 0;  // Sets rejected straight from the UNSAT cache.
  // Delta solving: slices taken over from a base state without touching
  // the cache (each also counts in slices_total and slice_sat_hits, as
  // the hit it replaces), and solves that started from a base state.
  u64 slices_inherited = 0;
  u64 solves_from_base = 0;
};

/// \brief The slices of one solved constraint set and how each was
/// resolved: the base a later solve extends (delta solving).
///
/// A replay pending is its parent run's path prefix plus a few
/// constraints, and that prefix is exactly the set the parent pending
/// solved. `IncrementalSolver::Solve` given the parent's state as base
/// therefore only partitions the delta: constraints `[base size, n)`.
/// Base slices the delta does not touch keep their resolution; slices
/// the delta creates or merges are resolved as in a depth-0 solve (key,
/// UNSAT lookup, SAT lookup + revalidation, or solve + store), in the
/// same first-appearance order, so the model, the status, the counters
/// and the cache contents are those of the depth-0 solve.
///
/// Inheritance rules. A base slice is re-resolved through the cache
/// instead of inherited when
///   - the domain of one of its variables changed (its key changed), or
///   - it is not inheritable: its cache hit failed revalidation (that
///     path solves from the call's seed, so it must be re-run), or the
///     hit's model did not cover exactly the slice's variables (the
///     revalidation then depended on the seed).
/// A base whose constraints are not a prefix of the new set, by ExprRef
/// and polarity, is ignored: the solve starts from depth 0, which is
/// also the case for every set with no base (the search's first run, a
/// corpus seed's run, portable traces).
///
/// Bounded caches: an inherited slice is not looked up, so it does not
/// refresh its entry's LRU recency, and it keeps its sub-model even if
/// its entry was evicted meanwhile (a depth-0 solve would re-solve it).
/// Both are sound. An unbounded cache with one writer never forgets or
/// replaces an entry, so there inheriting is exact.
///
/// Representation. A state is an immutable parent plus a delta: the
/// slices its own solve created, merged or re-resolved. Two persistent
/// maps, radix trees that share every node a solve did not write with
/// the parent's, find the rest: variable -> slice, and head (a slice's
/// first constraint index) -> slice, which counts the slices before any
/// head. A dense value array holds the validated value of every variable
/// a live slice mentions; unlike the core, it dies with the state's
/// handle. A
/// solve from a base visits only the base slices its delta touches,
/// merges or re-domains, and counts the inherited ones in bulk by those
/// ranks; a child's own storage grows with its delta (and the value
/// array with the variables), not with the depth of the set, and the
/// parent's core lives as long as any child.
///
/// **Ownership:** it borrows the constraints and the domains vector the
/// solve that filled it was given (`set`, `domains`): keep both alive
/// and unchanged while the state serves as a base. `set_owner` and
/// `domains_owner` may own them; Solve never touches those fields.
/// Rebase moves the borrow to equal storage the caller already keeps,
/// such as the trace of the run the model produced, which starts with
/// the solved set. The replay engine does that when it hands the state
/// to that run's pendings, which share it; it is freed with the last of
/// them. A child solve does not pin the parent's set or domains.
struct SliceState {
  size_t num_slices() const;
  /// True when `other` starts with this state's constraints, by ExprRef
  /// and polarity.
  bool Prefixes(ConstraintSpan other) const;
  /// Borrows the solved set from `trace` instead, which must start with
  /// it (false, and nothing changes, when it does not), and the domains
  /// from `trace_domains` when they are equal to the state's. Taking
  /// ownership of both, the state then pins only what the caller keeps
  /// anyway, and later Prefixes and domain checks against the same
  /// storage are a pointer compare. A caller that knows the first
  /// `known_equal` entries of `trace` to be the set's saves comparing
  /// them.
  bool Rebase(std::shared_ptr<const std::vector<Constraint>> trace,
              std::shared_ptr<const std::vector<Interval>> trace_domains,
              size_t known_equal = 0);
  /// Back to the empty state (the depth-0 base).
  void Clear();
  /// Bytes this state's own solve wrote: its slices and map nodes.
  size_t own_bytes() const;

  ConstraintSpan set;                             // The solved set.
  const std::vector<Interval>* domains = nullptr;  // The domains it was solved under.
  std::shared_ptr<const void> set_owner;
  std::shared_ptr<const void> domains_owner;

 private:
  friend class IncrementalSolver;
  struct Core;
  std::shared_ptr<const Core> core;
  // Which variables a live slice mentions, and the validated value of
  // each, in variable order. Only solves from this state read them, so
  // they live here, not in the core a child keeps alive.
  std::vector<i64> values;
  std::vector<u64> mapped;
};

/// \brief Per-worker solving facade over the shared slice caches.
///
/// Partitions each incoming set, consults the shared caches per slice,
/// solves only the missing slices with the wrapped local-search solver,
/// and stitches the sub-models into a full model.
///
/// **Thread safety:** NOT thread-safe — it wraps a thread-confined arena
/// and solver. Share the `SliceCache` across workers, never the
/// `IncrementalSolver`. **Ownership:** borrows `arena` and `cache`; both
/// must outlive the solver.
class IncrementalSolver {
 public:
  IncrementalSolver(const ExprArena& arena, SolverOptions options, SliceCache& cache);
  ~IncrementalSolver();

  /// Solves `constraints`. With `base` (a state an earlier SAT solve of
  /// this search filled), the solve extends it by the delta; see
  /// SliceState for when it falls back to depth 0. With `out`, a SAT
  /// solve leaves its own state there for the next solve to extend (on
  /// any other status `out` is left empty). `base` and `out` must not
  /// alias.
  SolveResult Solve(ConstraintSpan constraints, const std::vector<Interval>& domains,
                    const std::vector<i64>& seed, const SliceState* base = nullptr,
                    SliceState* out = nullptr);
  /// The same, into `result`, whose model keeps its storage across calls
  /// (its contents are unspecified unless the status is kSat).
  void Solve(ConstraintSpan constraints, const std::vector<Interval>& domains,
             const std::vector<i64>& seed, const SliceState* base, SliceState* out,
             SolveResult* result);

  const IncrementalStats& stats() const { return stats_; }

 private:
  // Memoized per-expression variable sets (CollectVars order); pendings of
  // one search name the same expressions over and over. The span points
  // into vars_pool_, so it is invalidated by the next VarsOf of an
  // expression not yet memoized.
  std::span<const i32> VarsOf(ExprRef expr);

  // A core for a state's solve, recycled from the cores of states gone.
  std::shared_ptr<SliceState::Core> NewCore();

  const ExprArena& arena_;
  Solver solver_;
  SliceCache& cache_;
  IncrementalStats stats_;
  SolveResult sub_;  // A slice's local search.
  struct ReleaseCore {
    void operator()(SliceState::Core& core) const;
  };
  Recycler<SliceState::Core, ReleaseCore> cores_;

  static constexpr u32 kNone = ~0u;

  // Dense memo behind VarsOf, indexed by ExprRef: (offset, length) into
  // one flat pool (off == kNone: not yet collected). Grows with the
  // arena, never shrinks.
  struct VarsSpan {
    u32 off = kNone;
    u32 len = 0;
  };
  std::vector<VarsSpan> vars_memo_;
  std::vector<i32> vars_pool_;
  std::vector<i32> vars_scratch_;

  // Per-Solve scratch, reset by every call and never shrunk, so a warm
  // solver partitions without allocating. var_owner_ stays all-kNone
  // between calls: each call clears the entries it set, via
  // owner_touched_, right after the union pass. Nodes are the delta
  // constraints followed by the base slices the call touches.
  std::vector<u32> parent_;         // Union-find over nodes.
  std::vector<u32> var_owner_;      // Var id -> first delta node naming it.
  std::vector<i32> owner_touched_;  // Var ids whose owner this call set.
  std::vector<const void*> touched_;                   // Touched base slices, by node.
  std::unordered_map<const void*, u32> touched_node_;  // And back.
  std::vector<u32> node_group_;     // Node -> group (kNone: constant).
  std::vector<u32> root_group_;     // Union-find root -> group.
  std::vector<u32> group_start_;    // CSR: group g is nodes [start[g], start[g+1]).
  std::vector<u32> group_fill_;
  std::vector<u32> group_nodes_;
  std::vector<u32> group_head_;     // Group -> its first constraint index.
  std::vector<u32> order_;          // Groups by head: the slices to resolve.
  std::vector<u32> absorbed_;       // Heads of base slices merged into another, ascending.
  std::vector<u32> slice_members_;  // One resolved slice's constraint indices.
  std::vector<Constraint> slice_constraints_;
  std::vector<i32> slice_vars_;
  SliceCache::SliceModel cached_model_;  // A SAT hit's sub-model; reuses its capacity.
  // The slices resolved in this call, for the `out` state: each one's
  // head, where its members and variables start in the flat vectors,
  // whether it is inheritable, and the hashes of its constraints.
  struct Dirty {
    u32 head = 0;
    u32 members = 0;
    u32 vars = 0;
    bool inheritable = false;
    u64 key = 0;
    u64 check = 0;
  };
  std::vector<Dirty> dirty_;
  std::vector<u32> dirty_members_;
  std::vector<i32> dirty_vars_;
};

}  // namespace retrace

#endif  // RETRACE_SOLVER_INCREMENTAL_H_
