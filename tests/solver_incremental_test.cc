// Tests for the incremental solving layer (src/solver/incremental.h):
// independence partitioning, fleet-wide slice caches, the work-stealing
// frontier's batched pop, and their wiring into the replay engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/solver/incremental.h"
#include "src/support/rng.h"
#include "src/support/workqueue.h"
#include "tests/testutil.h"

namespace retrace {
namespace {

// ----- Partition correctness -----

// Three independent components over nine byte cells; the seed violates
// every one, so each slice needs genuine repair. The stitched model must
// satisfy the *whole* set.
TEST(IncrementalSolverTest, StitchedModelSatisfiesWholeSet) {
  ExprArena arena;
  std::vector<Constraint> cs;
  for (i32 base = 0; base < 9; base += 3) {
    const ExprRef v0 = arena.MkVar(base);
    const ExprRef v1 = arena.MkVar(base + 1);
    const ExprRef v2 = arena.MkVar(base + 2);
    cs.push_back({arena.MkBin(ExprOp::kEq, v0, arena.MkConst('a' + base)), true});
    cs.push_back({arena.MkBin(ExprOp::kGt, arena.MkBin(ExprOp::kAdd, v0, v1),
                              arena.MkConst(200)), true});
    cs.push_back({arena.MkBin(ExprOp::kNe, v1, v2), true});
  }
  const std::vector<Interval> domains(9, Interval{0, 255});
  const std::vector<i64> seed(9, 0);

  SliceCache cache;
  IncrementalSolver inc(arena, SolverOptions{}, cache);
  const SolveResult r = inc.Solve(ConstraintSpan(cs.data(), cs.size()), domains, seed);
  ASSERT_EQ(r.status, SolveStatus::kSat);

  Solver plain(arena, SolverOptions{});
  EXPECT_TRUE(plain.Satisfies(cs, r.model));
  // The set really was split: three components, each solved separately.
  EXPECT_EQ(inc.stats().slices_total, 3u);
  EXPECT_EQ(inc.stats().slices_solved, 3u);
}

TEST(IncrementalSolverTest, NegateLastViewOnlyAffectsLastConstraint) {
  ExprArena arena;
  const ExprRef x = arena.MkVar(0);
  const ExprRef y = arena.MkVar(1);
  std::vector<Constraint> cs{{arena.MkBin(ExprOp::kEq, x, arena.MkConst(7)), true},
                             {arena.MkBin(ExprOp::kEq, y, arena.MkConst(9)), true}};
  const std::vector<Interval> domains(2, Interval{0, 255});

  SliceCache cache;
  IncrementalSolver inc(arena, SolverOptions{}, cache);
  const SolveResult r =
      inc.Solve(ConstraintSpan(cs.data(), cs.size(), /*negate_last=*/true), domains, {0, 0});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model[0], 7);   // First constraint untouched by the view.
  EXPECT_NE(r.model[1], 9);   // Last constraint negated.
}

// The slice solver over a negate-last span must be bit-identical to the
// materialize-prefix-and-negate vector path: the search solves over
// prefix views, never over copies.
TEST(IncrementalSolverTest, SpanSolveMatchesCopiedVectorSolve) {
  ExprArena arena;
  std::vector<Constraint> trace;
  for (i32 v = 0; v < 6; ++v) {
    trace.push_back({arena.MkBin(ExprOp::kGt, arena.MkVar(v), arena.MkConst(40 + v)), true});
  }
  const std::vector<Interval> domains(6, Interval{0, 255});
  const std::vector<i64> seed(6, 10);
  Solver solver(arena, SolverOptions{});

  for (size_t len = 1; len <= trace.size(); ++len) {
    // Legacy shape: copy the prefix, negate the last constraint.
    std::vector<Constraint> copied(trace.begin(), trace.begin() + len);
    copied.back().want_true = !copied.back().want_true;
    const SolveResult from_copy = solver.Solve(copied, domains, seed);
    const SolveResult from_span =
        solver.Solve(ConstraintSpan(trace.data(), len, /*negate_last=*/true), domains, seed);
    ASSERT_EQ(from_copy.status, from_span.status) << "len=" << len;
    EXPECT_EQ(from_copy.model, from_span.model) << "len=" << len;
    EXPECT_EQ(from_copy.steps, from_span.steps) << "len=" << len;
  }
}

TEST(IncrementalSolverTest, FalseConstantConstraintIsUnsat) {
  ExprArena arena;
  std::vector<Constraint> cs{{arena.MkConst(0), true}};
  SliceCache cache;
  IncrementalSolver inc(arena, SolverOptions{}, cache);
  const SolveResult r = inc.Solve(ConstraintSpan(cs.data(), cs.size()), {}, {});
  EXPECT_EQ(r.status, SolveStatus::kUnsat);
}

TEST(IncrementalSolverTest, UnsatSliceRejectsWholeSet) {
  ExprArena arena;
  const ExprRef x = arena.MkVar(0);
  const ExprRef y = arena.MkVar(1);
  // Slice {x}: satisfiable. Slice {y}: y == 3 && y == 5, unsatisfiable.
  std::vector<Constraint> cs{{arena.MkBin(ExprOp::kEq, x, arena.MkConst(1)), true},
                             {arena.MkBin(ExprOp::kEq, y, arena.MkConst(3)), true},
                             {arena.MkBin(ExprOp::kEq, y, arena.MkConst(5)), true}};
  const std::vector<Interval> domains(2, Interval{0, 255});
  SliceCache cache;
  IncrementalSolver inc(arena, SolverOptions{}, cache);
  const SolveResult r = inc.Solve(ConstraintSpan(cs.data(), cs.size()), domains, {0, 0});
  EXPECT_EQ(r.status, SolveStatus::kUnsat);
  EXPECT_EQ(cache.unsat_entries(), 1u);
}

// ----- Reused per-call scratch -----

// A trace that exercises every partition shape: slices that a later
// constraint joins, disjoint single-variable constraints, true constant
// constraints throughout, a false constant at index 70, and variables
// past the end of the domain vector (which default to [0, 255]).
std::vector<Constraint> VariedTrace(ExprArena* arena, u64 salt) {
  Rng rng(0x51ce + salt);
  std::vector<Constraint> trace;
  for (size_t i = 0; i < 80; ++i) {
    if (i == 70) {
      trace.push_back({arena->MkConst(0), true});
      continue;
    }
    if (i % 17 == 5) {
      trace.push_back({arena->MkBin(ExprOp::kLt, arena->MkConst(2), arena->MkConst(3)), true});
      continue;
    }
    const i32 v = static_cast<i32>(rng.NextBelow(44));
    const ExprRef x = arena->MkVar(v);
    ExprRef e = kNoExpr;
    switch (rng.NextBelow(4)) {
      case 0:
        e = arena->MkBin(ExprOp::kNe, x, arena->MkVar(static_cast<i32>(rng.NextBelow(44))));
        break;
      case 1:
        e = arena->MkBin(ExprOp::kGt, x, arena->MkConst(rng.NextInRange(0, 200)));
        break;
      case 2:
        e = arena->MkBin(ExprOp::kLt, arena->MkBin(ExprOp::kAdd, x, arena->MkVar(v + 1)),
                         arena->MkConst(rng.NextInRange(10, 400)));
        break;
      default:
        e = arena->MkBin(ExprOp::kEq, arena->MkBin(ExprOp::kAnd, x, arena->MkConst(1)),
                         arena->MkConst(static_cast<i64>(rng.NextBelow(2))));
        break;
    }
    trace.push_back({e, rng.NextBelow(4) != 0});
  }
  return trace;
}

// A small step budget keeps the sequences fast; budget-truncated slices
// come back kUnknown, which the comparison covers too.
constexpr SolverOptions kQuickSolve{20'000, 512};

void ExpectSameSolve(const SolveResult& got, const SolveResult& want, const std::string& where) {
  ASSERT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.model, want.model) << where;
  EXPECT_EQ(got.steps, want.steps) << where;
}

void ExpectSameStats(const IncrementalStats& got, const IncrementalStats& want) {
  EXPECT_EQ(got.slices_total, want.slices_total);
  EXPECT_EQ(got.slices_solved, want.slices_solved);
  EXPECT_EQ(got.slice_sat_hits, want.slice_sat_hits);
  EXPECT_EQ(got.slice_unsat_hits, want.slice_unsat_hits);
}

// One solver reused across a varied sequence of calls (long after short
// and back, negate_last on and off, constant-UNSAT prefixes, and a second
// trace interned after the first calls, so the per-expression memo must
// grow) answers every call exactly like a solver built for that call,
// each over its own cache that has seen the same calls.
TEST(IncrementalSolverTest, ReusedSolverMatchesFreshSolverPerCall) {
  ExprArena arena;
  std::vector<std::vector<Constraint>> traces{VariedTrace(&arena, 0)};
  const std::vector<Interval> domains(40, Interval{0, 255});
  Rng rng(7);

  SliceCache reused_cache;
  SliceCache fresh_cache;
  IncrementalSolver reused(arena, kQuickSolve, reused_cache);
  IncrementalStats fresh_total;
  u64 sat = 0;
  const size_t kLens[] = {80, 3, 1, 64, 12, 71, 70, 2, 40, 5, 80, 33};
  for (size_t call = 0; call < 2 * std::size(kLens); ++call) {
    if (call == std::size(kLens)) {
      traces.push_back(VariedTrace(&arena, 1));
    }
    const std::vector<Constraint>& trace = traces[call % traces.size()];
    const size_t len = kLens[call % std::size(kLens)];
    std::vector<i64> seed(40);
    for (i64& v : seed) {
      v = rng.NextInRange(0, 255);
    }
    for (const bool negate : {false, true}) {
      const ConstraintSpan span(trace.data(), len, negate);
      IncrementalSolver fresh(arena, kQuickSolve, fresh_cache);
      const SolveResult want = fresh.Solve(span, domains, seed);
      ExpectSameSolve(reused.Solve(span, domains, seed), want,
                      "call " + std::to_string(call) + " negate " + std::to_string(negate));
      sat += want.status == SolveStatus::kSat ? 1 : 0;
      fresh_total.slices_total += fresh.stats().slices_total;
      fresh_total.slices_solved += fresh.stats().slices_solved;
      fresh_total.slice_sat_hits += fresh.stats().slice_sat_hits;
      fresh_total.slice_unsat_hits += fresh.stats().slice_unsat_hits;
    }
  }
  ExpectSameStats(reused.stats(), fresh_total);
  EXPECT_GT(sat, 0u);
  EXPECT_GT(fresh_total.slices_solved, 0u);
}

// The same holds with a slice cache: a reused solver and a fresh solver
// per call, each over its own cache, produce the same results, the same
// hit statistics and the same cache contents in the same journal order.
TEST(IncrementalSolverTest, ReusedSolverMatchesFreshSolverWithCache) {
  ExprArena arena;
  const std::vector<Constraint> trace = VariedTrace(&arena, 2);
  const std::vector<Interval> domains(40, Interval{0, 255});
  SliceCache reused_cache;
  SliceCache fresh_cache;
  reused_cache.EnableJournal();
  fresh_cache.EnableJournal();
  IncrementalSolver reused(arena, kQuickSolve, reused_cache);
  IncrementalStats fresh_total;
  Rng rng(11);
  for (int call = 0; call < 40; ++call) {
    const size_t len = 1 + rng.NextBelow(trace.size());
    std::vector<i64> seed(40);
    for (i64& v : seed) {
      v = rng.NextInRange(0, 255);
    }
    const ConstraintSpan span(trace.data(), len, rng.NextBelow(2) != 0);
    IncrementalSolver fresh(arena, kQuickSolve, fresh_cache);
    const SolveResult want = fresh.Solve(span, domains, seed);
    ExpectSameSolve(reused.Solve(span, domains, seed), want, "call " + std::to_string(call));
    fresh_total.slices_total += fresh.stats().slices_total;
    fresh_total.slices_solved += fresh.stats().slices_solved;
    fresh_total.slice_sat_hits += fresh.stats().slice_sat_hits;
    fresh_total.slice_unsat_hits += fresh.stats().slice_unsat_hits;
  }
  ExpectSameStats(reused.stats(), fresh_total);
  EXPECT_GT(fresh_total.slice_sat_hits, 0u);

  std::vector<SliceCache::SatEntry> reused_sat;
  std::vector<SliceCache::SatEntry> fresh_sat;
  std::vector<SliceCache::UnsatEntry> reused_unsat;
  std::vector<SliceCache::UnsatEntry> fresh_unsat;
  reused_cache.DrainJournal(&reused_sat, &reused_unsat);
  fresh_cache.DrainJournal(&fresh_sat, &fresh_unsat);
  ASSERT_EQ(reused_sat.size(), fresh_sat.size());
  for (size_t i = 0; i < fresh_sat.size(); ++i) {
    EXPECT_EQ(reused_sat[i].key, fresh_sat[i].key) << i;
    EXPECT_EQ(reused_sat[i].model, fresh_sat[i].model) << i;
  }
  ASSERT_EQ(reused_unsat.size(), fresh_unsat.size());
  for (size_t i = 0; i < fresh_unsat.size(); ++i) {
    EXPECT_EQ(reused_unsat[i].key, fresh_unsat[i].key) << i;
    EXPECT_EQ(reused_unsat[i].check, fresh_unsat[i].check) << i;
  }
}

// ----- Slice caches -----

// The same structural slice built in two different arenas (different
// interning histories) must share cache entries, and the hit must produce
// a model that still satisfies the consumer's live constraints.
TEST(IncrementalSolverTest, CacheHitsAcrossArenasStaySound) {
  SliceCache cache;
  auto build = [](ExprArena* arena, int noise) {
    for (int i = 0; i < noise; ++i) {
      arena->MkVar(100 + i);  // Shift raw refs between the arenas.
    }
    const ExprRef x = arena->MkVar(0);
    const ExprRef y = arena->MkVar(1);
    return std::vector<Constraint>{
        {arena->MkBin(ExprOp::kEq, x, arena->MkConst('q')), true},
        {arena->MkBin(ExprOp::kGt, y, arena->MkConst(200)), true}};
  };
  const std::vector<Interval> domains(2, Interval{0, 255});

  ExprArena a;
  const std::vector<Constraint> ca = build(&a, 0);
  IncrementalSolver inc_a(a, SolverOptions{}, cache);
  const SolveResult ra = inc_a.Solve(ConstraintSpan(ca.data(), ca.size()), domains, {0, 0});
  ASSERT_EQ(ra.status, SolveStatus::kSat);
  EXPECT_EQ(inc_a.stats().slice_sat_hits, 0u);
  EXPECT_EQ(inc_a.stats().slices_solved, 2u);

  ExprArena b;
  const std::vector<Constraint> cb = build(&b, 7);
  IncrementalSolver inc_b(b, SolverOptions{}, cache);
  const SolveResult rb = inc_b.Solve(ConstraintSpan(cb.data(), cb.size()), domains, {0, 0});
  ASSERT_EQ(rb.status, SolveStatus::kSat);
  EXPECT_EQ(inc_b.stats().slice_sat_hits, 2u);  // Both slices from the cache.
  EXPECT_EQ(inc_b.stats().slices_solved, 0u);
  Solver plain_b(b, SolverOptions{});
  EXPECT_TRUE(plain_b.Satisfies(cb, rb.model));
}

// An UNSAT verdict is keyed to the exact domains it was proved under: the
// same constraint over a wider domain is a different subproblem and must
// still come back SAT.
TEST(IncrementalSolverTest, UnsatCacheNeverMasksSatSet) {
  ExprArena arena;
  const ExprRef x = arena.MkVar(0);
  std::vector<Constraint> cs{{arena.MkBin(ExprOp::kGt, x, arena.MkConst(5)), true}};
  SliceCache cache;
  IncrementalSolver inc(arena, SolverOptions{}, cache);

  const SolveResult narrow =
      inc.Solve(ConstraintSpan(cs.data(), cs.size()), {Interval{0, 5}}, {0});
  ASSERT_EQ(narrow.status, SolveStatus::kUnsat);
  ASSERT_EQ(cache.unsat_entries(), 1u);

  const SolveResult wide =
      inc.Solve(ConstraintSpan(cs.data(), cs.size()), {Interval{0, 255}}, {0});
  ASSERT_EQ(wide.status, SolveStatus::kSat);
  EXPECT_GT(wide.model[0], 5);
  EXPECT_EQ(inc.stats().slice_unsat_hits, 0u);  // Wider domain = new key.
}

// Warm solves hit every slice, and the hits keep producing valid models.
TEST(IncrementalSolverTest, WarmCacheHitsStayValid) {
  ExprArena arena;
  const ExprRef x = arena.MkVar(0);
  const ExprRef y = arena.MkVar(1);
  std::vector<Constraint> cs{{arena.MkBin(ExprOp::kEq, x, arena.MkConst(9)), true},
                             {arena.MkBin(ExprOp::kLt, y, arena.MkConst(4)), true}};
  const std::vector<Interval> domains(2, Interval{0, 255});
  SliceCache cache;
  IncrementalSolver inc(arena, SolverOptions{}, cache);
  Solver plain(arena, SolverOptions{});

  for (int round = 0; round < 3; ++round) {
    const SolveResult r = inc.Solve(ConstraintSpan(cs.data(), cs.size()), domains, {0, 200});
    ASSERT_EQ(r.status, SolveStatus::kSat);
    EXPECT_TRUE(plain.Satisfies(cs, r.model));
  }
  EXPECT_EQ(inc.stats().slices_solved, 2u);      // First round only.
  EXPECT_EQ(inc.stats().slice_sat_hits, 4u);     // Two slices x two rounds.
}

// ----- Donation pool -----

// A shard's pump takes only pooled pendings: the workers' own stacks are
// out of its reach (another thread's arena), so it never takes more than
// the pool holds or the frontier can spare, and asks the workers to
// donate the shortfall, which their next pushes answer.
TEST(IncrementalSolverTest, DonationPoolTakeForPeerTakesPooledOnly) {
  DonationPool<int> pool(2);
  pool.AddResident(3);  // On the workers' own stacks.
  pool.Push(1);
  pool.Push(2);

  std::vector<int> out;
  // Spare: 5 - 1 = 4. The pool holds 2 (newest first); 2 more are asked for.
  EXPECT_EQ(pool.TakeForPeer(/*max_items=*/8, /*min_keep=*/1, &out), 2u);
  EXPECT_EQ(out, (std::vector<int>{2, 1}));
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_TRUE(pool.Wanted());
  // A worker donates one pending: one is still missing.
  pool.AddResident(-1);
  pool.Push(5);
  EXPECT_TRUE(pool.Wanted());
  pool.AddResident(-1);
  pool.Push(6);
  EXPECT_FALSE(pool.Wanted());
  // Spare: 3 - 2 = 1, although the pool holds 2.
  out.clear();
  EXPECT_EQ(pool.TakeForPeer(/*max_items=*/8, /*min_keep=*/2, &out), 1u);
  EXPECT_EQ(out, (std::vector<int>{6}));
  EXPECT_FALSE(pool.Wanted());
  EXPECT_EQ(pool.size(), 2u);
}

// The chain primitives must agree with FingerprintConstraints at every
// prefix, and a negate-last pending set must fingerprint exactly like a
// run that executed the opposite polarity.
TEST(IncrementalSolverTest, FingerprintChainMatchesPrefixFingerprints) {
  ExprArena arena;
  std::vector<Constraint> cs;
  for (int i = 0; i < 6; ++i) {
    const ExprRef cmp = arena.MkBin(ExprOp::kGt, arena.MkVar(i), arena.MkConst(10 * i));
    cs.push_back(Constraint{cmp, (i % 2) == 0});
  }
  const PortableTrace trace = ExportTrace(arena, cs);
  const std::vector<u64> node_hash = PortableNodeHashes(trace);

  u64 chain = kConstraintFingerprintSeed;
  for (size_t i = 0; i < trace.constraints.size(); ++i) {
    const Constraint& c = trace.constraints[i];
    // Prefix [0, i) as executed == the chain so far.
    EXPECT_EQ(chain, FingerprintConstraints(trace, i, /*negate_last=*/false)) << i;
    // A pending that negates constraint i fingerprints as the chain
    // extended with the flipped polarity...
    EXPECT_EQ(ExtendConstraintFingerprint(chain, node_hash[c.expr], !c.want_true),
              FingerprintConstraints(trace, i + 1, /*negate_last=*/true))
        << i;
    chain = ExtendConstraintFingerprint(chain, node_hash[c.expr], c.want_true);
    // ...which is exactly the fingerprint of a trace that *executed* the
    // opposite direction there (checked via the arena-side hash too).
    EXPECT_EQ(chain, FingerprintConstraints(trace, i + 1, /*negate_last=*/false)) << i;
    EXPECT_EQ(arena.StructuralHash(cs[i].expr), node_hash[trace.constraints[i].expr]) << i;
  }
}

// ----- Engine wiring -----

constexpr const char* kDeepGuardedCrash = R"(
int main(int argc, char **argv) {
  if (argc < 3) { return 1; }
  int hits = 0;
  if (argv[1][0] == 'a') { hits = hits + 1; }
  if (argv[1][1] == 'b') { hits = hits + 1; }
  if (argv[1][2] == 'c') { hits = hits + 1; }
  if (argv[2][0] > 'm') { hits = hits + 1; }
  if (hits == 4) { crash(7); }
  return 0;
}
)";

std::unique_ptr<Pipeline> MustBuild(std::string_view app) {
  auto r = Pipeline::FromSources(app, {});
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().ToString());
  return r.take();
}

InputSpec DeepGuardedCrashInput() {
  InputSpec spec;
  spec.argv = {"prog", "abc", "z"};
  spec.world.listen_fd = -1;
  return spec;
}

// Cache soundness end to end at 1 and 4 workers: the engine reproduces
// and the witness verifies; the layer actually engaged (slices were
// solved / hit).
TEST(IncrementalSolverTest, EngineCacheSoundAtOneAndFourWorkers) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  for (const u32 workers : {1u, 4u}) {
    ReplayConfig config;
    config.num_workers = workers;
    const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
    ASSERT_TRUE(replay.reproduced) << workers << " workers";
    EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
    EXPECT_GT(replay.stats.slices_solved + replay.stats.slice_sat_hits +
                  replay.stats.slice_unsat_hits,
              0u)
        << workers << " workers";
  }
}

// ----- SliceCache LRU bound + gossip journal -----

// Keys that land in one internal cache shard (the shard index is the top
// five bits), so per-shard eviction order is observable.
constexpr u64 ShardKey(u64 i) { return (0x1ull << 59) | i; }

TEST(IncrementalSolverTest, SliceCacheCapacityBoundsEntries) {
  SliceCache cache(/*capacity=*/32);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    if ((i & 1) != 0) {
      cache.StoreSat(rng.Next(), {{0, i}});
    } else {
      cache.StoreUnsat(rng.Next(), rng.Next());
    }
  }
  EXPECT_LE(cache.sat_entries() + cache.unsat_entries(), 32u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(IncrementalSolverTest, SliceCacheEvictsLeastRecentlyUsed) {
  // Capacity 32 over 16 internal shards = 2 entries per shard.
  SliceCache cache(/*capacity=*/32);
  cache.StoreSat(ShardKey(1), {{0, 10}});
  cache.StoreSat(ShardKey(2), {{0, 20}});
  // Touch key 1 so key 2 is now the least recently used.
  SliceCache::SliceModel model;
  ASSERT_TRUE(cache.LookupSat(ShardKey(1), &model));
  cache.StoreSat(ShardKey(3), {{0, 30}});  // Evicts key 2, not key 1.
  EXPECT_TRUE(cache.LookupSat(ShardKey(1), &model));
  EXPECT_EQ(model, (SliceCache::SliceModel{{0, 10}}));
  EXPECT_FALSE(cache.LookupSat(ShardKey(2), &model));
  EXPECT_TRUE(cache.LookupSat(ShardKey(3), &model));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(IncrementalSolverTest, SliceCacheUnboundedNeverEvicts) {
  SliceCache cache;  // Default: unbounded, the historical behavior.
  for (u64 i = 0; i < 1000; ++i) {
    cache.StoreSat(i * 0x9e3779b97f4a7c15ull, {{0, 1}});
  }
  EXPECT_EQ(cache.sat_entries(), 1000u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(IncrementalSolverTest, SliceCacheJournalDrainsOnlyLocalStores) {
  SliceCache cache;
  cache.EnableJournal();
  cache.StoreSat(ShardKey(1), {{0, 5}});
  cache.StoreUnsat(ShardKey(2), 99);
  // Gossip-merged entries must not re-enter the journal (no echo).
  cache.MergeSat(ShardKey(3), {{1, 6}});
  cache.MergeUnsat(ShardKey(4), 100);
  // A duplicate store journals nothing (first store won).
  cache.StoreSat(ShardKey(1), {{0, 7}});

  std::vector<SliceCache::SatEntry> sat;
  std::vector<SliceCache::UnsatEntry> unsat;
  cache.DrainJournal(&sat, &unsat);
  ASSERT_EQ(sat.size(), 1u);
  EXPECT_EQ(sat[0].key, ShardKey(1));
  EXPECT_EQ(sat[0].model, (SliceCache::SliceModel{{0, 5}}));
  ASSERT_EQ(unsat.size(), 1u);
  EXPECT_EQ(unsat[0].key, ShardKey(2));
  EXPECT_EQ(unsat[0].check, 99u);

  // Drained: the next drain is empty; merged entries are still served.
  sat.clear();
  unsat.clear();
  cache.DrainJournal(&sat, &unsat);
  EXPECT_TRUE(sat.empty());
  EXPECT_TRUE(unsat.empty());
  SliceCache::SliceModel model;
  EXPECT_TRUE(cache.LookupSat(ShardKey(3), &model));
  EXPECT_TRUE(cache.LookupUnsat(ShardKey(4), 100));
}

// The engine-level knob: a tiny capacity must force evictions during a
// real search and surface them in the aggregate stats, without breaking
// reproduction (evicted verdicts are simply re-proved). The scenario has
// 32 independent byte guards — 32 distinct slice keys — so a capacity of
// 16 (one entry per internal cache shard) evicts by pigeonhole no matter
// how the keys spread.
TEST(IncrementalSolverTest, EngineHonorsSliceCacheCapacity) {
  std::string src = "int main(int argc, char **argv) {\n"
                    "  if (argc < 2) { return 1; }\n"
                    "  int hits = 0;\n";
  std::string input;
  for (int i = 0; i < 32; ++i) {
    src += "  if (argv[1][" + std::to_string(i) + "] == 'a') { hits = hits + 1; }\n";
    input += 'a';
  }
  src += "  if (hits == 32) { crash(9); }\n  return 0;\n}\n";
  auto pipeline = MustBuild(src);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  InputSpec spec;
  spec.argv = {"prog", input};
  spec.world.listen_fd = -1;
  const auto user = pipeline->RecordUserRun(spec, plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  for (const u32 workers : {1u, 4u}) {
    ReplayConfig config;
    config.num_workers = workers;
    config.slice_cache_capacity = 16;
    const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
    ASSERT_TRUE(replay.reproduced) << workers << " workers";
    EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
    EXPECT_GT(replay.stats.slice_evictions, 0u) << workers << " workers";
  }
  // Unbounded default reports zero evictions on the same scenario.
  ReplayConfig unbounded;
  unbounded.num_workers = 4;
  const ReplayResult base = pipeline->Reproduce(user.report, plan, unbounded).take();
  ASSERT_TRUE(base.reproduced);
  EXPECT_EQ(base.stats.slice_evictions, 0u);
}

// ----- Snapshot persistence (replay-as-a-service warm restarts) -----

std::string SnapshotPath(const char* name) { return testing::TempDir() + name; }

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SliceCacheSnapshotTest, RoundTripRestoresEveryVerdict) {
  SliceCache cache;
  cache.StoreSat(0x11, SliceCache::SliceModel{{0, 42}, {3, -7}});
  cache.StoreSat(0x22, SliceCache::SliceModel{});
  cache.StoreUnsat(0x33, 0x44);
  cache.StoreUnsat(0x55, 0x66);

  const std::string path = SnapshotPath("slice_cache_roundtrip.bin");
  SliceCache::SnapshotInfo saved;
  ASSERT_TRUE(cache.SaveSnapshot(path, &saved));
  EXPECT_EQ(saved.sat_entries, 2u);
  EXPECT_EQ(saved.unsat_entries, 2u);
  EXPECT_GT(saved.bytes, 0u);

  SliceCache fresh;
  SliceCache::SnapshotInfo loaded;
  ASSERT_TRUE(fresh.LoadSnapshot(path, &loaded));
  EXPECT_EQ(loaded.sat_entries, 2u);
  EXPECT_EQ(loaded.unsat_entries, 2u);
  SliceCache::SliceModel model;
  ASSERT_TRUE(fresh.LookupSat(0x11, &model));
  EXPECT_EQ(model, (SliceCache::SliceModel{{0, 42}, {3, -7}}));
  ASSERT_TRUE(fresh.LookupSat(0x22, &model));
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(fresh.LookupUnsat(0x33, 0x44));
  EXPECT_FALSE(fresh.LookupUnsat(0x33, 0x45));  // Check key still enforced.
  EXPECT_TRUE(fresh.LookupUnsat(0x55, 0x66));
  std::remove(path.c_str());
}

TEST(SliceCacheSnapshotTest, LoadedEntriesAreNeverReJournaled) {
  // A restarted shard must not gossip the whole restored cache as if it
  // had just proved every entry.
  SliceCache cache;
  cache.StoreSat(0x77, SliceCache::SliceModel{{1, 2}});
  const std::string path = SnapshotPath("slice_cache_journal.bin");
  ASSERT_TRUE(cache.SaveSnapshot(path));

  SliceCache fresh;
  fresh.EnableJournal();
  ASSERT_TRUE(fresh.LoadSnapshot(path));
  std::vector<SliceCache::SatEntry> sat;
  std::vector<SliceCache::UnsatEntry> unsat;
  fresh.DrainJournal(&sat, &unsat);
  EXPECT_TRUE(sat.empty());
  EXPECT_TRUE(unsat.empty());
  std::remove(path.c_str());
}

TEST(SliceCacheSnapshotTest, TruncationAndCorruptionAreRejectedUntouched) {
  SliceCache cache;
  cache.StoreSat(0xaa, SliceCache::SliceModel{{0, 1}, {1, 2}, {2, 3}});
  cache.StoreUnsat(0xbb, 0xcc);
  const std::string path = SnapshotPath("slice_cache_hostile.bin");
  ASSERT_TRUE(cache.SaveSnapshot(path));
  const std::vector<char> good = ReadAll(path);
  ASSERT_GT(good.size(), 8u);

  const std::string bad = SnapshotPath("slice_cache_hostile_bad.bin");
  // Every strict prefix is a refused load, and the target cache stays
  // exactly as it was.
  for (const size_t cut : {good.size() - 1, good.size() / 2, size_t{5}, size_t{0}}) {
    WriteAll(bad, std::vector<char>(good.begin(), good.begin() + cut));
    SliceCache victim;
    victim.StoreSat(0x1, SliceCache::SliceModel{{0, 9}});
    EXPECT_FALSE(victim.LoadSnapshot(bad)) << "cut " << cut;
    EXPECT_EQ(victim.sat_entries(), 1u) << "cut " << cut;
    EXPECT_EQ(victim.unsat_entries(), 0u) << "cut " << cut;
  }
  // One flipped payload byte fails the digest.
  {
    std::vector<char> flipped = good;
    // at(): a checked access, so an optimizing build does not have to
    // prove `good` non-empty (gcc 12 -Warray-bounds cannot).
    char& last = flipped.at(flipped.size() - 1);
    last = static_cast<char>(last ^ 0x01);
    WriteAll(bad, flipped);
    SliceCache victim;
    EXPECT_FALSE(victim.LoadSnapshot(bad));
    EXPECT_EQ(victim.sat_entries() + victim.unsat_entries(), 0u);
  }
  // Trailing garbage after a valid payload is refused, not ignored.
  {
    std::vector<char> padded = good;
    padded.push_back('x');
    WriteAll(bad, padded);
    SliceCache victim;
    EXPECT_FALSE(victim.LoadSnapshot(bad));
  }
  // Wrong magic (a random file is not a snapshot).
  {
    std::vector<char> wrong = good;
    wrong[0] = static_cast<char>(wrong[0] ^ 0xff);
    WriteAll(bad, wrong);
    SliceCache victim;
    EXPECT_FALSE(victim.LoadSnapshot(bad));
  }
  // Missing file.
  {
    SliceCache victim;
    EXPECT_FALSE(victim.LoadSnapshot(SnapshotPath("no_such_snapshot.bin")));
  }
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(SliceCacheSnapshotTest, LoadMergesFirstStoreWins) {
  SliceCache donor;
  donor.StoreSat(0xd1, SliceCache::SliceModel{{0, 100}});
  donor.StoreSat(0xd2, SliceCache::SliceModel{{0, 200}});
  const std::string path = SnapshotPath("slice_cache_merge.bin");
  ASSERT_TRUE(donor.SaveSnapshot(path));

  // The receiving cache already proved 0xd1 with a different (equally
  // valid) model; the resident proof wins, the novel entry merges in.
  SliceCache receiver;
  receiver.StoreSat(0xd1, SliceCache::SliceModel{{0, 7}});
  ASSERT_TRUE(receiver.LoadSnapshot(path));
  SliceCache::SliceModel model;
  ASSERT_TRUE(receiver.LookupSat(0xd1, &model));
  EXPECT_EQ(model, (SliceCache::SliceModel{{0, 7}}));
  ASSERT_TRUE(receiver.LookupSat(0xd2, &model));
  EXPECT_EQ(model, (SliceCache::SliceModel{{0, 200}}));
  EXPECT_EQ(receiver.sat_entries(), 2u);
  std::remove(path.c_str());
}

TEST(SliceCacheSnapshotTest, LoadRespectsLruBound) {
  SliceCache donor;
  for (u64 k = 1; k <= 64; ++k) {
    donor.StoreSat(k, SliceCache::SliceModel{{0, static_cast<i64>(k)}});
  }
  const std::string path = SnapshotPath("slice_cache_bound.bin");
  ASSERT_TRUE(donor.SaveSnapshot(path));

  SliceCache bounded(16);
  ASSERT_TRUE(bounded.LoadSnapshot(path));
  EXPECT_LE(bounded.sat_entries(), 16u);
  EXPECT_GT(bounded.evictions(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace retrace
