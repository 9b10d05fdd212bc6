// Delta solving (src/solver/incremental.h) changes how a pending's model
// is computed, never which model it is.
//
// (a) Whole searches: the sequence of models every search below runs is
//     pinned by a hash, together with its solver counters. The golden
//     values were computed by the engine before delta solving existed
//     (every pending solved from an empty slice state): build this file
//     against that engine and read the values the failing expectations
//     print.
// (b) IncrementalSolver: a solve that extends a parent's SliceState must
//     equal the depth-0 solve of the same set over the same SliceCache —
//     status, model, steps, counters and the cache contents afterwards —
//     in the cases where inheriting would be wrong if done carelessly.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/solver/incremental.h"
#include "src/support/rng.h"
#include "src/workloads/scenarios.h"
#include "src/workloads/workloads.h"

namespace retrace {
namespace {

struct LcSetup {
  std::unique_ptr<Pipeline> pipeline;
  InstrumentationPlan plan;
};

// uServer and its dynamic low-coverage plan, as in the sentinel test.
const LcSetup& Lc() {
  static const LcSetup* setup = [] {
    auto* s = new LcSetup;
    const WorkloadSources sources = GetWorkload("userver");
    s->pipeline = Pipeline::FromSources(sources.app, sources.libs).take();
    AnalysisConfig analysis;
    analysis.max_runs = 4;
    analysis.seed = 17;
    const AnalysisResult lc =
        s->pipeline->RunDynamicAnalysis(UserverExploreSpecLC(), analysis);
    s->plan = s->pipeline->MakePlan(PlanInputs::Dynamic(lc));
    return s;
  }();
  return *setup;
}

BugReport RecordExperiment(int experiment) {
  const Scenario scenario = UserverScenario(experiment);
  Pipeline::UserRunOptions options;
  options.policy = scenario.policy.get();
  auto user = Lc().pipeline->RecordUserRun(scenario.spec, Lc().plan, options).take();
  EXPECT_TRUE(user.result.Crashed()) << scenario.name;
  return user.report;
}

// Order-sensitive hash of every model a search ran.
struct ModelSequence {
  u64 hash = 0x243f6a8885a308d3ull;
  u64 models = 0;

  void Add(const std::vector<i64>& model) {
    hash = HashMix(hash, model.size());
    for (const i64 v : model) {
      hash = HashMix(hash, static_cast<u64>(v));
    }
    ++models;
  }
};

// What a search must reproduce exactly.
struct Golden {
  u64 hash;
  u64 runs;
  u64 solver_calls;
  u64 slices_solved;
  u64 slice_sat_hits;
  u64 slice_unsat_hits;
};

void ExpectGolden(const ModelSequence& seq, const ReplayStats& stats, const Golden& want) {
  EXPECT_EQ(seq.hash, want.hash);
  EXPECT_EQ(seq.models, want.runs);
  EXPECT_EQ(stats.runs, want.runs);
  EXPECT_EQ(stats.solver_calls, want.solver_calls);
  EXPECT_EQ(stats.slices_solved, want.slices_solved);
  EXPECT_EQ(stats.slice_sat_hits, want.slice_sat_hits);
  EXPECT_EQ(stats.slice_unsat_hits, want.slice_unsat_hits);
  // Most solves extend their parent's state, and inherit most slices.
  EXPECT_GT(stats.solves_from_base, stats.solver_calls / 2);
  EXPECT_GT(stats.slices_inherited, stats.slice_sat_hits / 2);
  EXPECT_LE(stats.slices_inherited, stats.slice_sat_hits);
}

ReplayResult TappedSearch(const BugReport& report, ReplayConfig config, ModelSequence* seq) {
  config.model_tap = [seq](u32 /*worker*/, const std::vector<i64>& model,
                           size_t /*start_depth*/) { seq->Add(model); };
  return Lc().pipeline->Reproduce(report, Lc().plan, config).take();
}

TEST(ReplayDeltaSolveTest, SentinelSearchesRunTheSameModels) {
  const struct {
    int experiment;
    Golden golden;
  } kSearches[] = {
      {1, {16390352537489248579ull, 863, 2827, 340, 47142, 1818}},
      {3, {13956920001685755455ull, 7027, 21722, 1302, 757901, 14251}},
      {4, {16362298916028322164ull, 2810, 8872, 1033, 1015396, 5701}},
  };
  for (const auto& search : kSearches) {
    SCOPED_TRACE(testing::Message() << "exp " << search.experiment);
    const BugReport report = RecordExperiment(search.experiment);
    ReplayConfig config;
    config.max_runs = 20'000;
    config.seed = 31;
    config.num_workers = 1;
    ModelSequence seq;
    const ReplayResult result = TappedSearch(report, config, &seq);
    ASSERT_TRUE(result.reproduced);
    ExpectGolden(seq, result.stats, search.golden);
  }
}

TEST(ReplayDeltaSolveTest, SearchWithoutSyscallLogRunsTheSameModels) {
  const BugReport report = RecordExperiment(1);
  ReplayConfig config;
  config.max_runs = 1500;
  config.seed = 31;
  config.num_workers = 1;
  config.use_syscall_log = false;
  ModelSequence seq;
  const ReplayResult result = TappedSearch(report, config, &seq);
  ExpectGolden(seq, result.stats, {8696393619634643223ull, 1500, 3725, 1275, 83959, 1629});
}

TEST(ReplayDeltaSolveTest, AdaptiveExperimentFiveRunsTheSameModels) {
  const Scenario scenario = UserverScenario(5);
  const BugReport report = RecordExperiment(5);
  Pipeline::AdaptiveConfig adaptive;
  adaptive.user_spec = scenario.spec;
  adaptive.user_run.policy = scenario.policy.get();
  adaptive.replay.max_runs = 3000;
  adaptive.replay.seed = 31;
  adaptive.replay.num_workers = 1;
  adaptive.max_rounds = 3;
  adaptive.refine.max_added_branches = 8;
  ModelSequence seq;
  adaptive.replay.model_tap = [&seq](u32 /*worker*/, const std::vector<i64>& model,
                                     size_t /*start_depth*/) {
    seq.Add(model);
  };
  const Pipeline::AdaptiveResult r =
      Lc().pipeline->ReproduceAdaptive(report, Lc().plan, adaptive).take();
  ASSERT_TRUE(r.reproduced);
  ASSERT_EQ(r.rounds.size(), 2u);
  EXPECT_EQ(r.rounds[0].runs, 3000u);
  EXPECT_EQ(r.rounds[1].runs, 456u);
  EXPECT_EQ(r.final_plan.NumInstrumented(), 14u);
  EXPECT_EQ(seq.models, 3456u);
  EXPECT_EQ(seq.hash, 11826701173692166983ull);
}

// ----- (b) IncrementalSolver: solve from base == solve at depth 0 -----

// Two solvers over two caches that see the same calls; only the "delta"
// side hands each child its parent's state.
struct Twin {
  explicit Twin(const ExprArena& arena, const std::function<void(SliceCache*)>& prime)
      : delta_solver(arena, SolverOptions{}, delta_cache),
        depth0_solver(arena, SolverOptions{}, depth0_cache) {
    delta_cache.EnableJournal();
    depth0_cache.EnableJournal();
    if (prime) {
      prime(&delta_cache);
      prime(&depth0_cache);
    }
  }

  SliceCache delta_cache;
  SliceCache depth0_cache;
  IncrementalSolver delta_solver;
  IncrementalSolver depth0_solver;
};

struct Problem {
  std::vector<Constraint> set;
  bool negate_last = false;
  std::vector<Interval> domains;
  std::vector<i64> seed;
};

void ExpectSameCaches(SliceCache* got, SliceCache* want, const std::string& where) {
  EXPECT_EQ(got->sat_entries(), want->sat_entries()) << where;
  EXPECT_EQ(got->unsat_entries(), want->unsat_entries()) << where;
  std::vector<SliceCache::SatEntry> got_sat;
  std::vector<SliceCache::SatEntry> want_sat;
  std::vector<SliceCache::UnsatEntry> got_unsat;
  std::vector<SliceCache::UnsatEntry> want_unsat;
  got->DrainJournal(&got_sat, &got_unsat);
  want->DrainJournal(&want_sat, &want_unsat);
  ASSERT_EQ(got_sat.size(), want_sat.size()) << where;
  for (size_t i = 0; i < want_sat.size(); ++i) {
    EXPECT_EQ(got_sat[i].key, want_sat[i].key) << where << " sat " << i;
    EXPECT_EQ(got_sat[i].model, want_sat[i].model) << where << " sat " << i;
  }
  ASSERT_EQ(got_unsat.size(), want_unsat.size()) << where;
  for (size_t i = 0; i < want_unsat.size(); ++i) {
    EXPECT_EQ(got_unsat[i].key, want_unsat[i].key) << where << " unsat " << i;
    EXPECT_EQ(got_unsat[i].check, want_unsat[i].check) << where << " unsat " << i;
  }
}

IncrementalStats Minus(const IncrementalStats& after, const IncrementalStats& before) {
  IncrementalStats d;
  d.slices_total = after.slices_total - before.slices_total;
  d.slices_solved = after.slices_solved - before.slices_solved;
  d.slice_sat_hits = after.slice_sat_hits - before.slice_sat_hits;
  d.slice_unsat_hits = after.slice_unsat_hits - before.slice_unsat_hits;
  d.slices_inherited = after.slices_inherited - before.slices_inherited;
  d.solves_from_base = after.solves_from_base - before.solves_from_base;
  return d;
}

// The delta side's counters: of the chain's last call, and in total.
struct ChainStats {
  IncrementalStats last;
  IncrementalStats total;
};

// Solves `set` twice: on the delta side from `base` (null: depth 0) into
// `out`, and on the depth-0 side. Both must agree on the result and the
// counters and leave the same cache contents. Returns the delta side's
// result, and its counters for the call in `stats`.
SolveResult ExpectSameSolve(Twin* twin, ConstraintSpan set, const std::vector<Interval>& domains,
                            const std::vector<i64>& seed, const SliceState* base,
                            SliceState* out, const std::string& where, IncrementalStats* stats) {
  const IncrementalStats delta_before = twin->delta_solver.stats();
  const IncrementalStats depth0_before = twin->depth0_solver.stats();
  SolveResult got = twin->delta_solver.Solve(set, domains, seed, base, out);
  const SolveResult want = twin->depth0_solver.Solve(set, domains, seed);
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.model, want.model) << where;
  EXPECT_EQ(got.steps, want.steps) << where;
  *stats = Minus(twin->delta_solver.stats(), delta_before);
  const IncrementalStats want_delta = Minus(twin->depth0_solver.stats(), depth0_before);
  EXPECT_EQ(stats->slices_total, want_delta.slices_total) << where;
  EXPECT_EQ(stats->slices_solved, want_delta.slices_solved) << where;
  EXPECT_EQ(stats->slice_sat_hits, want_delta.slice_sat_hits) << where;
  EXPECT_EQ(stats->slice_unsat_hits, want_delta.slice_unsat_hits) << where;
  EXPECT_EQ(want_delta.slices_inherited, 0u) << where;
  ExpectSameCaches(&twin->delta_cache, &twin->depth0_cache, where);
  return got;
}

// Solves `chain[0]` at depth 0, then every later problem twice: from the
// state of the last SAT problem before it, and at depth 0. Both sides
// must agree on every call and leave the same cache contents. A state
// is rebased onto the next problem before that problem's solve.
ChainStats ExpectChainMatchesDepth0(const ExprArena& arena, const std::vector<Problem>& chain,
                                    const std::function<void(SliceCache*)>& prime = {}) {
  Twin twin(arena, prime);
  // Each problem's set and domains in shared storage, as the engine keeps
  // a run's trace and domains.
  std::vector<std::shared_ptr<const std::vector<Constraint>>> sets;
  std::vector<std::shared_ptr<const std::vector<Interval>>> domains;
  for (const Problem& p : chain) {
    sets.push_back(std::make_shared<const std::vector<Constraint>>(p.set));
    domains.push_back(std::make_shared<const std::vector<Interval>>(p.domains));
  }
  SliceState state;
  IncrementalStats last;
  for (size_t i = 0; i < chain.size(); ++i) {
    const std::string where = "call " + std::to_string(i);
    const ConstraintSpan span(sets[i]->data(), sets[i]->size(), chain[i].negate_last);
    SliceState next;
    const SolveResult got = ExpectSameSolve(&twin, span, *domains[i], chain[i].seed,
                                            i == 0 ? nullptr : &state, &next, where, &last);
    if (got.status == SolveStatus::kSat) {
      state = std::move(next);
      // As the engine does, borrow the set from the next problem's own
      // storage where it starts with it, and its domains where equal.
      if (i + 1 < chain.size()) {
        state.Rebase(sets[i + 1], domains[i + 1]);
      }
    }
  }
  return {last, twin.delta_solver.stats()};
}

// Helpers over one arena: byte variables and small comparisons.
struct Builder {
  ExprArena arena;

  Constraint Gt(i32 var, i64 k, bool want = true) {
    return {arena.MkBin(ExprOp::kGt, arena.MkVar(var), arena.MkConst(k)), want};
  }
  Constraint Eq(i32 var, i64 k, bool want = true) {
    return {arena.MkBin(ExprOp::kEq, arena.MkVar(var), arena.MkConst(k)), want};
  }
  Constraint SumLt(i32 a, i32 b, i64 k) {
    return {arena.MkBin(ExprOp::kLt, arena.MkBin(ExprOp::kAdd, arena.MkVar(a), arena.MkVar(b)),
                        arena.MkConst(k)),
            true};
  }
};

const std::vector<Interval> kBytes(8, Interval{0, 255});

// The sub-model of slice {v2 > 5} was found under v2 in [0, 255]; the
// child narrows v2 to [0, 100], so the slice's key changed and it must
// be re-resolved: inheriting would keep v2 = 200, outside its domain.
TEST(DeltaSolveTest, DomainChangeOnInheritedSliceReResolvesIt) {
  Builder b;
  Problem parent{{b.Gt(0, 10), b.Gt(2, 5), b.Eq(4, 9)}, false, kBytes, {0, 0, 200, 0, 0}};
  Problem child = parent;
  child.set.push_back(b.Gt(6, 3));
  child.domains[2] = Interval{0, 100};
  child.seed = {11, 0, 200, 0, 9, 0, 0};
  const IncrementalStats d = ExpectChainMatchesDepth0(b.arena, {parent, child}).last;
  EXPECT_EQ(d.solves_from_base, 1u);
  EXPECT_EQ(d.slices_inherited, 2u);  // {v0} and {v4}; {v2} is re-solved.
  EXPECT_EQ(d.slices_solved, 2u);     // {v2} under its new domain, and {v6}.
}

// A cache entry whose model fails revalidation is re-solved from each
// call's seed; inheriting it would replay the parent's seed instead.
TEST(DeltaSolveTest, PlantedBadSatEntryIsNeverInherited) {
  Builder b;
  const Constraint slice = b.Gt(1, 100);
  // The slice's key, as a solve of it alone stores it.
  SliceCache scratch;
  scratch.EnableJournal();
  IncrementalSolver keyer(b.arena, SolverOptions{}, scratch);
  ASSERT_EQ(keyer.Solve(ConstraintSpan(&slice, 1), kBytes, {0, 150}).status, SolveStatus::kSat);
  std::vector<SliceCache::SatEntry> sat;
  std::vector<SliceCache::UnsatEntry> unsat;
  scratch.DrainJournal(&sat, &unsat);
  ASSERT_EQ(sat.size(), 1u);
  const u64 key = sat[0].key;

  Problem parent{{b.Eq(0, 4), slice}, false, kBytes, {4, 150}};
  Problem child = parent;
  child.set.push_back(b.Gt(3, 1));
  child.seed = {4, 220, 0, 7};
  std::vector<Problem> chain{parent, child};
  Problem grandchild = child;
  grandchild.set.push_back(b.Gt(5, 1));
  grandchild.seed = {4, 240, 0, 7, 0, 2};
  chain.push_back(grandchild);
  const IncrementalStats d = ExpectChainMatchesDepth0(
      b.arena, chain, [key](SliceCache* cache) { cache->MergeSat(key, {{1, 3}}); }).last;
  EXPECT_EQ(d.solves_from_base, 1u);
  EXPECT_EQ(d.slices_inherited, 2u);  // {v0} and {v3}, never {v1}.
}

// A cached model that leaves a slice variable out validates against the
// seed's value for it, so the hit is the seed's and is not inherited: a
// child whose seed fails the slice must fall back to solving it.
TEST(DeltaSolveTest, CachedModelNotCoveringItsSliceIsNeverInherited) {
  Builder b;
  const Constraint slice = b.Gt(1, 100);
  SliceCache scratch;
  scratch.EnableJournal();
  IncrementalSolver keyer(b.arena, SolverOptions{}, scratch);
  ASSERT_EQ(keyer.Solve(ConstraintSpan(&slice, 1), kBytes, {0, 150}).status, SolveStatus::kSat);
  std::vector<SliceCache::SatEntry> sat;
  std::vector<SliceCache::UnsatEntry> unsat;
  scratch.DrainJournal(&sat, &unsat);
  ASSERT_EQ(sat.size(), 1u);
  const u64 key = sat[0].key;

  Problem parent{{b.Eq(0, 4), slice}, false, kBytes, {4, 150}};
  Problem child = parent;
  child.set.push_back(b.Gt(3, 1));
  child.seed = {4, 50, 0, 7};
  const IncrementalStats d =
      ExpectChainMatchesDepth0(b.arena, {parent, child},
                               [key](SliceCache* cache) { cache->MergeSat(key, {}); })
          .last;
  EXPECT_EQ(d.solves_from_base, 1u);
  EXPECT_EQ(d.slices_inherited, 1u);  // {v0} only.
  EXPECT_EQ(d.slices_solved, 2u);     // {v1} (its hit fails for this seed) and {v3}.
}

// The delta makes the first slice UNSAT ahead of a new slice that would
// miss and store: the call ends at the UNSAT slice, as at depth 0, so
// the later slice is neither counted nor stored.
TEST(DeltaSolveTest, UnsatSliceAheadOfAMissEndsTheCallBeforeTheStore) {
  Builder b;
  Problem parent{{b.Eq(0, 5), b.Gt(1, 3)}, false, kBytes, {5, 4}};
  Problem child = parent;
  child.set.push_back(b.Gt(2, 9));
  child.set.push_back(b.Eq(0, 5));
  child.negate_last = true;  // v0 == 5 && v0 != 5.
  child.seed = {5, 4, 10};
  const IncrementalStats d = ExpectChainMatchesDepth0(b.arena, {parent, child}).last;
  EXPECT_EQ(d.solves_from_base, 1u);
  EXPECT_EQ(d.slices_total, 1u);
  EXPECT_EQ(d.slices_inherited, 0u);
  EXPECT_EQ(d.slices_solved, 1u);
}

TEST(DeltaSolveTest, ConstantFalseDeltaConstraintIsUnsat) {
  Builder b;
  Problem parent{{b.Eq(0, 5), b.Gt(1, 3)}, false, kBytes, {5, 4}};
  Problem child = parent;
  child.set.push_back({b.arena.MkBin(ExprOp::kLt, b.arena.MkConst(2), b.arena.MkConst(3)), true});
  child.set.push_back(b.Gt(2, 9));
  child.set.push_back({b.arena.MkConst(0), true});
  const IncrementalStats d = ExpectChainMatchesDepth0(b.arena, {parent, child}).last;
  EXPECT_EQ(d.slices_total, 0u);  // Rejected before any slice.
}

// A base whose constraints are not a prefix of the set is ignored.
TEST(DeltaSolveTest, BaseWithDifferentPrefixSolvesFromDepthZero) {
  Builder b;
  Problem parent{{b.Eq(0, 5), b.Gt(1, 3), b.Gt(2, 3)}, false, kBytes, {5, 4, 4}};
  for (const int differs : {0, 1, 2, 3, 4}) {
    SCOPED_TRACE(differs);
    Problem child = parent;
    child.set.push_back(b.Gt(3, 2));
    switch (differs) {
      case 3:  // The same set, its last constraint negated.
        child.set.pop_back();
        child.negate_last = true;
        break;
      case 0:  // Another expression at index 1.
        child.set[1] = b.Gt(1, 4);
        break;
      case 1:  // The same expression, the other polarity.
        child.set[1].want_true = false;
        break;
      case 2:  // The base's last constraint, the other polarity.
        child.set[2].want_true = false;
        break;
      default:  // Shorter than the base.
        child.set.resize(2);
        break;
    }
    const IncrementalStats d = ExpectChainMatchesDepth0(b.arena, {parent, child}).last;
    EXPECT_EQ(d.solves_from_base, 0u);
    EXPECT_EQ(d.slices_inherited, 0u);
  }
}

// Replay-shaped chains: each set is its parent's plus a few constraints,
// over slices the delta joins, merges or leaves alone, with fresh seeds,
// the occasional narrowed domain and the last constraint negated.
TEST(DeltaSolveTest, RandomChainsMatchDepthZero) {
  Builder b;
  Rng rng(0xde17a);
  u64 inherited = 0;
  for (int chain_id = 0; chain_id < 20; ++chain_id) {
    std::vector<Problem> chain;
    Problem p{{}, false, std::vector<Interval>(24, Interval{0, 255}), std::vector<i64>(24, 0)};
    std::vector<Constraint> trace;
    for (int step = 0; step < 12; ++step) {
      const size_t grow = 1 + rng.NextBelow(4);
      for (size_t k = 0; k < grow; ++k) {
        const i32 v = static_cast<i32>(rng.NextBelow(22));
        switch (rng.NextBelow(3)) {
          case 0: trace.push_back(b.Gt(v, rng.NextInRange(0, 200), rng.NextBelow(4) != 0)); break;
          case 1: trace.push_back(b.SumLt(v, v + 1, rng.NextInRange(20, 400))); break;
          default: trace.push_back(b.Eq(v, rng.NextInRange(0, 255), rng.NextBelow(3) == 0)); break;
        }
      }
      p.set = trace;
      p.negate_last = rng.NextBelow(2) != 0;
      for (i64& v : p.seed) {
        v = rng.NextInRange(0, 255);
      }
      if (rng.NextBelow(4) == 0) {
        p.domains[rng.NextBelow(24)] = Interval{0, rng.NextInRange(50, 255)};
      }
      chain.push_back(p);
      if (p.negate_last) {
        trace.back().want_true = !trace.back().want_true;  // The child ran the flip.
      }
    }
    SCOPED_TRACE(chain_id);
    inherited += ExpectChainMatchesDepth0(b.arena, chain).total.slices_inherited;
  }
  EXPECT_GT(inherited, 0u);
}

// A 1,000-deep chain with sibling fan-out, as a long depth-first search
// makes it: each parent's run records a few constraints past its solved
// set, and its pendings flip one of them each (three siblings) or keep
// them all (the forced set, which the parent's model satisfies). Every
// pending is solved from the parent's state and at depth 0, and both
// must agree on every call. Every 8th run narrows one cell's domain (to
// a range that keeps the parent's value), so the slices over that cell
// are re-resolved under a new key. A child's own storage must not grow
// with the depth of its set, and a state must stay sound after the
// handles of all its ancestors are gone.
TEST(DeltaSolveTest, ThousandDeepChainWithSiblingsMatchesDepthZero) {
  Builder b;
  Rng rng(0xdee9);
  constexpr int kDepth = 1000;
  constexpr int kSiblings = 3;
  constexpr i32 kVars = 40;
  auto domains = std::make_shared<const std::vector<Interval>>(kVars, Interval{0, 255});
  Twin twin(b.arena, {});
  auto parent_trace = std::make_shared<const std::vector<Constraint>>();
  SliceState parent;  // Empty: the root's pendings have nothing to inherit.
  std::vector<i64> parent_model(kVars, 0);
  std::vector<SliceState> ancestors;
  std::vector<size_t> own_bytes;  // Of each level's parent.
  u64 inherited = 0;
  u64 merged = 0;
  for (int level = 0; level < kDepth; ++level) {
    // The parent's run: its solved set, then the branches it took, on
    // single cells and on fixed cell pairs (which merge their slices).
    auto trace = std::make_shared<std::vector<Constraint>>(*parent_trace);
    const size_t added = 2 + rng.NextBelow(3);
    for (size_t k = 0; k < added; ++k) {
      const i32 v = static_cast<i32>(rng.NextBelow(kVars));
      Constraint c;
      switch (rng.NextBelow(4)) {
        case 0: c = b.SumLt(v & ~1, v | 1, rng.NextInRange(60, 450)); break;
        case 1: c = b.Eq(v, rng.NextInRange(0, 255)); break;
        default: c = b.Gt(v, rng.NextInRange(0, 250)); break;
      }
      c.want_true = b.arena.Eval(c.expr, parent_model) != 0;
      trace->push_back(c);
    }
    if (level % 8 == 7) {
      auto narrowed = std::make_shared<std::vector<Interval>>(*domains);
      const i32 v = static_cast<i32>(rng.NextBelow(kVars));
      (*narrowed)[v].hi = std::max((*narrowed)[v].hi - 1, parent_model[v]);
      domains = std::move(narrowed);
    }
    // The run's domains: the state moves its borrow to them when they
    // equal those it was solved under, and otherwise keeps its own.
    ASSERT_TRUE(parent.Rebase(trace, domains)) << "level " << level;
    // Its pendings, the forced set last.
    SliceState next;
    std::shared_ptr<std::vector<Constraint>> next_trace;
    std::vector<i64> next_model;
    for (int sibling = 0; sibling <= kSiblings; ++sibling) {
      const bool forced = sibling == kSiblings;
      const size_t len = forced ? trace->size() : parent_trace->size() + 1 + rng.NextBelow(added);
      const ConstraintSpan set(trace->data(), len, /*negate_last=*/!forced);
      const std::string where =
          "level " + std::to_string(level) + " pending " + std::to_string(sibling);
      SliceState child;
      IncrementalStats stats;
      const SolveResult got =
          ExpectSameSolve(&twin, set, *domains, parent_model, &parent, &child, where, &stats);
      if (::testing::Test::HasFailure()) {
        return;
      }
      EXPECT_EQ(stats.solves_from_base, 1u) << where;
      inherited += stats.slices_inherited;
      if (got.status == SolveStatus::kSat && next_trace == nullptr) {
        next = std::move(child);
        next.set_owner = trace;  // Until Rebase moves the borrow to the child's run.
        next.domains_owner = domains;
        next_trace = std::make_shared<std::vector<Constraint>>(trace->begin(),
                                                               trace->begin() + len);
        if (!forced) {
          next_trace->back().want_true = !next_trace->back().want_true;
        }
        next_model = got.model;
      }
    }
    ASSERT_NE(next_trace, nullptr) << "level " << level << ": the forced set is SAT";
    merged += next.num_slices() < parent.num_slices() ? 1 : 0;
    own_bytes.push_back(next.own_bytes());
    // The chain goes on from the child; drop every ancestor's handle now
    // and then, so the states below live on through their children only.
    ancestors.push_back(std::move(parent));
    if (level % 97 == 0) {
      ancestors.clear();
    }
    parent = std::move(next);
    parent_trace = std::move(next_trace);
    parent_model = std::move(next_model);
  }
  EXPECT_GT(inherited, 0u);
  EXPECT_GT(merged, 0u);
  // The set grows ~6x from levels 100-199 to 900-999. A child's own
  // storage holds the slices it resolved, each with its constraint
  // indices, the map nodes it wrote and its value array: it grows only
  // as the re-resolved slices do, and stays well under one index per
  // constraint of the set, which a full copy would hold.
  auto mean = [&](size_t from, size_t to) {
    size_t sum = 0;
    for (size_t i = from; i < to; ++i) {
      sum += own_bytes[i];
    }
    return sum / (to - from);
  };
  EXPECT_LT(mean(900, 1000), 3 * mean(100, 200));
  EXPECT_LT(parent.own_bytes(), parent_trace->size() * sizeof(u32) / 2);
}

}  // namespace
}  // namespace retrace
