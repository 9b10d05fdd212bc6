// Tests for the replay search loop: one-worker determinism, resident vs
// portable frontier parity, multi-worker reproduction of seeded crash
// scenarios, lossless stats aggregation, and the arena-portable
// constraint plumbing underneath.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <utility>

#include "src/core/pipeline.h"
#include "src/support/stop_token.h"
#include "src/support/workqueue.h"
#include "tests/testutil.h"

namespace retrace {
namespace {

// Crashes iff argv[1] starts with "k9" and argv[2][0] > '5'.
constexpr const char* kGuardedCrash = R"(
int main(int argc, char **argv) {
  if (argc < 3) { return 1; }
  if (argv[1][0] == 'k') {
    if (argv[1][1] == '9') {
      if (argv[2][0] > '5') {
        crash(13);
      }
    }
  }
  return 0;
}
)";

// A wider search space: four independent byte guards, so the frontier
// holds enough pending sets for stealing and dedup to actually engage.
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

std::unique_ptr<Pipeline> MustBuild(std::string_view app,
                                    const std::vector<std::string>& libs = {}) {
  auto r = Pipeline::FromSources(app, libs);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().ToString());
  return r.take();
}

InputSpec GuardedCrashInput() {
  InputSpec spec;
  spec.argv = {"prog", "k9", "7"};
  spec.world.listen_fd = -1;
  return spec;
}

InputSpec DeepGuardedCrashInput() {
  InputSpec spec;
  spec.argv = {"prog", "abc", "z"};
  spec.world.listen_fd = -1;
  return spec;
}

void ExpectStatsEqual(const ReplayStats& a, const ReplayStats& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.solver_calls, b.solver_calls);
  EXPECT_EQ(a.aborts_forced_direction, b.aborts_forced_direction);
  EXPECT_EQ(a.aborts_concrete_mismatch, b.aborts_concrete_mismatch);
  EXPECT_EQ(a.aborts_log_exhausted, b.aborts_log_exhausted);
  EXPECT_EQ(a.crashes_wrong_site, b.crashes_wrong_site);
  EXPECT_EQ(a.pending_peak, b.pending_peak);
}

// (a) A one-worker search is deterministic: same witness, same stats,
// run after run, and its single worker entry mirrors the totals.
TEST(ReplayParallelTest, SingleWorkerIsDeterministic) {
  auto pipeline = MustBuild(kGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(GuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.seed = 11;  // num_workers defaults to 1.
  const ReplayResult base = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(base.reproduced);
  const ReplayResult again = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(again.reproduced);

  EXPECT_EQ(base.witness_cells, again.witness_cells);
  EXPECT_EQ(base.witness_argv, again.witness_argv);
  ExpectStatsEqual(base.stats, again.stats);

  // The single worker entry mirrors the totals losslessly.
  ASSERT_EQ(again.stats.per_worker.size(), 1u);
  const ReplayWorkerStats& w = again.stats.per_worker[0];
  EXPECT_EQ(w.runs, again.stats.runs);
  EXPECT_EQ(w.solver_calls, again.stats.solver_calls);
  EXPECT_EQ(w.aborts_forced_direction, again.stats.aborts_forced_direction);
  EXPECT_EQ(w.aborts_concrete_mismatch, again.stats.aborts_concrete_mismatch);
  EXPECT_EQ(w.aborts_log_exhausted, again.stats.aborts_log_exhausted);
  EXPECT_EQ(w.crashes_wrong_site, again.stats.crashes_wrong_site);
}

// (a') The frontier's form does not change the search. One-worker
// Reproduce keeps its pendings arena-resident; attaching a FrontierPort
// forces the portable form (export per run, import per pop, dedup).
// With one pending per frontier visit both must find the same witness
// with the same stats — under a plan with nothing instrumented (a wide
// case-1 frontier) and under all branches (forced-direction sets).
TEST(ReplayParallelTest, ResidentAndPortableFrontiersSearchAlike) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  InstrumentationPlan nothing;
  nothing.method = InstrumentMethod::kDynamic;
  nothing.branches = DenseBitset(pipeline->module().branches.size());
  const InstrumentationPlan all = pipeline->MakePlan(PlanInputs::AllBranches());
  for (const InstrumentationPlan* plan : {&std::as_const(nothing), &all}) {
    const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), *plan, {}).take();
    ASSERT_TRUE(user.result.Crashed());

    ReplayConfig config;
    config.seed = 5;
    config.solve_batch = 1;
    const ReplayResult resident = pipeline->Reproduce(user.report, *plan, config).take();
    ASSERT_TRUE(resident.reproduced);

    ReplayEngine engine(pipeline->module(), *plan, user.report);
    FrontierPort port;
    ShardContext ctx;
    ctx.port = &port;
    const ReplayResult portable = engine.ReproduceShard(config, &ctx);
    ASSERT_TRUE(portable.reproduced);

    EXPECT_EQ(resident.witness_cells, portable.witness_cells);
    EXPECT_EQ(resident.witness_argv, portable.witness_argv);
    ExpectStatsEqual(resident.stats, portable.stats);
    EXPECT_GE(resident.stats.solver_calls, 3u);
    EXPECT_EQ(portable.stats.dedup_skips, 0u);
    EXPECT_EQ(resident.stats.slices_solved, portable.stats.slices_solved);
    EXPECT_EQ(resident.stats.slice_sat_hits, portable.stats.slice_sat_hits);
    EXPECT_EQ(resident.stats.slice_unsat_hits, portable.stats.slice_unsat_hits);
    EXPECT_EQ(resident.stats.failure_profile.TotalDeaths(),
              portable.stats.failure_profile.TotalDeaths());
  }
}

// A shared-frontier (portable) search drops a pending set it already
// tried: the per-pop `tried` dedup is what makes a second copy of one
// set — re-dealt, re-balanced, or re-injected from a dead shard's
// ledger — cost nothing. Two copies of one seed pending, popped FIFO one
// per frontier visit: the first runs, the second is skipped, and the
// third run comes from the initial run's own pendings.
TEST(ReplayParallelTest, PortableSearchSkipsRepeatedSeedPending) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  InstrumentationPlan nothing;
  nothing.method = InstrumentMethod::kDynamic;
  nothing.branches = DenseBitset(pipeline->module().branches.size());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), nothing, {}).take();
  ASSERT_TRUE(user.result.Crashed());
  ReplayEngine engine(pipeline->module(), nothing, user.report);

  // One scouted run's pendings, one per guard; the last flips the
  // deepest, so it differs from the shard's initial-run pending that
  // FIFO pops third.
  ReplayConfig scout_cfg;
  scout_cfg.max_runs = 1;
  std::vector<PortablePending> scouted;
  engine.Scout(scout_cfg, /*target_frontier=*/0, &scouted);
  ASSERT_GE(scouted.size(), 2u);

  ReplayConfig config;
  config.pick = ReplayConfig::Pick::kFifo;
  config.solve_batch = 1;
  config.max_runs = 3;  // The initial run, the first copy, one more.
  ShardContext ctx;
  ctx.seed_frontier = {scouted.back(), scouted.back()};
  const ReplayResult result = engine.ReproduceShard(config, &ctx);
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.stats.runs, 3u);
  EXPECT_EQ(result.stats.dedup_skips, 1u);
}

// (b) num_workers = 4 reproduces each seeded crash scenario, across
// instrumentation plans, and the witness still verifies.
TEST(ReplayParallelTest, FourWorkersReproduceAllBranches) {
  auto pipeline = MustBuild(kGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(GuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_workers = 4;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);
  ASSERT_GE(replay.witness_argv.size(), 3u);
  EXPECT_EQ(replay.witness_argv[1][0], 'k');
  EXPECT_EQ(replay.witness_argv[1][1], '9');
  EXPECT_GT(replay.witness_argv[2][0], '5');
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
  EXPECT_EQ(replay.stats.per_worker.size(), 4u);
}

TEST(ReplayParallelTest, FourWorkersReproduceWithDynamicPlan) {
  auto pipeline = MustBuild(kGuardedCrash);
  AnalysisConfig dyn_config;
  dyn_config.max_runs = 32;
  InputSpec benign;
  benign.argv = {"prog", "ab", "c"};
  benign.world.listen_fd = -1;
  const AnalysisResult dyn = pipeline->RunDynamicAnalysis(benign, dyn_config);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::Dynamic(dyn));

  const auto user = pipeline->RecordUserRun(GuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());
  ReplayConfig config;
  config.num_workers = 4;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
}

TEST(ReplayParallelTest, FourWorkersReproduceDeepCrash) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_workers = 4;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
}

TEST(ReplayParallelTest, FourWorkersReproduceSyscallBug) {
  constexpr const char* kReadBug = R"(
    int main() {
      char buf[64];
      int n = read(0, buf, 60);
      if (n == 13) {
        if (buf[0] == 'Z') { crash(2); }
      }
      return 0;
    }
  )";
  auto pipeline = MustBuild(kReadBug);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = -1;
  spec.world.stdin_stream = 0;
  StreamShape stream;
  stream.name = "stdin";
  const std::string data = "Zsecretsecret";  // 13 bytes.
  stream.bytes.assign(data.begin(), data.end());
  stream.length = 13;
  spec.world.streams.push_back(stream);

  const auto user = pipeline->RecordUserRun(spec, plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_workers = 4;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);
}

// ----- Corpus seeding -----

// Corpus seeding: handing the fleet a witness-adjacent input makes the
// search fall out of the corpus run (or a short push off it) — and the
// runs are counted as corpus_runs.
TEST(ReplayParallelTest, CorpusSeedShortCircuitsSearch) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  // Obtain a known witness, then replay with it as a corpus seed.
  ReplayConfig warm;
  warm.num_workers = 4;
  const ReplayResult baseline = pipeline->Reproduce(user.report, plan, warm).take();
  ASSERT_TRUE(baseline.reproduced);

  {
    // Sequential: one initial random run, then the corpus run crashes —
    // a cap of 3 is far too small for a cold search, so reproducing at
    // all proves the seed did it.
    ReplayConfig config;
    config.max_runs = 3;
    config.corpus_seeds = {baseline.witness_cells};
    const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
    ASSERT_TRUE(replay.reproduced);
    EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
    EXPECT_EQ(replay.stats.corpus_runs, 1u);
  }
  {
    // Fleet: one witness seed per worker — whichever corpus run lands
    // first wins, and since the winning run IS a corpus run (counted
    // before it starts), corpus_runs >= 1 deterministically.
    ReplayConfig config;
    config.num_workers = 4;
    config.corpus_seeds = {baseline.witness_cells, baseline.witness_cells,
                           baseline.witness_cells, baseline.witness_cells};
    const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
    ASSERT_TRUE(replay.reproduced);
    EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
    EXPECT_GE(replay.stats.corpus_runs, 1u);
  }
}

// (c) Aggregation is lossless: every counter in the aggregate equals the
// sum over per-worker entries — every abort is counted exactly once.
TEST(ReplayParallelTest, StatsAggregateLosslessly) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_workers = 4;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  const ReplayStats& s = replay.stats;
  ASSERT_EQ(s.per_worker.size(), 4u);

  auto sum = [&](auto field) {
    return std::accumulate(s.per_worker.begin(), s.per_worker.end(), u64{0},
                           [&](u64 acc, const ReplayWorkerStats& w) { return acc + field(w); });
  };
  EXPECT_EQ(s.runs, sum([](const ReplayWorkerStats& w) { return w.runs; }));
  EXPECT_EQ(s.solver_calls, sum([](const ReplayWorkerStats& w) { return w.solver_calls; }));
  EXPECT_EQ(s.aborts_forced_direction,
            sum([](const ReplayWorkerStats& w) { return w.aborts_forced_direction; }));
  EXPECT_EQ(s.aborts_concrete_mismatch,
            sum([](const ReplayWorkerStats& w) { return w.aborts_concrete_mismatch; }));
  EXPECT_EQ(s.aborts_log_exhausted,
            sum([](const ReplayWorkerStats& w) { return w.aborts_log_exhausted; }));
  EXPECT_EQ(s.crashes_wrong_site,
            sum([](const ReplayWorkerStats& w) { return w.crashes_wrong_site; }));
  EXPECT_EQ(s.steals, sum([](const ReplayWorkerStats& w) { return w.steals; }));
  EXPECT_EQ(s.dedup_skips, sum([](const ReplayWorkerStats& w) { return w.dedup_skips; }));
  EXPECT_EQ(s.cancelled_runs,
            sum([](const ReplayWorkerStats& w) { return w.cancelled_runs; }));
  // Every run was admitted against the global cap exactly once.
  EXPECT_LE(s.runs, ReplayConfig{}.max_runs);
}

// The run cap is global, not per worker.
TEST(ReplayParallelTest, RunCapIsGlobal) {
  auto pipeline = MustBuild(kGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(GuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_workers = 4;
  config.max_runs = 2;
  config.seed = 5;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  EXPECT_LE(replay.stats.runs, 2u);
  if (!replay.reproduced) {
    EXPECT_TRUE(replay.budget_exhausted);
  }
}

// ----- Arena-portable constraint plumbing -----

TEST(ReplayParallelTest, PortableTraceRoundTrip) {
  ExprArena source;
  const ExprRef x = source.MkVar(0);
  const ExprRef y = source.MkVar(1);
  const ExprRef sum = source.MkBin(ExprOp::kAdd, x, y);
  const ExprRef cmp = source.MkBin(ExprOp::kGt, sum, source.MkConst(10));
  const ExprRef odd = source.MkBin(ExprOp::kAnd, x, source.MkConst(1));
  std::vector<Constraint> constraints{{cmp, true}, {odd, false}};

  const PortableTrace portable = ExportTrace(source, constraints);
  ASSERT_EQ(portable.constraints.size(), 2u);

  ExprArena target;
  target.MkVar(7);  // Pre-populate so refs differ from the source arena.
  const std::vector<Constraint> imported =
      ImportConstraints(portable, portable.constraints.size(), /*negate_last=*/false, &target);
  ASSERT_EQ(imported.size(), 2u);

  // Same semantics under identical assignments, in both arenas.
  const std::vector<i64> model{6, 7};
  EXPECT_EQ(source.Eval(cmp, model), target.Eval(imported[0].expr, model));
  EXPECT_EQ(source.Eval(odd, model), target.Eval(imported[1].expr, model));
  EXPECT_FALSE(imported[1].want_true);

  // negate_last flips only the last constraint.
  const std::vector<Constraint> negated =
      ImportConstraints(portable, portable.constraints.size(), /*negate_last=*/true, &target);
  EXPECT_TRUE(negated[1].want_true);
  EXPECT_EQ(negated[1].expr, imported[1].expr);
}

TEST(ReplayParallelTest, FingerprintStableAcrossArenas) {
  // Build the same structural constraints in two arenas with different
  // interning histories: fingerprints must match (the fleet-wide dedup
  // key), and a negation must change them.
  auto build = [](ExprArena* arena, int noise) {
    for (int i = 0; i < noise; ++i) {
      arena->MkVar(100 + i);  // Shift raw refs between the two arenas.
    }
    const ExprRef x = arena->MkVar(0);
    const ExprRef k = arena->MkConst(42);
    return std::vector<Constraint>{{arena->MkBin(ExprOp::kEq, x, k), true}};
  };
  ExprArena a;
  ExprArena b;
  const std::vector<Constraint> ca = build(&a, 0);
  const std::vector<Constraint> cb = build(&b, 5);

  const PortableTrace pa = ExportTrace(a, ca);
  const PortableTrace pb = ExportTrace(b, cb);
  EXPECT_EQ(FingerprintConstraints(pa, 1, false), FingerprintConstraints(pb, 1, false));
  EXPECT_NE(FingerprintConstraints(pa, 1, false), FingerprintConstraints(pa, 1, true));
}

// ----- Work-stealing frontier -----

TEST(ReplayParallelTest, WorkQueueOwnerOrderAndStealing) {
  WorkStealingQueue<int> queue(2);
  queue.Push(0, 1);
  queue.Push(0, 2);
  queue.Push(0, 3);

  int out = 0;
  bool stolen = false;
  // Owner DFS pop: newest first.
  ASSERT_TRUE(queue.Pop(0, PopOrder::kNewestFirst, &out, &stolen));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(stolen);
  // Thief steals the oldest entry of the victim's deque.
  ASSERT_TRUE(queue.Pop(1, PopOrder::kNewestFirst, &out, &stolen));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(stolen);
  ASSERT_TRUE(queue.Pop(0, PopOrder::kOldestFirst, &out, &stolen));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(stolen);
  EXPECT_EQ(queue.peak(), 3u);
}

TEST(ReplayParallelTest, WorkQueueDrainTerminates) {
  // A single worker popping an empty frontier must get "done", not block.
  WorkStealingQueue<int> queue(1);
  int out = 0;
  bool stolen = false;
  EXPECT_FALSE(queue.Pop(0, PopOrder::kNewestFirst, &out, &stolen));
}

// After first-crash-wins Close(), a donor pump must not carve pendings
// for peers: the search is over, exporting would be wasted wire traffic
// and a misleading pendings_exported count.
TEST(ReplayParallelTest, WorkQueueRefusesExportWhenClosed) {
  WorkStealingQueue<int> queue(2);
  queue.Push(0, 1);
  queue.Push(0, 2);
  queue.Push(0, 3);
  queue.Push(1, 4);

  std::vector<int> out;
  EXPECT_EQ(queue.ExportDeepest(/*max_items=*/2, /*min_keep=*/0, &out), 2u);
  EXPECT_EQ(out.size(), 2u);

  queue.Close();
  out.clear();
  EXPECT_EQ(queue.ExportDeepest(/*max_items=*/8, /*min_keep=*/0, &out), 0u);
  EXPECT_TRUE(out.empty());
}

// ----- FrontierPort cancellation (a shard's kStop) -----

// A kStop can reach the shard's pump before the search has built its
// frontier. The port remembers it, and Attach applies it: the stop is
// requested and the frontier is closed, resident work included.
TEST(ReplayParallelTest, FrontierPortCancelBeforeAttachClosesOnAttach) {
  FrontierPort port;
  port.Cancel();

  WorkStealingQueue<PortablePending> frontier(1);
  frontier.Push(0, PortablePending{});
  StopSource stop;
  port.Attach(&frontier, /*num_workers=*/1, &stop);
  EXPECT_TRUE(stop.StopRequested());
  PortablePending out;
  bool stolen = false;
  EXPECT_FALSE(frontier.Pop(0, PopOrder::kNewestFirst, &out, &stolen));
  // A closed frontier refuses re-balanced work so the pump can return it.
  EXPECT_FALSE(port.Import(PortablePending{}));
  port.Detach();
}

// A worker blocked in Pop() on an empty frontier (a peer worker is still
// busy, so the frontier has not terminated) must return at once when the
// port is cancelled; the stop is requested for runs in flight. Whether
// the worker blocks before or after Cancel(), Pop() returns false.
TEST(ReplayParallelTest, FrontierPortCancelWakesWorkerBlockedInPop) {
  WorkStealingQueue<PortablePending> frontier(2);  // Worker 1 never retires.
  StopSource stop;
  FrontierPort port;
  port.Attach(&frontier, /*num_workers=*/2, &stop);

  bool popped = true;
  std::thread worker([&] {
    PortablePending out;
    bool stolen = false;
    popped = frontier.Pop(0, PopOrder::kNewestFirst, &out, &stolen);
  });
  port.Cancel();
  worker.join();
  EXPECT_FALSE(popped);
  EXPECT_TRUE(stop.StopRequested());

  port.Detach();
  port.Cancel();  // After Detach: a no-op, the frontier may be gone.
}

}  // namespace
}  // namespace retrace
