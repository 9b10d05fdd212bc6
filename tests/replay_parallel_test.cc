// Tests for the replay search loop: one-worker determinism, resident vs
// portable frontier parity, multi-worker reproduction of seeded crash
// scenarios, lossless stats aggregation, and the arena-portable
// constraint plumbing underneath.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
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

// Eight independent guards on stdin bytes and a crash behind all of
// them: with nothing instrumented, a search that cannot reach the crash
// site walks all 256 paths and then runs dry. Stream bytes (unlike argv
// cells) may differ between a checkpoint and the run resumed there, so
// its runs resume at their flipped branch.
constexpr const char* kWideGuards = R"(
int main() {
  char buf[16];
  int n = read(0, buf, 8);
  if (n < 8) { return 1; }
  int hits = 0;
  if (buf[0] == 'a') { hits = hits + 1; }
  if (buf[1] == 'b') { hits = hits + 1; }
  if (buf[2] == 'c') { hits = hits + 1; }
  if (buf[3] == 'd') { hits = hits + 1; }
  if (buf[4] == 'e') { hits = hits + 1; }
  if (buf[5] == 'f') { hits = hits + 1; }
  if (buf[6] == 'g') { hits = hits + 1; }
  if (buf[7] == 'h') { hits = hits + 1; }
  if (hits == 8) { crash(7); }
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

InputSpec WideGuardsInput() {
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = -1;
  spec.world.stdin_stream = 0;
  StreamShape stream;
  stream.name = "stdin";
  const std::string data = "abcdefgh";
  stream.bytes.assign(data.begin(), data.end());
  stream.length = 8;
  spec.world.streams.push_back(stream);
  return spec;
}

// A wide-guards report under a plan with nothing instrumented, its crash
// site moved out of reach: every search of it ends by running dry.
struct ExhaustiveSearch {
  std::unique_ptr<Pipeline> pipeline;
  InstrumentationPlan plan;
  BugReport report;
};

ExhaustiveSearch MakeExhaustiveSearch() {
  ExhaustiveSearch search;
  search.pipeline = MustBuild(kWideGuards);
  search.plan.method = InstrumentMethod::kDynamic;
  search.plan.branches = DenseBitset(search.pipeline->module().branches.size());
  auto user = search.pipeline->RecordUserRun(WideGuardsInput(), search.plan, {}).take();
  EXPECT_TRUE(user.result.Crashed());
  search.report = user.report;
  search.report.crash.func = -1;  // No run crashes in no function.
  return search;
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

// (a') Sharing does not change a worker's search. Attaching a
// FrontierPort makes a one-worker search shared — it dedups every pop
// and can be cancelled from outside — but its pendings stay resident,
// delta-solved from their parent's slice state. With one pending per
// frontier visit both must find the same witness with the same stats,
// slice inheritance included — under a plan with nothing instrumented
// (a wide case-1 frontier) and under all branches (forced-direction
// sets).
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
    EXPECT_EQ(resident.stats.slices_inherited, portable.stats.slices_inherited);
    EXPECT_EQ(resident.stats.solves_from_base, portable.stats.solves_from_base);
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
  config.max_runs = 3;  // The initial run, the first copy, one more.
  ShardContext ctx;
  ctx.seed_frontier = {scouted.back(), scouted.back()};
  const ReplayResult result = engine.ReproduceShard(config, &ctx);
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.stats.runs, 3u);
  EXPECT_EQ(result.stats.dedup_skips, 1u);
}

// ----- Worker affinity and donation -----

// The exhaustive search's shape: 255 distinct pending sets (every flip
// of the 256-path tree) plus each worker's initial run. Both workers'
// random inputs miss every guard, so the second copy of each of the 8
// root sets is dropped by the per-pop dedup.
constexpr u64 kExhaustiveRuns = 255 + 2;
constexpr u64 kRootSets = 8;

// Stages a donation in a 2-worker exhaustive search. Worker 1 starts its
// initial run only once worker 0 has popped every root set — depth-first
// that is its first 129 runs (its initial run, then the subtrees of
// flips 7 down to 1) — so all of worker 1's own pendings are dropped as
// already tried and it runs dry at once. Worker 0 then runs slowly until
// worker 1 runs again, which only a pending donated by worker 0 can make
// it do.
class DonationStage {
 public:
  static constexpr u64 kRootsTried = 140;

  void Install(ReplayConfig* config) {
    config->model_tap = [this](u32 worker, const std::vector<i64>&, size_t) { OnRun(worker); };
  }
  u64 runs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return runs_[0] + runs_[1];
  }

 private:
  void OnRun(u32 worker) {
    std::unique_lock<std::mutex> lock(mu_);
    ++runs_[worker];
    if (worker == 1 && runs_[1] == 1) {
      // Bounded, so a search that goes wrong fails its checks, not hangs.
      cv_.wait_for(lock, std::chrono::seconds(60), [this] { return runs_[0] >= kRootsTried; });
    } else if (worker == 0 && runs_[0] >= kRootsTried && runs_[1] < 2) {
      cv_.notify_all();
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  u64 runs_[2] = {0, 0};
};

// Each worker of a 2-worker search pops the pendings its own runs
// published: they are delta-solved from their parent solve's slice
// state and resume at their flipped branch on the worker's own
// checkpoint stack, as in a one-worker search.
TEST(ReplayParallelTest, TwoWorkerPendingsInheritSlicesAndResumeAtFlip) {
  const ExhaustiveSearch search = MakeExhaustiveSearch();
  ReplayConfig config;
  config.num_workers = 2;
  config.seed = 3;
  DonationStage stage;
  stage.Install(&config);
  const ReplayResult result =
      search.pipeline->Reproduce(search.report, search.plan, config).take();
  const ReplayStats& s = result.stats;
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(s.runs, kExhaustiveRuns);
  EXPECT_EQ(s.dedup_skips, kRootSets);
  EXPECT_GT(s.slices_inherited, 0u);
  // Nearly every solve extends its parent's state: only the initial
  // runs' pendings and the few pendings that went through the pool
  // (imported: depth 0) solve from scratch.
  EXPECT_GE(s.solves_from_base, s.solver_calls * 9 / 10);
  // Exactly those: the root sets, and the pendings one worker received
  // from the other. A donation that returns to its donor stays resident
  // and extends its base.
  EXPECT_EQ(s.solver_calls - s.solves_from_base, kRootSets + s.steals);
  // Every run but the two initial ones resumed at a branch checkpoint.
  EXPECT_EQ(s.resumed_runs + 2, s.runs);
  EXPECT_EQ(s.resumed_at_branch, s.resumed_runs);
  ASSERT_EQ(s.per_worker.size(), 2u);
  for (const ReplayWorkerStats& w : s.per_worker) {
    EXPECT_GT(w.slices_inherited, 0u);
    EXPECT_GT(w.solves_from_base, 0u);
  }
  // A worker's own pendings resume at their flipped branch itself; only
  // a pending received from the other worker may start short of it.
  // Worker 0 receives one only if worker 1 outlasts it at the end.
  EXPECT_GT(s.per_worker[1].steals, 0u);
  if (s.per_worker[0].steals == 0) {
    EXPECT_EQ(s.per_worker[0].instrs_before_flip, 0u);
  }
}

// A worker that runs dry receives a portable pending donated by a busy
// one, and the search ends once every worker is idle — at once without
// a port hold, and right after the hold is released with one.
TEST(ReplayParallelTest, HungryWorkerReceivesDonationAndIdleSearchEnds) {
  const ExhaustiveSearch search = MakeExhaustiveSearch();
  ReplayEngine engine(search.pipeline->module(), search.plan, search.report);
  ReplayConfig config;
  config.num_workers = 2;
  config.seed = 3;
  {
    DonationStage stage;
    stage.Install(&config);
    const ReplayResult plain = engine.Reproduce(config);
    EXPECT_FALSE(plain.reproduced);
    EXPECT_EQ(plain.stats.runs, kExhaustiveRuns);
    EXPECT_EQ(plain.stats.dedup_skips, kRootSets);
    ASSERT_EQ(plain.stats.per_worker.size(), 2u);
    EXPECT_GT(plain.stats.per_worker[1].steals, 0u);
  }

  DonationStage stage;
  stage.Install(&config);
  FrontierPort port;
  port.HoldOpen();  // As a shard's pump does before its search starts.
  ShardContext ctx;
  ctx.port = &port;
  std::atomic<bool> returned{false};
  ReplayResult held;
  std::thread searcher([&] {
    held = engine.ReproduceShard(config, &ctx);
    returned = true;
  });
  // Every run has started and the frontier is empty: the workers run
  // dry, and only the hold keeps the search open. (A search that never
  // gets there fails the run count below instead of hanging the test.)
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((stage.runs() < kExhaustiveRuns || port.size() > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  port.ReleaseHold();
  searcher.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(held.reproduced);
  EXPECT_EQ(held.stats.runs, kExhaustiveRuns);
  EXPECT_EQ(held.stats.dedup_skips, kRootSets);
  ASSERT_EQ(held.stats.per_worker.size(), 2u);
  EXPECT_GT(held.stats.per_worker[1].steals, 0u);
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

// ----- Donation pool (the shared half of the frontier) -----

// The pool pops newest first (DFS) or oldest first (FIFO), counts the
// workers' own stacks into size() and peak(), and a worker waiting in
// Take() raises a donation request that a busy worker's push answers.
TEST(ReplayParallelTest, DonationPoolOrderAndDonationRequest) {
  DonationPool<int> pool(2);
  pool.Push(1);
  pool.Push(2);
  pool.Push(3);
  pool.AddResident(2);  // Two pendings on the workers' own stacks.
  EXPECT_EQ(pool.size(), 5u);

  int out = 0;
  ASSERT_TRUE(pool.Take(PopOrder::kNewestFirst, &out));
  EXPECT_EQ(out, 3);
  ASSERT_TRUE(pool.Take(PopOrder::kOldestFirst, &out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(pool.TryTake(PopOrder::kNewestFirst, &out));
  EXPECT_EQ(out, 2);
  // Empty: TryTake neither waits nor asks for a donation.
  EXPECT_FALSE(pool.TryTake(PopOrder::kNewestFirst, &out));
  EXPECT_FALSE(pool.Wanted());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.peak(), 5u);

  // Worker 1 runs dry and waits. Worker 0 is still busy, so the search
  // is not over: the wait is a request, and worker 0's donation ends it.
  bool took = false;
  int received = 0;
  std::thread hungry([&] { took = pool.Take(PopOrder::kNewestFirst, &received); });
  while (!pool.Wanted()) {
    std::this_thread::yield();
  }
  pool.AddResident(-1);
  pool.Push(7);
  hungry.join();
  EXPECT_TRUE(took);
  EXPECT_EQ(received, 7);
  EXPECT_FALSE(pool.Wanted());
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ReplayParallelTest, WorkQueueDrainTerminates) {
  // A single worker taking from an empty frontier must get "done", not
  // block.
  DonationPool<int> pool(1);
  int out = 0;
  EXPECT_FALSE(pool.Take(PopOrder::kNewestFirst, &out));
  EXPECT_TRUE(pool.closed());
}

// After first-crash-wins Close(), a donor pump must not carve pendings
// for peers: the search is over, exporting would be wasted wire traffic
// and a misleading pendings_exported count.
TEST(ReplayParallelTest, WorkQueueRefusesExportWhenClosed) {
  DonationPool<int> pool(2);
  pool.Push(1);
  pool.Push(2);
  pool.Push(3);
  pool.Push(4);

  std::vector<int> out;
  EXPECT_EQ(pool.TakeForPeer(/*max_items=*/2, /*min_keep=*/0, &out), 2u);
  EXPECT_EQ(out, (std::vector<int>{4, 3}));

  pool.Close();
  out.clear();
  EXPECT_EQ(pool.TakeForPeer(/*max_items=*/8, /*min_keep=*/0, &out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(pool.Wanted());
}

// ----- FrontierPort cancellation (a shard's kStop) -----

// A kStop can reach the shard's pump before the search has built its
// frontier. The port remembers it, and Attach applies it: the stop is
// requested and the frontier is closed, pooled work included.
TEST(ReplayParallelTest, FrontierPortCancelBeforeAttachClosesOnAttach) {
  FrontierPort port;
  port.Cancel();

  DonationPool<PooledPending> frontier(1);
  frontier.Push(PooledPending{});
  StopSource stop;
  port.Attach(&frontier, /*num_workers=*/1, &stop);
  EXPECT_TRUE(stop.StopRequested());
  PooledPending out;
  EXPECT_FALSE(frontier.Take(PopOrder::kNewestFirst, &out));
  // A closed frontier refuses re-balanced work so the pump can return it.
  EXPECT_FALSE(port.Import(PortablePending{}));
  port.Detach();
}

// A worker blocked in Take() on an empty pool (a peer worker is still
// busy, so the frontier has not terminated) must return at once when the
// port is cancelled; the stop is requested for runs in flight. Whether
// the worker blocks before or after Cancel(), Take() returns false.
TEST(ReplayParallelTest, FrontierPortCancelWakesWorkerBlockedInPop) {
  DonationPool<PooledPending> frontier(2);  // Worker 1 never retires.
  StopSource stop;
  FrontierPort port;
  port.Attach(&frontier, /*num_workers=*/2, &stop);

  bool popped = true;
  std::thread worker([&] {
    PooledPending out;
    popped = frontier.Take(PopOrder::kNewestFirst, &out);
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
