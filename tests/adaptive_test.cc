// Adaptive instrumentation planning: failure-telemetry aggregation,
// plan refinement, log-irrelevance learning, corpus mutation, the
// strict env-knob constructor, and the Pipeline::ReproduceAdaptive
// loop end-to-end on a program whose blind search dies on a decoy
// crash until refinement logs the decoy branch away.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/analysis/log_irrelevance.h"
#include "src/analysis/points_to.h"
#include "src/concolic/corpus_mutate.h"
#include "src/core/pipeline.h"
#include "src/instrument/refine.h"
#include "tests/testutil.h"

namespace retrace {
namespace {

std::unique_ptr<Pipeline> MustBuild(std::string_view app) {
  auto r = Pipeline::FromSources(app);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().ToString());
  return r.take();
}

// ----- ReplayFailureProfile aggregation -----

TEST(FailureProfileTest, MergeIsASortedUnionSummingCounters) {
  ReplayFailureProfile a;
  a.branches = {{2, 1, 0, 0, 10}, {5, 0, 2, 0, 20}};
  a.deaths_unattributed = 3;
  ReplayFailureProfile b;
  b.branches = {{1, 0, 0, 1, 5}, {5, 4, 0, 1, 7}, {9, 1, 1, 1, 1}};
  b.deaths_unattributed = 4;

  a.Merge(b);
  ASSERT_EQ(a.branches.size(), 4u);
  EXPECT_EQ(a.branches[0].branch_id, 1u);
  EXPECT_EQ(a.branches[1].branch_id, 2u);
  EXPECT_EQ(a.branches[2].branch_id, 5u);
  EXPECT_EQ(a.branches[3].branch_id, 9u);
  EXPECT_EQ(a.branches[2].deaths_concrete, 4u);
  EXPECT_EQ(a.branches[2].deaths_exhausted, 2u);
  EXPECT_EQ(a.branches[2].deaths_wrong_crash, 1u);
  EXPECT_EQ(a.branches[2].blind_execs, 27u);
  EXPECT_EQ(a.deaths_unattributed, 7u);
  // Per-branch deaths (1 + 1 + 7 + 3) plus the unattributed pool (7).
  EXPECT_EQ(a.TotalDeaths(), 19u);

  const BranchFailureCounts* found = a.Find(5);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->Deaths(), 7u);
  EXPECT_EQ(a.Find(4), nullptr);
}

TEST(FailureProfileTest, MergeIntoEmptyCopies) {
  ReplayFailureProfile empty;
  ReplayFailureProfile b;
  b.branches = {{7, 1, 2, 3, 4}};
  empty.Merge(b);
  ASSERT_EQ(empty.branches.size(), 1u);
  EXPECT_EQ(empty.branches[0].Deaths(), 6u);
  EXPECT_FALSE(empty.Empty());
}

// ----- RefinePlan: mining the profile into added log bits -----

InstrumentationPlan TenBranchPlan() {
  InstrumentationPlan plan;
  plan.method = InstrumentMethod::kDynamic;
  plan.branches = DenseBitset(10);
  plan.branches.Set(0);
  plan.provenance = "dynamic";
  return plan;
}

TEST(RefineTest, PromotesDeadliestUnloggedBranchesFirst) {
  ReplayFailureProfile profile;
  profile.branches = {
      {0, 50, 0, 0, 1},  // Already instrumented: never a candidate.
      {2, 1, 0, 0, 99},
      {4, 0, 3, 0, 5},   // Most deaths: first pick.
      {6, 2, 0, 0, 50},  // Ties with 8 on deaths, more blind execs.
      {8, 2, 0, 0, 10},
  };
  RefineConfig config;
  config.max_added_branches = 2;
  const RefineOutcome out = RefinePlan(TenBranchPlan(), profile, nullptr, config);
  EXPECT_EQ(out.candidates, 4u);
  ASSERT_EQ(out.added.size(), 2u);
  EXPECT_EQ(out.added[0], 4);
  EXPECT_EQ(out.added[1], 6);
  EXPECT_TRUE(out.plan.Instrumented(4));
  EXPECT_TRUE(out.plan.Instrumented(6));
  EXPECT_FALSE(out.plan.Instrumented(2));
  EXPECT_EQ(out.plan.detail_level, 1u);
  EXPECT_EQ(out.plan.provenance, "dynamic +refine#1(2)");
}

TEST(RefineTest, MinDeathsFiltersBlindButAliveBranches) {
  ReplayFailureProfile profile;
  profile.branches = {{3, 0, 0, 0, 1000}};  // Blind execs, zero deaths.
  const RefineOutcome out = RefinePlan(TenBranchPlan(), profile, nullptr, RefineConfig{});
  EXPECT_EQ(out.candidates, 0u);
  EXPECT_TRUE(out.added.empty());
  // Convergence: the plan is byte-identical, no provenance noise.
  EXPECT_EQ(out.plan.detail_level, 0u);
  EXPECT_EQ(out.plan.provenance, "dynamic");
  EXPECT_EQ(out.plan.branches, TenBranchPlan().branches);
}

TEST(RefineTest, SecondRoundStacksProvenance) {
  ReplayFailureProfile profile;
  profile.branches = {{2, 1, 0, 0, 1}, {4, 1, 0, 0, 1}};
  RefineConfig config;
  config.max_added_branches = 1;
  const RefineOutcome first = RefinePlan(TenBranchPlan(), profile, nullptr, config);
  ASSERT_EQ(first.added.size(), 1u);
  const RefineOutcome second = RefinePlan(first.plan, profile, nullptr, config);
  ASSERT_EQ(second.added.size(), 1u);
  EXPECT_NE(second.added[0], first.added[0]);
  EXPECT_EQ(second.plan.detail_level, 2u);
  EXPECT_EQ(second.plan.provenance, "dynamic +refine#1(1) +refine#2(1)");
}

// ----- Log-irrelevance learning -----

TEST(LogIrrelevanceTest, ProvesDeadStoreBranchPureAndCrashGuardImpure) {
  // The argv[1][1] branch only writes a slot nothing ever reads again:
  // flipping it cannot change any logged outcome. The argv[1][0] branch
  // feeds x into the crash guard, and the guard itself returns/crashes —
  // both must stay relevant.
  Compiled c = CompileOrDie(R"(
    int main(int argc, char **argv) {
      int x = 0;
      int y = 0;
      if (argv[1][0] == 'a') { x = 1; }
      if (argv[1][1] == 'b') { y = 1; }
      if (x == 1) { crash(7); }
      return 0;
    }
  )");
  ASSERT_NE(c.module, nullptr);
  const PointsTo points_to = PointsTo::Compute(*c.module);
  const LogIrrelevance ir = LogIrrelevance::Compute(*c.module, points_to);
  ASSERT_EQ(ir.num_branches(), c.module->branches.size());
  EXPECT_EQ(ir.num_pure(), 1u);

  DenseBitset nothing_logged(c.module->branches.size());
  size_t irrelevant = 0;
  for (size_t id = 0; id < c.module->branches.size(); ++id) {
    if (ir.Irrelevant(static_cast<i32>(id), nothing_logged)) {
      ++irrelevant;
      EXPECT_TRUE(ir.Info(static_cast<i32>(id)).pure);
    }
  }
  EXPECT_EQ(irrelevant, 1u);
}

TEST(LogIrrelevanceTest, LoadsAndLoopsStayRelevant) {
  // Both branch bodies are impure: one loads through a pointer, the
  // other loops. Nothing is provably irrelevant here.
  Compiled c = CompileOrDie(R"(
    int g[4];
    int main(int argc, char **argv) {
      int y = 0;
      if (argv[1][0] == 'a') { y = g[1]; }
      if (argv[1][1] == 'b') {
        int i = 0;
        while (i < 3) { i = i + 1; }
      }
      return 0;
    }
  )");
  ASSERT_NE(c.module, nullptr);
  const LogIrrelevance ir = LogIrrelevance::Compute(*c.module, PointsTo::Compute(*c.module));
  EXPECT_EQ(ir.num_pure(), 0u);
}

// ----- Corpus mutation -----

TEST(CorpusMutateTest, OriginalsFirstThenDeterministicMutants) {
  const std::vector<std::vector<i64>> corpus = {{107, 57, 0}, {97, 98, 99}};
  const auto out = MutateCorpus(corpus, /*seed=*/11, /*mutants_per_seed=*/3,
                                /*max_total=*/100);
  ASSERT_EQ(out.size(), 2u + 2u * 3u);
  EXPECT_EQ(out[0], corpus[0]);
  EXPECT_EQ(out[1], corpus[1]);
  for (size_t i = 2; i < out.size(); ++i) {
    // Every operator preserves the cell layout.
    EXPECT_EQ(out[i].size(), 3u) << i;
  }
  // Deterministic: same seed, same mutants.
  EXPECT_EQ(MutateCorpus(corpus, 11, 3, 100), out);
  // A different seed mutates differently (with overwhelming likelihood
  // over 6 mutants; equality would mean the Rng ignored the seed).
  EXPECT_NE(MutateCorpus(corpus, 12, 3, 100), out);
}

TEST(CorpusMutateTest, RespectsCapAndHandlesEmpty) {
  EXPECT_TRUE(MutateCorpus({}, 1, 5, 100).empty());
  const std::vector<std::vector<i64>> corpus = {{1}, {2}, {3}};
  EXPECT_EQ(MutateCorpus(corpus, 1, 5, 2).size(), 2u);
  const auto unmutated = MutateCorpus(corpus, 1, 0, 100);
  EXPECT_EQ(unmutated, corpus);
}

// ----- ReplayConfig::FromEnv -----

struct EnvGuard {
  ~EnvGuard() {
    for (const char* name : {"RETRACE_REPLAY_WORKERS", "RETRACE_REPLAY_SHARDS",
                             "RETRACE_SOLVER_CACHE", "RETRACE_REPLAY_TRANSPORT",
                             "RETRACE_GOSSIP_INTERVAL_MS"}) {
      ::unsetenv(name);
    }
  }
};

TEST(ReplayConfigFromEnvTest, DefaultsWhenUnset) {
  EnvGuard guard;
  const ReplayConfig config = ReplayConfig::FromEnv();
  EXPECT_EQ(config.num_workers, 1u);
  EXPECT_EQ(config.num_shards, 1u);
  EXPECT_EQ(config.pick, ReplayConfig::Pick::kDfs);
  EXPECT_TRUE(config.solver_cache);
  EXPECT_EQ(config.transport, ReplayTransport::kFork);
  EXPECT_EQ(config.gossip_interval_ms, 20);
}

TEST(ReplayConfigFromEnvTest, ReadsEveryKnob) {
  EnvGuard guard;
  ::setenv("RETRACE_REPLAY_WORKERS", "3", 1);
  ::setenv("RETRACE_REPLAY_SHARDS", "2,4", 1);  // Sweep list: first entry.
  ::setenv("RETRACE_SOLVER_CACHE", "0", 1);
  ::setenv("RETRACE_REPLAY_TRANSPORT", "tcp", 1);
  ::setenv("RETRACE_GOSSIP_INTERVAL_MS", "50", 1);
  const ReplayConfig config = ReplayConfig::FromEnv();
  EXPECT_EQ(config.num_workers, 3u);
  EXPECT_EQ(config.num_shards, 2u);
  EXPECT_FALSE(config.solver_cache);
  EXPECT_EQ(config.transport, ReplayTransport::kTcp);
  EXPECT_EQ(config.gossip_interval_ms, 50);
}

TEST(ReplayConfigFromEnvTest, GarbageKnobsFailLoudly) {
  EnvGuard guard;
  ::setenv("RETRACE_REPLAY_TRANSPORT", "carrier-pigeon", 1);
  EXPECT_EXIT(ReplayConfig::FromEnv(), testing::ExitedWithCode(2), "RETRACE_REPLAY_TRANSPORT");
}

// ----- Pipeline misuse hardening -----

constexpr const char* kDecoyCrash = R"(
int main(int argc, char **argv) {
  if (argv[1][0] == 'x') { crash(99); }
  if (argv[1][1] == 'k') {
    if (argv[2][0] > '5') { crash(13); }
  }
  return 0;
}
)";

InputSpec DecoyCrashInput() {
  InputSpec spec;
  spec.argv = {"prog", "zk", "7"};
  spec.world.listen_fd = -1;
  return spec;
}

TEST(PipelineMisuseTest, ForeignPlanIsRejectedWithTypedError) {
  auto pipeline = MustBuild(kDecoyCrash);
  InstrumentationPlan foreign;
  foreign.branches = DenseBitset(999);  // Built for a different program.
  ASSERT_NE(pipeline->module().branches.size(), 999u);

  const auto user = pipeline->RecordUserRun(DecoyCrashInput(), foreign, {});
  ASSERT_FALSE(user.ok());
  EXPECT_NE(user.error().message.find("plan"), std::string::npos);
  EXPECT_NE(user.error().message.find("different program"), std::string::npos);

  BugReport report;
  EXPECT_FALSE(pipeline->Reproduce(report, foreign, ReplayConfig{}).ok());
  EXPECT_FALSE(pipeline->ReproduceAdaptive(report, foreign, {}).ok());
}

TEST(PlanInputsTest, ForMethodChecksRequiredResultsAtConstruction) {
  EXPECT_DEATH(PlanInputs::ForMethod(InstrumentMethod::kDynamic, nullptr, nullptr),
               "dynamic analysis result");
  StaticAnalysisResult stat;
  EXPECT_DEATH(PlanInputs::ForMethod(InstrumentMethod::kDynamicStatic, nullptr, &stat),
               "dynamic analysis result");
  EXPECT_DEATH(PlanInputs::ForMethod(InstrumentMethod::kStatic, nullptr, nullptr),
               "static analysis result");
}

// ----- The adaptive loop end-to-end -----

TEST(AdaptiveTest, ReproducingRoundZeroStopsImmediately) {
  auto pipeline = MustBuild(kDecoyCrash);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DecoyCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  Pipeline::AdaptiveConfig config;
  config.user_spec = DecoyCrashInput();
  config.replay.max_runs = 2000;
  config.max_rounds = 3;
  const auto adaptive = pipeline->ReproduceAdaptive(user.report, plan, config);
  ASSERT_TRUE(adaptive.ok());
  EXPECT_TRUE(adaptive.value().reproduced);
  ASSERT_EQ(adaptive.value().rounds.size(), 1u);
  EXPECT_TRUE(adaptive.value().rounds[0].reproduced);
  EXPECT_EQ(adaptive.value().final_plan.detail_level, 0u);
}

TEST(AdaptiveTest, ConvergesHonestlyWhenTelemetryHasNoDeaths) {
  auto pipeline = MustBuild(kDecoyCrash);
  InstrumentationPlan blind;
  blind.method = InstrumentMethod::kDynamic;
  blind.branches = DenseBitset(pipeline->module().branches.size());
  const auto user = pipeline->RecordUserRun(DecoyCrashInput(), blind, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  Pipeline::AdaptiveConfig config;
  config.user_spec = DecoyCrashInput();
  config.replay.max_runs = 1;  // Only the log-following run: no flips, no deaths.
  config.max_rounds = 4;
  const auto adaptive = pipeline->ReproduceAdaptive(user.report, blind, config);
  ASSERT_TRUE(adaptive.ok());
  const Pipeline::AdaptiveResult& result = adaptive.value();
  EXPECT_FALSE(result.reproduced);
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.rounds.size(), 1u);
  EXPECT_EQ(result.rounds[0].added_branches, 0u);
  EXPECT_EQ(result.final_plan.detail_level, 0u);
}

// The paper's story in miniature: a blind search wastes its budget
// flipping into a decoy crash; telemetry pins the deaths on the decoy
// branch; refinement logs it; the re-recorded log steers the next round
// around the decoy and the bug reproduces.
TEST(AdaptiveTest, RefinementUnblocksSearchBlockedByDecoyCrash) {
  auto pipeline = MustBuild(kDecoyCrash);
  InstrumentationPlan blind;
  blind.method = InstrumentMethod::kDynamic;
  blind.branches = DenseBitset(pipeline->module().branches.size());
  const auto user = pipeline->RecordUserRun(DecoyCrashInput(), blind, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  Pipeline::AdaptiveConfig config;
  config.user_spec = DecoyCrashInput();
  config.replay.max_runs = 2;  // Enough to die on the decoy, not to recover.
  config.replay.pick = ReplayConfig::Pick::kFifo;  // Oldest pending first.
  config.max_rounds = 3;
  const auto adaptive = pipeline->ReproduceAdaptive(user.report, blind, config);
  ASSERT_TRUE(adaptive.ok());
  const Pipeline::AdaptiveResult& result = adaptive.value();

  ASSERT_GE(result.rounds.size(), 2u);
  EXPECT_FALSE(result.rounds[0].reproduced);
  EXPECT_GE(result.rounds[0].added_branches, 1u);
  EXPECT_GE(result.final_plan.detail_level, 1u);
  EXPECT_NE(result.final_plan.provenance.find("+refine#1("), std::string::npos);
  EXPECT_GT(result.final_plan.NumInstrumented(), 0u);
  EXPECT_TRUE(result.reproduced) << "refined plan should dodge the decoy";
  EXPECT_TRUE(result.rounds.back().reproduced);
  // The refined rounds search under a strictly richer plan.
  EXPECT_GT(result.rounds.back().plan_branches, result.rounds[0].plan_branches);
}

TEST(AdaptiveTest, OverheadCeilingDropsAdditionsAndIsReported) {
  auto pipeline = MustBuild(kDecoyCrash);
  InstrumentationPlan blind;
  blind.method = InstrumentMethod::kDynamic;
  blind.branches = DenseBitset(pipeline->module().branches.size());
  const auto user = pipeline->RecordUserRun(DecoyCrashInput(), blind, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  Pipeline::AdaptiveConfig config;
  config.user_spec = DecoyCrashInput();
  config.replay.max_runs = 2;
  config.replay.pick = ReplayConfig::Pick::kFifo;
  config.max_rounds = 3;
  config.overhead_reps = 1;
  // An unreachable ceiling (any instrumented exec models above 100%):
  // every addition is dropped and the loop converges without refining.
  config.refine.max_overhead_percent = 100.0;
  const auto adaptive = pipeline->ReproduceAdaptive(user.report, blind, config);
  ASSERT_TRUE(adaptive.ok());
  const Pipeline::AdaptiveResult& result = adaptive.value();
  EXPECT_FALSE(result.reproduced);
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.rounds.size(), 1u);
  EXPECT_GE(result.rounds[0].skipped_budget, 1u);
  EXPECT_EQ(result.rounds[0].added_branches, 0u);
  // The recorded prediction is for the accepted plan — with every
  // addition dropped, an uninstrumented run models exactly the native
  // baseline, which is what made it admissible under the ceiling.
  EXPECT_GT(result.rounds[0].predicted_overhead_percent, 0.0);
  EXPECT_LE(result.rounds[0].predicted_overhead_percent, 100.0);
  EXPECT_EQ(result.final_plan.detail_level, 0u);
}

}  // namespace
}  // namespace retrace
