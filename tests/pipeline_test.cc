#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/workloads/scenarios.h"
#include "src/workloads/workloads.h"

namespace retrace {
namespace {

std::unique_ptr<Pipeline> BuildWorkload(const std::string& name) {
  const WorkloadSources sources = GetWorkload(name);
  auto r = Pipeline::FromSources(sources.app, sources.libs);
  EXPECT_TRUE(r.ok()) << name << ": " << (r.ok() ? "" : r.error().ToString());
  return r.take();
}

TEST(WorkloadTest, AllWorkloadsCompile) {
  for (const char* name :
       {"listing1", "loop_micro", "mkdir", "mknod", "mkfifo", "paste", "diff", "userver"}) {
    auto pipeline = BuildWorkload(name);
    ASSERT_NE(pipeline, nullptr) << name;
    EXPECT_GT(pipeline->module().NumBranchLocations(), 0u) << name;
    EXPECT_GT(pipeline->module().NumAppBranchLocations(), 0u) << name;
  }
}

TEST(WorkloadTest, BenignCoreutilsRunsExitCleanly) {
  for (const char* tool : {"mkdir", "mknod", "mkfifo", "paste"}) {
    auto pipeline = BuildWorkload(tool);
    const Scenario scenario = CoreutilsBenignScenario(tool);
    InstrumentationPlan none;
    none.branches = DenseBitset(pipeline->module().branches.size());
    const auto user = pipeline->RecordUserRun(scenario.spec, none, {}).take();
    EXPECT_FALSE(user.result.Crashed()) << tool << ": " << user.result.crash.ToString();
    EXPECT_EQ(user.result.exit_code, 0) << tool << " stdout: " << user.stdout_text;
  }
}

TEST(WorkloadTest, BuggyCoreutilsCrashWhereExpected) {
  const struct {
    const char* tool;
    CrashSite::Kind kind;
  } kCases[] = {
      {"mkdir", CrashSite::Kind::kOutOfBounds},
      {"mknod", CrashSite::Kind::kOutOfBounds},
      {"mkfifo", CrashSite::Kind::kOutOfBounds},
      {"paste", CrashSite::Kind::kOutOfBounds},
  };
  for (const auto& test_case : kCases) {
    auto pipeline = BuildWorkload(test_case.tool);
    const Scenario scenario = CoreutilsBugScenario(test_case.tool);
    InstrumentationPlan none;
    none.branches = DenseBitset(pipeline->module().branches.size());
    const auto user = pipeline->RecordUserRun(scenario.spec, none, {}).take();
    ASSERT_TRUE(user.result.Crashed()) << test_case.tool;
    EXPECT_EQ(user.result.crash.kind, test_case.kind) << test_case.tool;
  }
}

TEST(WorkloadTest, PasteBenignOutput) {
  auto pipeline = BuildWorkload("paste");
  InputSpec spec;
  spec.argv = {"paste", "-d", ",", "aa", "bb", "cc"};
  spec.world.listen_fd = -1;
  InstrumentationPlan none;
  none.branches = DenseBitset(pipeline->module().branches.size());
  const auto user = pipeline->RecordUserRun(spec, none, {}).take();
  EXPECT_EQ(user.stdout_text, "aa,bb,cc\n");
}

TEST(WorkloadTest, DiffBenignFindsHunks) {
  auto pipeline = BuildWorkload("diff");
  const Scenario scenario = DiffBenignScenario();
  InstrumentationPlan none;
  none.branches = DenseBitset(pipeline->module().branches.size());
  const auto user = pipeline->RecordUserRun(scenario.spec, none, {}).take();
  ASSERT_FALSE(user.result.Crashed()) << user.result.crash.ToString();
  EXPECT_NE(user.stdout_text.find("hunks: 3"), std::string::npos) << user.stdout_text;
  EXPECT_NE(user.stdout_text.find("< two\n"), std::string::npos);
  EXPECT_NE(user.stdout_text.find("> two2\n"), std::string::npos);
}

TEST(WorkloadTest, DiffExperimentsCrashInHunkTable) {
  for (int experiment = 1; experiment <= 2; ++experiment) {
    auto pipeline = BuildWorkload("diff");
    const Scenario scenario = DiffScenario(experiment);
    InstrumentationPlan none;
    none.branches = DenseBitset(pipeline->module().branches.size());
    const auto user = pipeline->RecordUserRun(scenario.spec, none, {}).take();
    ASSERT_TRUE(user.result.Crashed()) << "exp" << experiment;
    EXPECT_EQ(user.result.crash.kind, CrashSite::Kind::kOutOfBounds);
  }
}

TEST(WorkloadTest, UserverServesRequests) {
  auto pipeline = BuildWorkload("userver");
  const InputSpec spec = UserverLoadSpec(6);
  InstrumentationPlan none;
  none.branches = DenseBitset(pipeline->module().branches.size());
  const auto user = pipeline->RecordUserRun(spec, none, {}).take();
  EXPECT_FALSE(user.result.Crashed()) << user.result.crash.ToString();
  EXPECT_EQ(user.result.exit_code, 0);
}

TEST(WorkloadTest, UserverRespondsToEachMethod) {
  auto pipeline = BuildWorkload("userver");
  for (int experiment = 1; experiment <= 5; ++experiment) {
    const Scenario scenario = UserverScenario(experiment);
    InstrumentationPlan none;
    none.branches = DenseBitset(pipeline->module().branches.size());
    Pipeline::UserRunOptions options;
    options.policy = scenario.policy.get();
    const auto user = pipeline->RecordUserRun(scenario.spec, none, options).take();
    // The signal arrives after the requests: the run must end at crash(7).
    ASSERT_TRUE(user.result.Crashed()) << scenario.name;
    EXPECT_EQ(user.result.crash.kind, CrashSite::Kind::kExplicit) << scenario.name;
    EXPECT_EQ(user.result.crash.code, 7) << scenario.name;
  }
}

TEST(PipelineTest, CoreutilsEndToEndAllMethods) {
  // The paper's Table 1: all four instrumented configurations reproduce
  // the coreutils bugs quickly.
  for (const char* tool : {"mkdir", "mknod", "mkfifo", "paste"}) {
    auto pipeline = BuildWorkload(tool);
    const Scenario benign = CoreutilsBenignScenario(tool);
    AnalysisConfig dyn_config;
    dyn_config.max_runs = 24;
    const AnalysisResult dyn = pipeline->RunDynamicAnalysis(benign.spec, dyn_config);
    const StaticAnalysisResult stat = pipeline->RunStaticAnalysis({});

    const Scenario bug = CoreutilsBugScenario(tool);
    for (const InstrumentMethod method :
         {InstrumentMethod::kDynamic, InstrumentMethod::kStatic,
          InstrumentMethod::kDynamicStatic, InstrumentMethod::kAllBranches}) {
      const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::ForMethod(method, &dyn, &stat));
      const auto user = pipeline->RecordUserRun(bug.spec, plan, {}).take();
      ASSERT_TRUE(user.result.Crashed()) << tool << "/" << InstrumentMethodName(method);
      ReplayConfig replay_config;
      replay_config.max_runs = 3000;
      const ReplayResult replay = pipeline->Reproduce(user.report, plan, replay_config).take();
      EXPECT_TRUE(replay.reproduced) << tool << "/" << InstrumentMethodName(method)
                                     << " runs=" << replay.stats.runs;
      if (replay.reproduced) {
        EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
      }
    }
  }
}

TEST(PipelineTest, UserverExperimentOneCombined) {
  auto pipeline = BuildWorkload("userver");
  AnalysisConfig dyn_config;
  dyn_config.max_runs = 16;
  const AnalysisResult dyn = pipeline->RunDynamicAnalysis(UserverExploreSpec(), dyn_config);
  StaticAnalysisOptions stat_options;
  stat_options.analyze_library = false;  // The paper's uServer setup.
  const StaticAnalysisResult stat = pipeline->RunStaticAnalysis(stat_options);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::DynamicStatic(dyn, stat));

  const Scenario scenario = UserverScenario(1);
  Pipeline::UserRunOptions options;
  options.policy = scenario.policy.get();
  const auto user = pipeline->RecordUserRun(scenario.spec, plan, options).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig replay_config;
  replay_config.max_runs = 4000;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, replay_config).take();
  EXPECT_TRUE(replay.reproduced) << "runs=" << replay.stats.runs;
}

// The repository's sentinels: under the dynamic low-coverage plan
// (4 analysis runs, seed 17), uServer exps 1, 3 and 4 reproduce at one
// worker and replay seed 31 in exactly 863, 7027 and 2810 runs. Any
// change to shadow execution, the frontier or the solver that alters a
// search moves one of these counts.
TEST(PipelineTest, UserverLcSentinelRunCounts) {
  auto pipeline = BuildWorkload("userver");
  AnalysisConfig analysis;
  analysis.max_runs = 4;
  analysis.seed = 17;
  const AnalysisResult lc = pipeline->RunDynamicAnalysis(UserverExploreSpecLC(), analysis);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::Dynamic(lc));

  const struct {
    int experiment;
    u64 runs;
  } kSentinels[] = {{1, 863}, {3, 7027}, {4, 2810}};
  for (const auto& sentinel : kSentinels) {
    const Scenario scenario = UserverScenario(sentinel.experiment);
    Pipeline::UserRunOptions options;
    options.policy = scenario.policy.get();
    const auto user = pipeline->RecordUserRun(scenario.spec, plan, options).take();
    ASSERT_TRUE(user.result.Crashed()) << scenario.name;

    ReplayConfig config;
    config.max_runs = 20'000;
    config.seed = 31;
    config.num_workers = 1;
    const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
    EXPECT_TRUE(replay.reproduced) << scenario.name;
    EXPECT_EQ(replay.stats.runs, sentinel.runs) << scenario.name;
  }
}

TEST(PipelineTest, OverheadOrderingOnCoreutils) {
  // Figure 2's qualitative claim: all-branches is the most expensive
  // configuration; the analysis-guided plans instrument fewer executions.
  auto pipeline = BuildWorkload("mkdir");
  const Scenario benign = CoreutilsBenignScenario("mkdir");
  AnalysisConfig dyn_config;
  dyn_config.max_runs = 16;
  const AnalysisResult dyn = pipeline->RunDynamicAnalysis(benign.spec, dyn_config);
  const StaticAnalysisResult stat = pipeline->RunStaticAnalysis({});

  const auto all = pipeline->MakePlan(PlanInputs::AllBranches());
  const auto dyn_plan = pipeline->MakePlan(PlanInputs::Dynamic(dyn));
  const auto combo = pipeline->MakePlan(PlanInputs::DynamicStatic(dyn, stat));

  const auto all_sample = pipeline->MeasureOverhead(benign.spec, all, nullptr, 1);
  const auto dyn_sample = pipeline->MeasureOverhead(benign.spec, dyn_plan, nullptr, 1);
  const auto combo_sample = pipeline->MeasureOverhead(benign.spec, combo, nullptr, 1);

  EXPECT_GT(all_sample.instrumented_execs, dyn_sample.instrumented_execs);
  EXPECT_GE(all_sample.instrumented_execs, combo_sample.instrumented_execs);
  EXPECT_GT(all_sample.log_bytes, 0u);
}

TEST(PipelineTest, ReportStripsPrivateData) {
  auto pipeline = BuildWorkload("mkdir");
  const Scenario bug = CoreutilsBugScenario("mkdir");
  const auto plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(bug.spec, plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());
  // Shape preserved, contents gone.
  ASSERT_EQ(user.report.shape.argv.size(), bug.spec.argv.size());
  for (size_t i = 1; i < bug.spec.argv.size(); ++i) {
    EXPECT_EQ(user.report.shape.argv[i].size(), bug.spec.argv[i].size());
    EXPECT_NE(user.report.shape.argv[i], bug.spec.argv[i]);
  }
}

TEST(PipelineTest, SymbolicSplitStatsPopulated) {
  auto pipeline = BuildWorkload("mkdir");
  const Scenario bug = CoreutilsBugScenario("mkdir");
  const auto plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(bug.spec, plan, {}).take();
  // Under all-branches every symbolic execution is logged.
  EXPECT_GT(user.report.stats.symbolic_execs_logged, 0u);
  EXPECT_EQ(user.report.stats.symbolic_execs_unlogged, 0u);
  EXPECT_EQ(user.report.stats.symbolic_locations_unlogged, 0u);
}

}  // namespace
}  // namespace retrace
