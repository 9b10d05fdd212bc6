// Tables 3 and 4: uServer bug reproduction.
//
// Five input scenarios (different methods, lengths, headers), each ending
// in an externally delivered crash signal. Table 3 reports the time to
// reproduce under each configuration at low/high dynamic coverage; Table 4
// the number of symbolic branch locations (and executions) logged vs not
// logged — the paper's key correlation: once more than a dozen symbolic
// locations go unlogged, replay blows past the one-hour budget (inf).
// The `resumed` and `skipped` columns count the runs that started at a
// checkpoint instead of main, and the instructions they skipped;
// `at-branch` counts the resumed runs whose checkpoint sat just before a
// branch that published a pending rather than a read(), and `pre-flip`
// the instructions runs still executed before reaching their flipped or
// forced branch (the prefix the search already knew the outcome of);
// `inherited` counts the constraint slices solves took over from their
// parent solve's slice state instead of looking them up (delta solving).
//
// Paper highlights: all-branches/static always fastest (27s-175s);
// dynamic+static close behind; dynamic (lc) fails on 3 of 5 scenarios.
#include "bench/bench_util.h"

namespace retrace {
namespace {

struct ConfigRow {
  std::string name;
  InstrumentationPlan plan;
};

int Main() {
  PrintHeader("uServer bug reproduction time and symbolic-branch accounting",
              "Tables 3 and 4");
  auto pipeline = BuildWorkloadOrDie("userver");
  const AnalysisResult lc = pipeline->RunDynamicAnalysis(UserverExploreSpecLC(),
                                                         LowCoverageConfig());
  const AnalysisResult hc = pipeline->RunDynamicAnalysis(UserverExploreSpec(),
                                                         HighCoverageConfig());
  StaticAnalysisOptions opaque;
  opaque.analyze_library = false;
  const StaticAnalysisResult stat = pipeline->RunStaticAnalysis(opaque);

  std::vector<ConfigRow> configs;
  configs.push_back({"dynamic (lc)", pipeline->MakePlan(PlanInputs::Dynamic(lc))});
  configs.push_back({"dynamic (hc)", pipeline->MakePlan(PlanInputs::Dynamic(hc))});
  configs.push_back(
      {"dyn+static (lc)", pipeline->MakePlan(PlanInputs::DynamicStatic(lc, stat))});
  configs.push_back(
      {"dyn+static (hc)", pipeline->MakePlan(PlanInputs::DynamicStatic(hc, stat))});
  configs.push_back({"static", pipeline->MakePlan(PlanInputs::Static(stat))});
  configs.push_back(
      {"all branches", pipeline->MakePlan(PlanInputs::AllBranches())});

  std::printf("replay workers: %u (RETRACE_REPLAY_WORKERS; >1 engages the parallel\n"
              "scheduler — see bench_parallel_replay for the speedup sweep)\n\n",
              ReplayWorkers());
  std::printf("Paper Table 3 (LC/HC seconds; inf = exceeded 1h):\n");
  std::printf("  dynamic:        27/27  2877/79  inf/170  inf/287  inf/168\n");
  std::printf("  dynamic+static: 27/27  79/79    532/170  175/175  248/168\n");
  std::printf("  static:         27     79       170      175      168\n");
  std::printf("  all branches:   27     79       170      175      168\n\n");

  for (int experiment = 1; experiment <= 5; ++experiment) {
    const Scenario scenario = UserverScenario(experiment);
    std::printf("--- Experiment %d (%s) ---\n", experiment, scenario.name.c_str());
    std::printf("%-18s %-14s %-8s %-8s %-10s %-12s %-12s %-10s %-22s %-22s\n", "version",
                "replay", "runs", "resumed", "at-branch", "skipped", "pre-flip", "inherited",
                "sym logged loc/exec", "sym UNLOGGED loc/exec");
    for (const ConfigRow& config : configs) {
      Pipeline::UserRunOptions options;
      options.policy = scenario.policy.get();
      const auto user = pipeline->RecordUserRun(scenario.spec, config.plan, options).take();
      if (!user.result.Crashed()) {
        std::printf("%-18s user run did not crash!\n", config.name.c_str());
        continue;
      }
      const ReplayResult replay =
          pipeline->Reproduce(user.report, config.plan, DefaultReplayConfig()).take();
      char logged[64];
      char unlogged[64];
      std::snprintf(logged, sizeof(logged), "%llu / %llu",
                    static_cast<unsigned long long>(user.report.stats.symbolic_locations_logged),
                    static_cast<unsigned long long>(user.report.stats.symbolic_execs_logged));
      std::snprintf(unlogged, sizeof(unlogged), "%llu / %llu",
                    static_cast<unsigned long long>(
                        user.report.stats.symbolic_locations_unlogged),
                    static_cast<unsigned long long>(user.report.stats.symbolic_execs_unlogged));
      std::printf("%-18s %-14s %-8llu %-8llu %-10llu %-12llu %-12llu %-10llu %-22s %-22s\n",
                  config.name.c_str(), ReplayCell(replay).c_str(),
                  static_cast<unsigned long long>(replay.stats.runs),
                  static_cast<unsigned long long>(replay.stats.resumed_runs),
                  static_cast<unsigned long long>(replay.stats.resumed_at_branch),
                  static_cast<unsigned long long>(replay.stats.instrs_skipped),
                  static_cast<unsigned long long>(replay.stats.instrs_before_flip),
                  static_cast<unsigned long long>(replay.stats.slices_inherited), logged,
                  unlogged);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace retrace

int main() { return retrace::Main(); }
