// Adaptive instrumentation planning: the closed loop the paper stops
// short of (§7 "repeat the process with more instrumentation") on the
// experiment that defeats every static low-coverage plan.
//
// Workload: uServer experiment 5 under the *dynamic (lc)* plan — Table 3
// reports inf and the on-log rate pins the cause: the request parser is
// unlogged, so ~1% of replay runs stay on the user's path and the rest
// die off-log. This bench runs Pipeline::ReproduceAdaptive: search under
// the current plan, mine the failure telemetry for the branches where
// off-log runs die, add the deadliest (skipping log-irrelevant ones; the
// bench sets no overhead budget), re-record the user run under the
// refined plan, and search again. Each round prints the paper-facing
// trade: how much instrumentation was added vs how much closer replay
// got (on-log rate, runs, reproduction).
//
// The closing frontier table is the balance the title of the paper asks
// for: each static plan's modeled native CPU cost next to its exp-5
// replay time, with the machine-chosen adaptive plan as the new point.
#include <cinttypes>

#include "bench/bench_util.h"
#include "src/concolic/corpus_mutate.h"

namespace retrace {
namespace {

// Refinement rounds (each round = one replay search + one re-record).
u32 AdaptiveRounds() {
  return static_cast<u32>(EnvKnobI64("RETRACE_ADAPTIVE_ROUNDS", 4, 1, 64));
}

int Main() {
  PrintHeader("Adaptive plan refinement on the stuck experiment (uServer e5)",
              "§7's instrumentation-debugging balance, closed-loop");

  const u32 rounds = AdaptiveRounds();
  const u32 corpus_mutants = ReplayCorpusMutants();

  auto pipeline = BuildWorkloadOrDie("userver");
  const AnalysisResult lc =
      pipeline->RunDynamicAnalysis(UserverExploreSpecLC(), LowCoverageConfig());
  StaticAnalysisOptions opaque;
  opaque.analyze_library = false;
  const StaticAnalysisResult stat = pipeline->RunStaticAnalysis(opaque);
  const InstrumentationPlan lc_plan = pipeline->MakePlan(PlanInputs::Dynamic(lc));

  const Scenario scenario = UserverScenario(5);
  std::printf("scenario: %s\n", scenario.name.c_str());
  std::printf("rounds: %u (RETRACE_ADAPTIVE_ROUNDS), max added/round: %u, overhead budget: off\n",
              rounds, RefineConfig{}.max_added_branches);
  std::printf("corpus mutation: %u mutants/seed (RETRACE_REPLAY_CORPUS_MUTATE)\n",
              corpus_mutants);
  std::printf("replay budget per round: %s\n\n", "DefaultReplayConfig (RETRACE_BENCH_CAP_MS)");

  Pipeline::AdaptiveConfig config;
  config.user_spec = scenario.spec;
  config.user_run.policy = scenario.policy.get();
  config.replay = DefaultReplayConfig();
  config.max_rounds = rounds;
  if (ReplayCorpusEnabled()) {
    config.corpus = lc.corpus;
    config.corpus_mutants_per_seed = corpus_mutants;
  }

  const auto adaptive = pipeline->ReproduceAdaptive(
      pipeline->RecordUserRun(scenario.spec, lc_plan, config.user_run).take().report,
      lc_plan, config);
  if (!adaptive.ok()) {
    std::printf("adaptive loop failed: %s\n", adaptive.error().ToString().c_str());
    return 1;
  }
  const Pipeline::AdaptiveResult& result = adaptive.value();

  std::printf("%-6s %-10s %-10s %-10s %-10s %-10s %-10s %-10s %-10s %-10s %s\n", "round",
              "plan_bits", "added", "cands", "skip_irr", "skip_bud", "pred_cpu%", "runs",
              "on_log%", "log_KB", "result");
  for (const Pipeline::AdaptiveRound& round : result.rounds) {
    std::printf("%-6u %-10u %-10u %-10u %-10u %-10u %-10.1f %-10" PRIu64
                " %-10.2f %-10.1f %s\n",
                round.round, round.plan_branches, round.added_branches, round.candidates,
                round.skipped_irrelevant, round.skipped_budget,
                round.predicted_overhead_percent, round.runs, 100.0 * round.on_log_rate,
                static_cast<double>(round.log_bytes) / 1024.0,
                round.reproduced ? "REPRODUCED"
                                 : (round.added_branches > 0 ? "refined" : "converged"));
  }
  std::printf("\nadaptive outcome: %s after %zu round(s); final plan %zu branches "
              "(detail level %u)\n",
              result.reproduced ? "reproduced" : (result.converged ? "converged without "
                                                                    "reproducing"
                                                                  : "budget exhausted"),
              result.rounds.size(), result.final_plan.NumInstrumented(),
              result.final_plan.detail_level);
  std::printf("provenance: %s\n", result.final_plan.provenance.c_str());

  // ----- The overhead-vs-debug-time frontier, adaptive point included -----
  std::printf("\n--- frontier: modeled native CPU vs exp-5 replay time ---\n");
  struct Point {
    const char* name;
    InstrumentationPlan plan;
  };
  std::vector<Point> points;
  points.push_back({"dynamic (lc)", lc_plan});
  points.push_back({"dyn+static (lc)",
                    pipeline->MakePlan(PlanInputs::DynamicStatic(lc, stat))});
  points.push_back({"static", pipeline->MakePlan(PlanInputs::Static(stat))});
  points.push_back({"all branches", pipeline->MakePlan(PlanInputs::AllBranches())});
  points.push_back({"adaptive (final)", result.final_plan});

  const int requests = 50 * BenchScale();
  const InputSpec load = UserverLoadSpec(requests);
  std::printf("%-18s %-10s %-12s %-12s %-10s %s\n", "plan", "bits", "native_cpu%",
              "bytes/req", "runs", "replay");
  for (const Point& point : points) {
    const auto sample = pipeline->MeasureOverhead(load, point.plan, nullptr, 1);
    const auto user =
        pipeline->RecordUserRun(scenario.spec, point.plan, config.user_run).take();
    if (!user.result.Crashed()) {
      std::printf("%-18s user run did not crash!\n", point.name);
      continue;
    }
    const ReplayResult replay =
        pipeline->Reproduce(user.report, point.plan, DefaultReplayConfig()).take();
    std::printf("%-18s %-10zu %-12.1f %-12.1f %-10" PRIu64 " %s\n", point.name,
                point.plan.NumInstrumented(), ModeledNativeCpuPercent(sample),
                static_cast<double>(sample.log_bytes) / requests, replay.stats.runs,
                ReplayCell(replay).c_str());
  }
  std::printf("\nThe adaptive row is the machine-chosen balance: it pays overhead only\n"
              "at branches replay demonstrably died on, instead of everywhere the\n"
              "static analyses point.\n");
  return 0;
}

}  // namespace
}  // namespace retrace

int main() { return retrace::Main(); }
