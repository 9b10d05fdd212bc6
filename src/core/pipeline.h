// Public entry point: the full bug-reporting pipeline.
//
// Usage mirrors the paper's deployment model:
//
//   auto pipeline = Pipeline::FromSources(app_src, {libmini_src}).take();
//   // 1. Pre-deployment analyses (developer, before shipping).
//   AnalysisResult dyn = pipeline->RunDynamicAnalysis(spec, dyn_cfg);
//   StaticAnalysisResult stat = pipeline->RunStaticAnalysis({...});
//   InstrumentationPlan plan =
//       pipeline->MakePlan(PlanInputs::DynamicStatic(dyn, stat));
//   // 2. User site: instrumented run; crash produces a bug report.
//   UserRunOutput user = pipeline->RecordUserRun(spec, plan, {...}).take();
//   // 3. Developer site: reproduce from the report alone.
//   ReplayResult repro =
//       pipeline->Reproduce(user.report, plan, replay_cfg).take();
//   // 4. Verify the witness input actually triggers the same crash.
//   bool ok = pipeline->VerifyWitness(user.report, repro.witness_cells);
//
// RecordUserRun and Reproduce return Result<...>: a plan whose bitset
// does not match this module's branch count is rejected with a typed
// error instead of silently truncating the log. When the static plan
// leaves the search blind (exp 5), ReproduceAdaptive closes the paper's
// own loop: search -> mine failure telemetry -> refine the plan ->
// re-record -> re-search, round by round, under an overhead budget.
#ifndef RETRACE_CORE_PIPELINE_H_
#define RETRACE_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/static_analyzer.h"
#include "src/concolic/engine.h"
#include "src/core/report.h"
#include "src/instrument/plan.h"
#include "src/instrument/recorder.h"
#include "src/instrument/refine.h"
#include "src/ir/ir.h"
#include "src/lang/sema.h"
#include "src/replay/replay_engine.h"
#include "src/service/service.h"

namespace retrace {

class Pipeline {
 public:
  // Compiles the program. Library sources are tagged so branch accounting
  // and the static analyzer's library-opaque mode can distinguish them.
  static Result<std::unique_ptr<Pipeline>> FromSources(
      std::string_view app_source, const std::vector<std::string>& library_sources = {});

  const IrModule& module() const { return *module_; }
  const SemaProgram& program() const { return *program_; }

  // ----- Phase 1: pre-deployment analyses -----
  AnalysisResult RunDynamicAnalysis(const InputSpec& spec, const AnalysisConfig& config);
  StaticAnalysisResult RunStaticAnalysis(const StaticAnalysisOptions& options);
  // Builds a plan from PlanInputs (src/instrument/plan.h): the factories
  // demand exactly the analysis results each method consumes, so passing
  // no dynamic result to a dynamic plan is a compile error.
  InstrumentationPlan MakePlan(const PlanInputs& inputs,
                               const PlanOptions& options = PlanOptions{});
  // Single profiled run for the branch-behavior figures (Fig. 1 / Fig. 3).
  AnalysisResult ProfileBranchBehavior(const InputSpec& spec, NondetPolicy* policy = nullptr);

  // ----- Phase 2: user site -----
  struct UserRunOptions {
    bool log_syscalls = true;
    NondetPolicy* policy = nullptr;
    u64 max_steps = 400'000'000;
  };
  struct UserRunOutput {
    RunResult result;
    BugReport report;  // Meaningful when result.Crashed().
    std::string stdout_text;
  };
  // Errors when plan.branches.size() != module().branches.size() (a plan
  // built for a different program would silently mis-log every branch).
  Result<UserRunOutput> RecordUserRun(const InputSpec& spec, const InstrumentationPlan& plan,
                                      const UserRunOptions& options);

  // Wall-clock overhead measurement: runs the program `reps` times without
  // instrumentation and `reps` times with the plan's recorder, reporting
  // the best (least noisy) times plus the recorder's work counters.
  struct OverheadSample {
    double plain_seconds = 0.0;
    double instrumented_seconds = 0.0;
    u64 instrumented_execs = 0;
    u64 branch_execs = 0;
    u64 log_bytes = 0;
    u64 syscall_log_bytes = 0;
    double OverheadPercent() const {
      return plain_seconds <= 0 ? 0.0
                                : (instrumented_seconds / plain_seconds - 1.0) * 100.0;
    }
  };
  OverheadSample MeasureOverhead(const InputSpec& spec, const InstrumentationPlan& plan,
                                 NondetPolicy* policy, int reps, bool log_syscalls = true);

  // ----- Phase 3: developer site -----
  // `config.num_workers` > 1 runs the parallel replay scheduler (use
  // DefaultReplayWorkers() to saturate the host); `config.num_shards` > 1
  // additionally forks shard processes (call from a single-threaded
  // context — see src/dist/coordinator.h). Errors on a plan/module
  // branch-count mismatch, like RecordUserRun.
  Result<ReplayResult> Reproduce(const BugReport& report, const InstrumentationPlan& plan,
                                 const ReplayConfig& config);

  // ----- Adaptive planning: the paper's balance, closed-loop -----
  struct AdaptiveConfig {
    // The real user input. BugReport::shape is privacy-stripped, so
    // re-recording with a refined plan needs the original spec (the
    // "user site" of each round).
    InputSpec user_spec;
    UserRunOptions user_run;
    // Per-round search configuration, budget fields included — every
    // round spends up to this much.
    ReplayConfig replay;
    RefineConfig refine;
    // Refinement rounds after the initial search (>= 1).
    u32 max_rounds = 4;
    // Reps for the per-round MeasureOverhead budget check; 0 skips the
    // measurement (refine.max_overhead_percent is then not enforced).
    int overhead_reps = 0;
    // Corpus mutation (src/concolic/corpus_mutate.h): base models —
    // typically AnalysisResult::corpus — fuzzed into
    // ReplayConfig::corpus_seeds for every round's search. Zero
    // mutants_per_seed passes `corpus` through unmutated.
    std::vector<std::vector<i64>> corpus;
    u32 corpus_mutants_per_seed = 0;
    size_t corpus_max_total = 256;
    u64 mutation_seed = 7;
  };
  // One round of the adaptive loop, as reported in AdaptiveResult: the
  // search under this round's plan, then the refinement chosen from its
  // telemetry (zero added_branches on the final/converged round).
  struct AdaptiveRound {
    u32 round = 0;
    u64 runs = 0;
    double on_log_rate = 0.0;  // aborts_forced_direction / runs.
    bool reproduced = false;
    u32 plan_branches = 0;     // Instrumented locations searched this round.
    u32 added_branches = 0;
    u32 candidates = 0;
    u32 skipped_irrelevant = 0;
    u32 skipped_budget = 0;    // Additions dropped by the overhead ceiling.
    // Modeled native CPU % of the refined plan (100 = uninstrumented);
    // 0 when the budget check did not run this round.
    double predicted_overhead_percent = 0.0;
    u64 log_bytes = 0;         // Branch-log bytes of the report searched this round.
    double wall_seconds = 0.0;
  };
  struct AdaptiveResult {
    bool reproduced = false;
    // Refinement added nothing (no candidates survived the filters), so
    // the loop stopped before max_rounds.
    bool converged = false;
    ReplayResult final_result;        // Last round's search result.
    InstrumentationPlan final_plan;   // The machine-chosen plan.
    std::vector<AdaptiveRound> rounds;
  };
  // Drives search -> mine -> refine -> re-record -> re-search rounds
  // until the bug reproduces, refinement converges, or max_rounds is
  // spent. Telemetry-driven: each round's added branches come from the
  // previous search's ReplayFailureProfile, filtered by log-irrelevance
  // learning and the overhead budget. Errors on a plan/module mismatch
  // or when `user_spec` stops reproducing the crash at the user site.
  Result<AdaptiveResult> ReproduceAdaptive(const BugReport& report,
                                           const InstrumentationPlan& plan,
                                           const AdaptiveConfig& config);

  // ----- Replay-as-a-service: resident, multi-tenant -----
  // Builds a ReplayService bound to this pipeline's module: incoming
  // reports cluster by crash fingerprint, one search runs per cluster
  // (on a standing shard fleet when config.replay.num_shards > 1), and
  // duplicates get the cached verdict; every fresh witness is re-run
  // (VerifyWitness) before it is published. Fills config.replay.program
  // from this pipeline's sources, like Reproduce does for TCP shards.
  // The caller still drives the lifecycle: Start() the returned service
  // before submitting (from a single-threaded context when it has a
  // fleet — it forks). Errors on a plan/module branch-count mismatch.
  Result<std::unique_ptr<ReplayService>> MakeService(const InstrumentationPlan& plan,
                                                     ServiceConfig config);

  // Replay worker count that saturates this host; the resolution applied
  // to ReplayConfig::num_workers == 0.
  static u32 DefaultReplayWorkers() { return retrace::DefaultReplayWorkers(); }

  // Runs the witness input concretely and checks it crashes at the
  // reported site.
  bool VerifyWitness(const BugReport& report, const std::vector<i64>& witness_cells);

 private:
  Pipeline() = default;

  // The misuse guard behind RecordUserRun/Reproduce/ReproduceAdaptive.
  Error PlanMismatch(const InstrumentationPlan& plan) const;
  bool PlanMatches(const InstrumentationPlan& plan) const {
    return plan.branches.size() == module_->branches.size();
  }

  std::unique_ptr<SemaProgram> program_;
  std::unique_ptr<IrModule> module_;
  // Sources this pipeline was compiled from; shipped to TCP replay
  // shards (ReplayTransport::kTcp) so remote hosts can rebuild the
  // module deterministically.
  std::string app_source_;
  std::vector<std::string> lib_sources_;
  ExprArena arena_;
};

}  // namespace retrace

#endif  // RETRACE_CORE_PIPELINE_H_
