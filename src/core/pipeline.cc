#include "src/core/pipeline.h"

#include <chrono>
#include <cstdio>

#include "src/analysis/log_irrelevance.h"
#include "src/analysis/points_to.h"
#include "src/concolic/corpus_mutate.h"
#include "src/ir/lowering.h"
#include "src/lang/parser.h"

namespace retrace {

Result<std::unique_ptr<Pipeline>> Pipeline::FromSources(
    std::string_view app_source, const std::vector<std::string>& library_sources) {
  std::vector<std::unique_ptr<Unit>> units;
  int unit_index = 0;
  for (const std::string& lib : library_sources) {
    Result<std::unique_ptr<Unit>> unit = Parse(lib, unit_index++, /*is_library=*/true);
    if (!unit.ok()) {
      return unit.error();
    }
    units.push_back(unit.take());
  }
  Result<std::unique_ptr<Unit>> app = Parse(app_source, unit_index++, /*is_library=*/false);
  if (!app.ok()) {
    return app.error();
  }
  units.push_back(app.take());

  Result<std::unique_ptr<SemaProgram>> program = Analyze(std::move(units));
  if (!program.ok()) {
    return program.error();
  }
  Result<std::unique_ptr<IrModule>> module = Lower(*program.value());
  if (!module.ok()) {
    return module.error();
  }

  auto pipeline = std::unique_ptr<Pipeline>(new Pipeline());
  pipeline->program_ = program.take();
  pipeline->module_ = module.take();
  // Retained so Reproduce can ship the program to TCP replay shards on
  // other hosts (lowering is deterministic — a rebuilt module has the
  // same branch ids as this one).
  pipeline->app_source_ = std::string(app_source);
  pipeline->lib_sources_ = library_sources;
  return pipeline;
}

AnalysisResult Pipeline::RunDynamicAnalysis(const InputSpec& spec, const AnalysisConfig& config) {
  ConcolicEngine engine(*module_, &arena_);
  return engine.Analyze(spec, config);
}

StaticAnalysisResult Pipeline::RunStaticAnalysis(const StaticAnalysisOptions& options) {
  StaticAnalyzer analyzer(*module_, options);
  return analyzer.Run();
}

InstrumentationPlan Pipeline::MakePlan(const PlanInputs& inputs, const PlanOptions& options) {
  return BuildPlan(*module_, inputs, options);
}

Error Pipeline::PlanMismatch(const InstrumentationPlan& plan) const {
  char message[160];
  std::snprintf(message, sizeof(message),
                "instrumentation plan covers %zu branches but this module has %zu; "
                "the plan was built for a different program",
                plan.branches.size(), module_->branches.size());
  return Error{message, {}};
}

AnalysisResult Pipeline::ProfileBranchBehavior(const InputSpec& spec, NondetPolicy* policy) {
  ConcolicEngine engine(*module_, &arena_);
  return engine.ProfileRun(spec, policy);
}

namespace {

// Counts symbolic branch executions/locations, split by plan membership
// (Tables 4, 7 and 8). Requires a shadow run.
class SymbolicSplitObserver : public BranchObserver {
 public:
  SymbolicSplitObserver(const InstrumentationPlan& plan, size_t num_branches)
      : plan_(plan), symbolic_seen_(num_branches, 0) {}

  Action OnBranch(i32 branch_id, bool /*taken*/, ExprRef cond_shadow) override {
    if (cond_shadow == kNoExpr) {
      return Action::kContinue;
    }
    symbolic_seen_[branch_id] += 1;
    return Action::kContinue;
  }

  void FillStats(UserSiteStats* stats) const {
    for (size_t id = 0; id < symbolic_seen_.size(); ++id) {
      if (symbolic_seen_[id] == 0) {
        continue;
      }
      if (plan_.Instrumented(static_cast<i32>(id))) {
        ++stats->symbolic_locations_logged;
        stats->symbolic_execs_logged += symbolic_seen_[id];
      } else {
        ++stats->symbolic_locations_unlogged;
        stats->symbolic_execs_unlogged += symbolic_seen_[id];
      }
    }
  }

 private:
  const InstrumentationPlan& plan_;
  std::vector<u64> symbolic_seen_;
};

}  // namespace

Result<Pipeline::UserRunOutput> Pipeline::RecordUserRun(const InputSpec& spec,
                                                        const InstrumentationPlan& plan,
                                                        const UserRunOptions& options) {
  if (!PlanMatches(plan)) {
    return PlanMismatch(plan);
  }
  UserRunOutput out;
  CellRunner runner(*module_, spec);

  // The real user-site run: concrete, instrumented, scripted environment.
  BranchTraceRecorder recorder(plan);
  CellRunConfig run_config;
  run_config.policy = options.policy;
  run_config.observers = {&recorder};
  run_config.symbolic_syscalls = false;
  run_config.max_steps = options.max_steps;
  CellRunOutput run = runner.Run(run_config);
  out.result = run.result;
  out.stdout_text = run.stdout_text;

  BugReport report;
  report.method = plan.method;
  report.branch_log = recorder.TakeLog();
  report.has_syscall_log = options.log_syscalls;
  if (options.log_syscalls) {
    report.syscall_log = SyscallLogFromTrace(run.dyn_trace);
  }
  report.crash = run.result.crash;
  report.shape = StripInput(spec);
  report.stats.branch_execs = run.result.stats.branch_execs;
  report.stats.log_bytes = report.branch_log.ByteSize();
  report.stats.syscall_log_bytes =
      options.log_syscalls ? SyscallLogBytes(report.syscall_log) : 0;
  report.stats.flushes = recorder.flushes();

  // Experimenter-side profiling run: same input and environment script, but
  // with shadow tracking, to attribute symbolic executions to logged /
  // unlogged locations. A production deployment would skip this.
  {
    SymbolicSplitObserver split(plan, module_->branches.size());
    InstrumentedExecCounter counter(plan);
    CellRunConfig profile_config;
    profile_config.policy = options.policy;
    profile_config.arena = &arena_;
    profile_config.observers = {&split, &counter};
    profile_config.max_steps = options.max_steps;
    runner.Run(profile_config);
    split.FillStats(&report.stats);
    report.stats.instrumented_execs = counter.count();
  }

  out.report = std::move(report);
  return out;
}

Pipeline::OverheadSample Pipeline::MeasureOverhead(const InputSpec& spec,
                                                   const InstrumentationPlan& plan,
                                                   NondetPolicy* policy, int reps,
                                                   bool log_syscalls) {
  OverheadSample sample;
  CellRunner runner(*module_, spec);

  auto timed_run = [&](bool instrumented) -> double {
    double best = 1e100;
    for (int r = 0; r < reps; ++r) {
      BranchTraceRecorder recorder(plan);
      CellRunConfig config;
      config.policy = policy;
      config.symbolic_syscalls = false;
      if (instrumented) {
        config.observers = {&recorder};
      }
      const auto t0 = std::chrono::steady_clock::now();
      CellRunOutput run = runner.Run(config);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      best = std::min(best, seconds);
      if (instrumented && r == 0) {
        sample.branch_execs = run.result.stats.branch_execs;
        sample.log_bytes = recorder.bytes_logged();
        if (log_syscalls) {
          sample.syscall_log_bytes = SyscallLogBytes(SyscallLogFromTrace(run.dyn_trace));
        }
      }
    }
    return best;
  };

  sample.plain_seconds = timed_run(/*instrumented=*/false);
  sample.instrumented_seconds = timed_run(/*instrumented=*/true);

  InstrumentedExecCounter counter(plan);
  CellRunConfig config;
  config.policy = policy;
  config.symbolic_syscalls = false;
  config.observers = {&counter};
  runner.Run(config);
  sample.instrumented_execs = counter.count();
  return sample;
}

Result<ReplayResult> Pipeline::Reproduce(const BugReport& report,
                                         const InstrumentationPlan& plan,
                                         const ReplayConfig& config) {
  if (!PlanMatches(plan)) {
    return PlanMismatch(plan);
  }
  ReplayEngine engine(*module_, plan, report);
  if (config.num_shards > 1 && config.program.app.empty()) {
    // TCP shards rebuild the module from source (UsesTcpShards): supply
    // what this pipeline was compiled from unless the caller did.
    ReplayConfig with_program = config;
    with_program.program.app = app_source_;
    with_program.program.libs = lib_sources_;
    return engine.Reproduce(with_program);
  }
  return engine.Reproduce(config);
}

Result<std::unique_ptr<ReplayService>> Pipeline::MakeService(const InstrumentationPlan& plan,
                                                             ServiceConfig config) {
  if (!PlanMatches(plan)) {
    return PlanMismatch(plan);
  }
  // A TCP fleet ships each job to whoever joined; those shards rebuild
  // the module from these sources. A fork fleet never ships them.
  config.replay.program.app = app_source_;
  config.replay.program.libs = lib_sources_;
  return std::make_unique<ReplayService>(*module_, plan, std::move(config));
}

Result<Pipeline::AdaptiveResult> Pipeline::ReproduceAdaptive(const BugReport& report,
                                                             const InstrumentationPlan& plan,
                                                             const AdaptiveConfig& config) {
  if (!PlanMatches(plan)) {
    return PlanMismatch(plan);
  }
  AdaptiveResult out;
  out.final_plan = plan;

  // Every round searches from neighborhoods of the harvested corpus;
  // mutation is deterministic, so one expansion up front suffices.
  ReplayConfig replay = config.replay;
  if (!config.corpus.empty()) {
    replay.corpus_seeds = MutateCorpus(config.corpus, config.mutation_seed,
                                       config.corpus_mutants_per_seed, config.corpus_max_total);
  }

  // The irrelevance proof is plan-independent (it consults the plan only
  // at query time), so compute it once, lazily — round 0 may reproduce
  // without ever needing it.
  std::unique_ptr<LogIrrelevance> irrelevance;
  auto irrelevance_for = [&]() -> const LogIrrelevance* {
    if (!config.refine.use_irrelevance_filter) {
      return nullptr;
    }
    if (irrelevance == nullptr) {
      irrelevance = std::make_unique<LogIrrelevance>(
          LogIrrelevance::Compute(*module_, PointsTo::Compute(*module_)));
    }
    return irrelevance.get();
  };

  BugReport current = report;
  for (u32 round = 0; round < config.max_rounds; ++round) {
    AdaptiveRound trace;
    trace.round = round;
    trace.plan_branches = static_cast<u32>(out.final_plan.branches.Count());
    trace.log_bytes = current.stats.log_bytes;

    Result<ReplayResult> search = Reproduce(current, out.final_plan, replay);
    if (!search.ok()) {
      return search.error();
    }
    ReplayResult result = search.take();
    trace.runs = result.stats.runs;
    trace.on_log_rate =
        result.stats.runs == 0
            ? 0.0
            : static_cast<double>(result.stats.aborts_forced_direction) / result.stats.runs;
    trace.reproduced = result.reproduced;
    trace.wall_seconds = result.wall_seconds;

    const bool last_round = round + 1 == config.max_rounds;
    if (result.reproduced || last_round) {
      out.reproduced = result.reproduced;
      out.final_result = std::move(result);
      out.rounds.push_back(trace);
      return out;
    }

    // Mine this round's failure telemetry into added log bits.
    RefineOutcome refined =
        RefinePlan(out.final_plan, result.stats.failure_profile, irrelevance_for(), config.refine);
    trace.candidates = refined.candidates;
    trace.skipped_irrelevant = refined.skipped_irrelevant;

    // Overhead budget: measure the refined plan at the user site and,
    // while the modeled native CPU cost exceeds the ceiling, halve the
    // additions (RefinePlan's ranking is deterministic, so re-running it
    // with a smaller cap keeps exactly the highest-yield prefix).
    const size_t proposed = refined.added.size();
    if (config.overhead_reps > 0 && config.refine.max_overhead_percent > 0.0 && proposed > 0) {
      size_t keep = proposed;
      for (;;) {
        const OverheadSample sample =
            MeasureOverhead(config.user_spec, refined.plan, config.user_run.policy,
                            config.overhead_reps, config.user_run.log_syscalls);
        trace.predicted_overhead_percent =
            100.0 + 100.0 * config.refine.log_cost_ratio *
                        (sample.branch_execs == 0
                             ? 0.0
                             : static_cast<double>(sample.instrumented_execs) /
                                   static_cast<double>(sample.branch_execs));
        if (trace.predicted_overhead_percent <= config.refine.max_overhead_percent ||
            keep == 0) {
          break;
        }
        keep /= 2;
        RefineConfig trimmed = config.refine;
        trimmed.max_added_branches = static_cast<u32>(keep);
        refined = RefinePlan(out.final_plan, result.stats.failure_profile, irrelevance_for(),
                             trimmed);
      }
      trace.skipped_budget = static_cast<u32>(proposed - refined.added.size());
    }
    trace.added_branches = static_cast<u32>(refined.added.size());

    if (refined.added.empty()) {
      // Nothing survived the filters: more rounds would redo this exact
      // search. Report the round honestly and stop.
      out.converged = true;
      out.final_result = std::move(result);
      out.rounds.push_back(trace);
      return out;
    }

    // Re-record at the user site under the refined plan. The report's
    // shape is privacy-stripped, which is why the adaptive loop needs
    // the original spec.
    Result<UserRunOutput> rerun =
        RecordUserRun(config.user_spec, refined.plan, config.user_run);
    if (!rerun.ok()) {
      return rerun.error();
    }
    UserRunOutput user = rerun.take();
    if (!user.result.Crashed()) {
      return Error{
          "adaptive re-record: user_spec no longer crashes — the refined plan cannot be "
          "exercised at the user site",
          {}};
    }
    out.final_plan = refined.plan;
    current = std::move(user.report);
    out.rounds.push_back(trace);
  }
  return out;  // Unreachable: the loop returns on its last round.
}

bool Pipeline::VerifyWitness(const BugReport& report, const std::vector<i64>& witness_cells) {
  return retrace::VerifyWitness(*module_, report, witness_cells);
}

}  // namespace retrace
