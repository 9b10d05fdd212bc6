// Replay runs resumed from read() checkpoints are the runs a start at main
// would have produced (src/replay/replay_run.h).
//
// The searches here are the uServer sentinel searches: exps 1, 3 and 4
// under the dynamic low-coverage plan at one worker, and one two-worker
// search. Every model a search worker runs is run twice more, in the
// test's own arena: by a resuming ReplayRunner that sees the worker's
// model sequence, and from main by a fresh runner. The two runs must
// agree in everything the search reads.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <sstream>

#include "src/core/pipeline.h"
#include "src/replay/replay_run.h"
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

ReplayRunLimits LimitsFor(const BugReport& report, Budget* budget, bool use_syscall_log = true) {
  ReplayRunLimits limits;
  limits.syscall_log = use_syscall_log && report.has_syscall_log ? &report.syscall_log : nullptr;
  limits.max_steps = ReplayConfig{}.max_steps_per_run;
  limits.budget = budget;
  return limits;
}

// Empty when the runs agree; otherwise what differs.
std::string Diff(const ReplayRun& resumed, const ReplayRun& main) {
  std::ostringstream diff;
  const RunResult& a = resumed.out.result;
  const RunResult& b = main.out.result;
  if (a.status != b.status || a.exit_code != b.exit_code || a.message != b.message) {
    diff << "status/exit/message; ";
  }
  if (a.crash.kind != b.crash.kind || !a.crash.SameSite(b.crash) || a.crash.code != b.crash.code) {
    diff << "crash; ";
  }
  if (a.stats.instrs != b.stats.instrs || a.stats.branch_execs != b.stats.branch_execs ||
      a.stats.calls != b.stats.calls || a.stats.syscalls != b.stats.syscalls) {
    diff << "stats (instrs " << a.stats.instrs << " vs " << b.stats.instrs << "); ";
  }
  if (!(resumed.path == main.path)) {
    diff << "observer path (trace " << resumed.path.trace.size() << " vs "
         << main.path.trace.size() << ", cursor " << resumed.path.cursor << " vs "
         << main.path.cursor << "); ";
  }
  if (resumed.out.cells != main.out.cells) {
    diff << "cells; ";
  }
  if (resumed.out.domains != main.out.domains) {
    diff << "domains; ";
  }
  const auto& ia = resumed.out.cell_info;
  const auto& ib = main.out.cell_info;
  bool same_info = ia.size() == ib.size();
  for (size_t i = 0; same_info && i < ia.size(); ++i) {
    same_info = ia[i].kind == ib[i].kind && ia[i].tag1 == ib[i].tag1 && ia[i].tag2 == ib[i].tag2 &&
                ia[i].sys == ib[i].sys;
  }
  if (!same_info) {
    diff << "cell_info; ";
  }
  const auto& ta = resumed.out.dyn_trace;
  const auto& tb = main.out.dyn_trace;
  bool same_trace = ta.size() == tb.size();
  for (size_t i = 0; same_trace && i < ta.size(); ++i) {
    same_trace = ta[i].kind == tb[i].kind && ta[i].value == tb[i].value && ta[i].cell == tb[i].cell;
  }
  if (!same_trace) {
    diff << "dyn_trace; ";
  }
  if (resumed.out.stdout_text != main.out.stdout_text ||
      resumed.out.log_diverged != main.out.log_diverged) {
    diff << "stdout/log_diverged; ";
  }
  return diff.str();
}

// The per-worker differential: fed the worker's models in run order.
class ResumeAudit {
 public:
  explicit ResumeAudit(const BugReport& report, bool use_syscall_log = true)
      : report_(report),
        use_syscall_log_(use_syscall_log),
        resumed_failures_(Lc().pipeline->module().branches.size()),
        main_failures_(Lc().pipeline->module().branches.size()),
        resuming_(Lc().pipeline->module(), Lc().plan, report, &arena_, &resumed_failures_,
                  LimitsFor(report, &resumed_budget_, use_syscall_log)) {}

  void Check(const std::vector<i64>& model) {
    ReplayRunner fresh(Lc().pipeline->module(), Lc().plan, report_, &arena_, &main_failures_,
                       LimitsFor(report_, &main_budget_, use_syscall_log_));
    const ReplayRun resumed = resuming_.Run(model);
    const ReplayRun main = fresh.Run(model);
    ++runs;
    EXPECT_EQ(main.resumed_at, -1);
    if (resumed.resumed_at >= 0) {
      ++resumed_runs;
    }
    std::string diff = Diff(resumed, main);
    // The blind executions of a resumed run's skipped prefix still count;
    // its off-log death, if any, follows from the equal paths above.
    if (!(resumed_failures_ == main_failures_)) {
      diff += "failure profile; ";
    }
    if (resumed_budget_.steps_used() != main_budget_.steps_used()) {
      diff += "budget charge; ";
    }
    if (!diff.empty() && mismatches++ == 0) {
      ADD_FAILURE() << "run " << runs << " resumed at read " << resumed.resumed_at
                    << " differs from its run from main: " << diff;
    }
    if (resumed.out.result.Crashed() && resumed.out.result.crash.SameSite(report_.crash) &&
        resumed.path.cursor == report_.branch_log.size()) {
      witness_cells = resumed.out.cells;
      witness_resumed = resumed.resumed_at >= 0;
    }
  }

  u64 runs = 0;
  u64 resumed_runs = 0;
  u64 mismatches = 0;
  std::vector<i64> witness_cells;  // Of the last reproducing run.
  bool witness_resumed = false;

 private:
  const BugReport& report_;
  bool use_syscall_log_;
  ExprArena arena_;
  FailureAccum resumed_failures_;
  FailureAccum main_failures_;
  Budget resumed_budget_ = Budget::Steps(u64{1} << 50);
  Budget main_budget_ = Budget::Steps(u64{1} << 50);
  ReplayRunner resuming_;
};

// Runs the search with every worker's models audited.
ReplayResult AuditedSearch(const BugReport& report, ReplayConfig config,
                           std::deque<ResumeAudit>* audits) {
  for (u32 w = 0; w < config.num_workers; ++w) {
    audits->emplace_back(report, config.use_syscall_log);
  }
  config.model_tap = [audits](u32 worker, const std::vector<i64>& model) {
    (*audits)[worker].Check(model);
  };
  return Lc().pipeline->Reproduce(report, Lc().plan, config).take();
}

TEST(ReplayResumeTest, SentinelSearchRunsMatchRunsFromMain) {
  const struct {
    int experiment;
    u64 runs;
  } kSentinels[] = {{1, 863}, {3, 7027}, {4, 2810}};
  for (const auto& sentinel : kSentinels) {
    SCOPED_TRACE(testing::Message() << "exp " << sentinel.experiment);
    const BugReport report = RecordExperiment(sentinel.experiment);
    ReplayConfig config;
    config.max_runs = 20'000;
    config.seed = 31;
    config.num_workers = 1;
    std::deque<ResumeAudit> audits;
    const ReplayResult result = AuditedSearch(report, config, &audits);
    ASSERT_TRUE(result.reproduced);
    EXPECT_EQ(result.stats.runs, sentinel.runs);
    const ResumeAudit& audit = audits[0];
    EXPECT_EQ(audit.runs, sentinel.runs);
    EXPECT_EQ(audit.mismatches, 0u);
    // The engine's worker resumed the same runs the audit's runner did.
    EXPECT_EQ(result.stats.resumed_runs, audit.resumed_runs);
    EXPECT_GT(result.stats.resumed_runs, sentinel.runs / 2);
    EXPECT_GT(result.stats.instrs_skipped, 0u);

    // Verification re-executes from main, and a witness found by a
    // resumed run passes it.
    ASSERT_FALSE(audit.witness_cells.empty());
    EXPECT_TRUE(audit.witness_resumed);
    EXPECT_EQ(audit.witness_cells, result.witness_cells);
    EXPECT_TRUE(VerifyWitness(Lc().pipeline->module(), report, result.witness_cells));
  }
}

TEST(ReplayResumeTest, SearchWithoutSyscallLogRunsMatchRunsFromMain) {
  // Without the log, syscall results are symbolic cells the solver
  // changes too, so runs also diverge at select/accept/read results.
  const BugReport report = RecordExperiment(1);
  ReplayConfig config;
  config.max_runs = 1500;
  config.seed = 31;
  config.num_workers = 1;
  config.use_syscall_log = false;
  std::deque<ResumeAudit> audits;
  const ReplayResult result = AuditedSearch(report, config, &audits);
  EXPECT_EQ(audits[0].runs, result.stats.runs);
  EXPECT_EQ(audits[0].mismatches, 0u);
  EXPECT_EQ(audits[0].resumed_runs, result.stats.resumed_runs);
  EXPECT_GT(result.stats.resumed_runs, 0u);
}

TEST(ReplayResumeTest, TwoWorkerSearchRunsMatchRunsFromMain) {
  const BugReport report = RecordExperiment(1);
  ReplayConfig config;
  config.max_runs = 20'000;
  config.seed = 31;
  config.num_workers = 2;
  std::deque<ResumeAudit> audits;
  const ReplayResult result = AuditedSearch(report, config, &audits);
  ASSERT_TRUE(result.reproduced);
  u64 audited = 0;
  u64 resumed = 0;
  for (const ResumeAudit& audit : audits) {
    EXPECT_EQ(audit.mismatches, 0u);
    audited += audit.runs;
    resumed += audit.resumed_runs;
  }
  EXPECT_EQ(audited, result.stats.runs);
  EXPECT_EQ(resumed, result.stats.resumed_runs);
  ASSERT_EQ(result.stats.per_worker.size(), 2u);
  EXPECT_EQ(result.stats.per_worker[0].resumed_runs + result.stats.per_worker[1].resumed_runs,
            result.stats.resumed_runs);
  EXPECT_EQ(result.stats.per_worker[0].instrs_skipped + result.stats.per_worker[1].instrs_skipped,
            result.stats.instrs_skipped);
  EXPECT_TRUE(VerifyWitness(Lc().pipeline->module(), report, result.witness_cells));
}

// Collects every checkpoint of one run.
class KeepAll : public CheckpointSink {
 public:
  RunCheckpoint* AtRead(size_t /*read_index*/) override { return &taken.emplace_back(); }
  std::deque<RunCheckpoint> taken;
};

TEST(ReplayResumeTest, ChangedInputBeforeReadKNeverResumesAtOrPastK) {
  // Exp 5 delivers its first request in 100-byte chunks, so its runs read
  // many times. The user's real input follows the log to the crash.
  const BugReport report = RecordExperiment(5);
  const std::vector<i64> user_input = CellLayout::Build(UserverScenario(5).spec).defaults();

  // Which cells the user input's run consumed before each read.
  ExprArena scratch;
  CellRunner cells(Lc().pipeline->module(), report.shape);
  KeepAll sink;
  CellRunConfig probe;
  probe.model = user_input;
  probe.arena = &scratch;
  probe.replay_log = LimitsFor(report, nullptr).syscall_log;
  probe.checkpoints = &sink;
  cells.Run(probe);
  ASSERT_GE(sink.taken.size(), 6u);

  ExprArena arena;
  FailureAccum failures(Lc().pipeline->module().branches.size());
  Budget budget = Budget::Steps(u64{1} << 50);
  ReplayRunner runner(Lc().pipeline->module(), Lc().plan, report, &arena, &failures,
                      LimitsFor(report, &budget));
  FailureAccum main_failures(Lc().pipeline->module().branches.size());
  Budget main_budget = Budget::Steps(u64{1} << 50);

  // The run's own input resumes at its deepest checkpoint.
  runner.Run(user_input);
  const ReplayRun again = runner.Run(user_input);
  const size_t reads = std::min(sink.taken.size(), ReplayRunner::kMaxCheckpoints);
  EXPECT_EQ(again.resumed_at, static_cast<i64>(reads) - 1);

  size_t changed = 0;
  for (size_t k = 0; k < reads; ++k) {
    for (const RunCheckpoint::ConsumedCell& consumed : sink.taken[k].consumed) {
      const Interval domain = consumed.cell < cells.layout().num_static()
                                  ? cells.layout().domains()[consumed.cell]
                                  : sink.taken[k].vos.cells
                                        .domains[consumed.cell - cells.layout().num_static()];
      if (domain.lo == domain.hi) {
        continue;  // Pinned: every model gives it the same value.
      }
      std::vector<i64> model = user_input;
      model[consumed.cell] = consumed.value == domain.lo ? domain.hi : domain.lo;
      SCOPED_TRACE(testing::Message() << "cell " << consumed.cell << " consumed before read " << k);
      runner.Run(user_input);  // Rebuild the stack along the user input's path.
      const ReplayRun run = runner.Run(model);
      EXPECT_LT(run.resumed_at, static_cast<i64>(k));
      ReplayRunner fresh(Lc().pipeline->module(), Lc().plan, report, &arena, &main_failures,
                         LimitsFor(report, &main_budget));
      EXPECT_EQ(Diff(run, fresh.Run(model)), "");
      ++changed;
      break;  // One cell per read keeps the test short.
    }
  }
  EXPECT_GE(changed, reads / 2);
}

TEST(ReplayResumeTest, AdaptiveExperimentFiveKeepsItsRounds) {
  // Exp 5 under the adaptive loop: the rounds, refined plan and run
  // counts the engine produced before runs resumed from checkpoints.
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
  const Pipeline::AdaptiveResult r =
      Lc().pipeline->ReproduceAdaptive(report, Lc().plan, adaptive).take();
  ASSERT_TRUE(r.reproduced);
  ASSERT_EQ(r.rounds.size(), 2u);
  EXPECT_EQ(r.rounds[0].runs, 3000u);
  EXPECT_EQ(r.rounds[0].plan_branches, 9u);
  EXPECT_EQ(r.rounds[0].added_branches, 5u);
  EXPECT_EQ(r.rounds[1].runs, 456u);
  EXPECT_EQ(r.rounds[1].plan_branches, 14u);
  EXPECT_EQ(r.final_plan.NumInstrumented(), 14u);
  EXPECT_GT(r.final_result.stats.resumed_runs, 0u);
}

}  // namespace
}  // namespace retrace
