// Replay runs resumed from checkpoints — at read() calls and at the
// branches that publish pendings, patched for the changed input — are
// the runs a start at main would have produced (src/replay/replay_run.h).
//
// The searches here are the uServer sentinel searches (exps 1, 3 and 4
// under the dynamic low-coverage plan at one worker), the exp 1 search
// without the syscall log, a two-worker search, and exp 5's adaptive
// rounds. Every model a search worker runs is run twice more, in the
// test's own arena: by a resuming ReplayRunner that sees the worker's
// model sequence, and from main by a fresh runner. The two runs must
// agree in everything the search reads.
#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "src/core/pipeline.h"
#include "src/replay/replay_run.h"
#include "src/workloads/scenarios.h"
#include "src/workloads/workloads.h"
#include "tests/replay_testutil.h"

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

// The per-worker differential: fed the worker's models in run order.
class ResumeAudit {
 public:
  ResumeAudit(const BugReport& report, bool use_syscall_log = true,
              const InstrumentationPlan& plan = Lc().plan)
      : report_(report),
        plan_(plan),
        use_syscall_log_(use_syscall_log),
        resumed_failures_(Lc().pipeline->module().branches.size()),
        main_failures_(Lc().pipeline->module().branches.size()),
        resuming_(Lc().pipeline->module(), plan, report, &arena_, &resumed_failures_,
                  LimitsFor(report, &resumed_budget_, use_syscall_log)) {}

  void Check(const std::vector<i64>& model, size_t start_depth) {
    ReplayRunner fresh(Lc().pipeline->module(), plan_, report_, &arena_, &main_failures_,
                       LimitsFor(report_, &main_budget_, use_syscall_log_));
    // The reference: ResumeRule offered every checkpoint of the resuming
    // runner's stack from the shallowest up, as long as the budget could
    // have paid for it.
    ResumeRule rule(resuming_.layout(), arena_, model);
    size_t depth = 0;
    while (depth < resuming_.depth() &&
           resumed_budget_.Affords(resuming_.checkpoint(depth).exec.budget_steps())) {
      ++linear_admits;
      if (!rule.Admit(resuming_.checkpoint(depth))) {
        break;
      }
      ++depth;
    }
    const i64 linear_resumed_at =
        depth > 0 ? static_cast<i64>(resuming_.checkpoint(depth - 1).exec.stats.instrs) : -1;
    const u64 hits_before = resuming_.signature_hits();
    const u64 checks_before = resuming_.exact_checks();
    const ReplayRun resumed = resuming_.Run(model, start_depth);
    const u64 run_hits = resuming_.signature_hits() - hits_before;
    const u64 run_checks = resuming_.exact_checks() - checks_before;
    exact_checks += run_checks;
    if ((resumed.resumed_at != linear_resumed_at || run_checks > 2 + run_hits) &&
        admission_mismatches++ == 0) {
      ADD_FAILURE() << "run " << runs + 1 << " resumed at instr " << resumed.resumed_at
                    << " after " << run_checks << " exact checks (" << run_hits
                    << " signature hits); the linear walk resumes at " << linear_resumed_at;
    }
    const ReplayRun main = fresh.Run(model, start_depth);
    ++runs;
    EXPECT_EQ(main.resumed_at, -1);
    if (resumed.resumed_at >= 0) {
      ++resumed_runs;
    }
    resumed_at_branch += resumed.resumed_at_branch ? 1 : 0;
    instrs_before_flip += resumed.instrs_before_flip;
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
      ADD_FAILURE() << "run " << runs << " resumed at instr " << resumed.resumed_at
                    << (resumed.resumed_at_branch ? " (branch)" : "")
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
  u64 resumed_at_branch = 0;
  u64 instrs_before_flip = 0;
  u64 mismatches = 0;
  // Admission by summary against the linear walk: runs that resumed
  // elsewhere or made more exact checks than 2 plus their signature
  // hits, and the ResumeRule::Admit calls of either.
  u64 admission_mismatches = 0;
  u64 exact_checks = 0;
  u64 linear_admits = 0;
  std::vector<i64> witness_cells;  // Of the last reproducing run.
  bool witness_resumed = false;

 private:
  const BugReport& report_;
  const InstrumentationPlan& plan_;
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
  config.model_tap = [audits](u32 worker, const std::vector<i64>& model, size_t start_depth) {
    (*audits)[worker].Check(model, start_depth);
  };
  return Lc().pipeline->Reproduce(report, Lc().plan, config).take();
}

TEST(ReplayResumeTest, SentinelSearchRunsMatchRunsFromMain) {
  // Every run of these searches starts at its flipped or forced branch:
  // none executes an instruction before it.
  const struct {
    int experiment;
    u64 runs;
    u64 instrs_before_flip;
  } kSentinels[] = {{1, 863, 0}, {3, 7027, 0}, {4, 2810, 0}};
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
    EXPECT_EQ(result.stats.resumed_at_branch, audit.resumed_at_branch);
    EXPECT_EQ(result.stats.instrs_before_flip, audit.instrs_before_flip);
    EXPECT_GT(result.stats.resumed_runs, sentinel.runs / 2);
    EXPECT_GT(result.stats.resumed_at_branch, sentinel.runs / 2);
    EXPECT_GT(result.stats.instrs_skipped, 0u);
    EXPECT_EQ(result.stats.instrs_before_flip, sentinel.instrs_before_flip);
    // Every run resumed where the linear walk does, and offered the rule
    // far fewer checkpoints.
    EXPECT_EQ(audit.admission_mismatches, 0u);
    EXPECT_LT(audit.exact_checks * 4, audit.linear_admits);

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
  EXPECT_EQ(audits[0].resumed_at_branch, result.stats.resumed_at_branch);
  EXPECT_GT(result.stats.resumed_at_branch, 0u);
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
  u64 at_branch = 0;
  for (const ResumeAudit& audit : audits) {
    EXPECT_EQ(audit.mismatches, 0u);
    audited += audit.runs;
    resumed += audit.resumed_runs;
    at_branch += audit.resumed_at_branch;
  }
  EXPECT_EQ(audited, result.stats.runs);
  EXPECT_EQ(resumed, result.stats.resumed_runs);
  EXPECT_EQ(at_branch, result.stats.resumed_at_branch);
  ASSERT_EQ(result.stats.per_worker.size(), 2u);
  EXPECT_EQ(result.stats.per_worker[0].resumed_runs + result.stats.per_worker[1].resumed_runs,
            result.stats.resumed_runs);
  EXPECT_EQ(result.stats.per_worker[0].instrs_skipped + result.stats.per_worker[1].instrs_skipped,
            result.stats.instrs_skipped);
  EXPECT_EQ(result.stats.per_worker[0].instrs_before_flip +
                result.stats.per_worker[1].instrs_before_flip,
            result.stats.instrs_before_flip);
  EXPECT_TRUE(VerifyWitness(Lc().pipeline->module(), report, result.witness_cells));
}

// Collects every checkpoint of one run, and where each paused.
class KeepAll : public CheckpointSink {
 public:
  RunCheckpoint* AtPause(const PausePoint& at) override {
    points.push_back(at);
    return &taken.emplace_back();
  }
  std::deque<RunCheckpoint> taken;
  std::vector<PausePoint> points;
};

TEST(ReplayResumeTest, ChangedInputResumesOnlyWhereTheRuleAdmits) {
  // Exp 5 delivers its first request in 100-byte chunks, so its runs read
  // many times. The user's real input follows the log to the crash.
  const BugReport report = RecordExperiment(5);
  const std::vector<i64> user_input = CellLayout::Build(UserverScenario(5).spec).defaults();

  // Every pause point of the user input's run, and the cells consumed
  // before each.
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
  auto from_main = [&](const std::vector<i64>& model) {
    ReplayRunner fresh(Lc().pipeline->module(), Lc().plan, report, &arena, &main_failures,
                       LimitsFor(report, &main_budget));
    return fresh.Run(model, 0);
  };

  // The run's own input resumes at its deepest checkpoint: its last
  // read() or case-1 branch (it follows the log, so no branch is forced).
  runner.Run(user_input, 0);
  const ReplayRun again = runner.Run(user_input, 0);
  size_t deepest = sink.taken.size();
  for (size_t k = 0; k < sink.points.size(); ++k) {
    const PausePoint& at = sink.points[k];
    if (!at.at_branch || !Lc().plan.Instrumented(at.branch_id)) {
      deepest = k;
    }
  }
  ASSERT_LT(deepest, sink.taken.size());
  EXPECT_EQ(again.resumed_at, static_cast<i64>(sink.taken[deepest].exec.stats.instrs));
  EXPECT_EQ(again.resumed_at_branch, sink.points[deepest].at_branch);
  EXPECT_EQ(Diff(again, from_main(user_input)), "");

  // One changed cell per pause point that consumed any. A changed argv
  // cell or syscall result never resumes at or past the pause point it
  // was consumed before; a changed stream byte may, patched, and the run
  // is the run from main either way.
  size_t exact = 0;
  size_t stream_changes = 0;
  size_t patched_past = 0;
  for (const RunCheckpoint& at : sink.taken) {
    for (const RunCheckpoint::ConsumedCell& consumed : at.consumed) {
      const i32 num_static = cells.layout().num_static();
      const Interval domain = consumed.cell < num_static
                                  ? cells.layout().domains()[consumed.cell]
                                  : at.vos->cells.domains[consumed.cell - num_static];
      if (domain.lo == domain.hi) {
        continue;  // Pinned: every model gives it the same value.
      }
      std::vector<i64> model = user_input;
      if (model.size() <= static_cast<size_t>(consumed.cell)) {
        model.resize(static_cast<size_t>(consumed.cell) + 1, 0);
      }
      model[consumed.cell] = consumed.value == domain.lo ? domain.hi : domain.lo;
      SCOPED_TRACE(testing::Message() << "cell " << consumed.cell << " consumed before instr "
                                      << at.exec.stats.instrs);
      runner.Run(user_input, 0);  // Rebuild the stack along the user input's path.
      const ReplayRun run = runner.Run(model, 0);
      const bool stream = consumed.cell < num_static &&
                          cells.layout().info()[consumed.cell].kind == CellKind::kStreamByte;
      if (stream) {
        ++stream_changes;
        patched_past += run.resumed_at >= static_cast<i64>(at.exec.stats.instrs) ? 1 : 0;
      } else {
        EXPECT_LT(run.resumed_at, static_cast<i64>(at.exec.stats.instrs));
        ++exact;
      }
      EXPECT_EQ(Diff(run, from_main(model)), "");
      break;  // One cell per pause point keeps the test short.
    }
  }
  // Every pause point that consumed a cell some model can change was
  // exercised: the stream bytes each of the run's seven reads delivered,
  // and one exact cell.
  size_t reads = 0;
  for (const PausePoint& at : sink.points) {
    reads += at.at_branch ? 0 : 1;
  }
  EXPECT_EQ(reads, 7u);
  EXPECT_EQ(stream_changes, reads);
  EXPECT_EQ(exact, 1u);
  EXPECT_GT(patched_past, 0u);
}

TEST(ReplayResumeTest, AdaptiveExperimentFiveRoundsMatchRunsFromMain) {
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
  EXPECT_GT(r.final_result.stats.resumed_at_branch, 0u);

  // Again with every run audited: round 0 against the lc plan's report,
  // round 1 against the refined plan and the report re-recorded under it.
  Pipeline::UserRunOptions options;
  options.policy = scenario.policy.get();
  const BugReport refined_report =
      Lc().pipeline->RecordUserRun(scenario.spec, r.final_plan, options).take().report;
  ResumeAudit round0(report);
  ResumeAudit round1(refined_report, true, r.final_plan);
  adaptive.replay.model_tap = [&](u32 /*worker*/, const std::vector<i64>& model,
                                  size_t start_depth) {
    (round0.runs < r.rounds[0].runs ? round0 : round1).Check(model, start_depth);
  };
  const Pipeline::AdaptiveResult audited =
      Lc().pipeline->ReproduceAdaptive(report, Lc().plan, adaptive).take();
  ASSERT_TRUE(audited.reproduced);
  EXPECT_EQ(round0.runs, 3000u);
  EXPECT_EQ(round1.runs, 456u);
  EXPECT_EQ(round0.mismatches, 0u);
  EXPECT_EQ(round1.mismatches, 0u);
  EXPECT_EQ(round0.admission_mismatches, 0u);
  EXPECT_EQ(round1.admission_mismatches, 0u);
  EXPECT_EQ(round1.resumed_at_branch, audited.final_result.stats.resumed_at_branch);
  EXPECT_EQ(round1.instrs_before_flip, audited.final_result.stats.instrs_before_flip);
  // Round 0 starts every run at its flipped or forced branch.
  EXPECT_EQ(round0.instrs_before_flip, 0u);
  EXPECT_GT(round0.resumed_at_branch, 2900u);
}

}  // namespace
}  // namespace retrace
