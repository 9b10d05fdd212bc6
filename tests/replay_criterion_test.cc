// Tests for the reproduction criterion: a witness must retrace the entire
// recorded branch log, not merely crash at the same program location.
#include <gtest/gtest.h>

#include "src/concolic/cellrun.h"
#include "src/core/pipeline.h"
#include "src/instrument/recorder.h"
#include "src/workloads/workloads.h"

namespace retrace {
namespace {

// A server-like loop: polls for a signal, reads and accumulates input,
// crashes when the signal arrives. A "shortcut" run could crash on the
// first poll without reading anything.
constexpr const char* kPollLoop = R"(
int main() {
  char buf[64];
  int total = 0;
  int iterations = 0;
  while (iterations < 50) {
    iterations = iterations + 1;
    if (poll_signal()) {
      crash(5);
    }
    int r = read(0, &buf[total], 8);
    if (r > 0) {
      total = total + r;
      if (buf[0] == 'Q') {
        exit(3);
      }
    }
  }
  return 0;
}
)";

InputSpec PollLoopInput() {
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = -1;
  spec.world.stdin_stream = 0;
  StreamShape stream;
  stream.name = "stdin";
  const std::string data = "abcdefghijklmnop";  // Two 8-byte reads.
  stream.bytes.assign(data.begin(), data.end());
  stream.length = static_cast<i64>(data.size());
  spec.world.streams.push_back(stream);
  return spec;
}

TEST(ReplayCriterionTest, WitnessRetracesExactBitSequence) {
  auto pipeline = Pipeline::FromSources(kPollLoop, {}).take();
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());

  // The signal arrives on the 4th poll: three loop iterations of real work
  // happen first.
  SignalAfterPolicy policy(3);
  Pipeline::UserRunOptions options;
  options.policy = &policy;
  const auto user = pipeline->RecordUserRun(PollLoopInput(), plan, options).take();
  ASSERT_TRUE(user.result.Crashed());
  ASSERT_GT(user.report.branch_log.size(), 10u);

  // Reproduce WITHOUT the syscall log: the engine must rediscover the
  // signal timing and read splits; an early-signal shortcut would leave
  // most of the branch log unconsumed and must be rejected.
  ReplayConfig config;
  config.use_syscall_log = false;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);

  // Re-run the witness with a recorder: it must produce the identical log.
  CellRunner runner(pipeline->module(), user.report.shape);
  BranchTraceRecorder recorder(plan);
  CellRunConfig run_config;
  run_config.model = replay.witness_cells;
  run_config.symbolic_syscalls = false;
  run_config.observers = {&recorder};
  const CellRunOutput rerun = runner.Run(run_config);
  ASSERT_TRUE(rerun.result.Crashed());
  EXPECT_TRUE(rerun.result.crash.SameSite(user.report.crash));
  EXPECT_EQ(recorder.TakeLog(), user.report.branch_log);
}

TEST(ReplayCriterionTest, EmptyPlanAcceptsAnyCrashAtSite) {
  // The no-logging end of the spectrum: with no bits to follow, the first
  // input reaching the site is a valid reproduction (pure search, as ESD).
  auto pipeline = Pipeline::FromSources(kPollLoop, {}).take();
  InstrumentationPlan empty;
  empty.method = InstrumentMethod::kDynamic;
  empty.branches = DenseBitset(pipeline->module().branches.size());
  SignalAfterPolicy policy(3);
  Pipeline::UserRunOptions options;
  options.policy = &policy;
  const auto user = pipeline->RecordUserRun(PollLoopInput(), empty, options).take();
  ASSERT_TRUE(user.result.Crashed());
  EXPECT_EQ(user.report.branch_log.size(), 0u);
  ReplayConfig config;
  config.use_syscall_log = false;
  const ReplayResult replay = pipeline->Reproduce(user.report, empty, config).take();
  EXPECT_TRUE(replay.reproduced);
}

TEST(ReplayCriterionTest, SyscallLogDivergenceFallsBackToSymbolic) {
  // A log recorded from a different call order: the virtual OS detects the
  // divergence and continues with symbolic cells instead of bogus pins.
  auto pipeline = Pipeline::FromSources(R"(
    int main() {
      char buf[8];
      if (poll_signal()) {
        return read(0, buf, 4);
      }
      return 7;
    }
  )",
                                        {})
                      .take();
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = -1;
  spec.world.stdin_stream = 0;
  spec.world.streams.push_back(StreamShape{"stdin", {'x', 'y'}, 2, -1});

  // Log claims the first syscall was a read — but the program polls first.
  SyscallLog bogus = {{Builtin::kRead, 2}};
  CellRunner runner(pipeline->module(), spec);
  CellRunConfig config;
  config.replay_log = &bogus;
  const CellRunOutput out = runner.Run(config);
  EXPECT_TRUE(out.log_diverged);
  EXPECT_EQ(out.result.status, RunResult::Status::kExit);
}

}  // namespace
}  // namespace retrace
