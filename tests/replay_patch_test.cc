// A run resumed past a concretized input byte could take a path no run
// from main takes, so the checkpoint rule never resumes there
// (ResumeRule, src/concolic/cellrun.h).
//
// Each program reads input bytes, uses byte 0 at one concretization point
// (a use its shadow does not model), and then branches on byte 0. The
// test runs the input, then the model that flips that branch, the way a
// search would run a pending: the resumed run must equal its run from
// main and must not start at the branch's checkpoint, which lies past the
// concretization. Without the concretization the same flip resumes at
// its branch with the changed byte patched in; a model that also breaks
// an earlier constraint on a changed byte resumes before that constraint.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/replay/replay_run.h"
#include "tests/replay_testutil.h"

namespace retrace {
namespace {

// The input prefix every program shares: four bytes from stdin.
#define READ_FOUR "char buf[8]; read(0, buf, 4); "

struct PatchCase {
  const char* name;
  const char* program;  // Run with stdin "abcdefgh", then with "zbcdefgh".
  // Where the flipped run may start: kBeforeConcretization (not at a
  // branch checkpoint), kAtFlip (at the flipped branch itself) or
  // kAtEarlierBranch (at a branch checkpoint before the flipped one).
  enum class Expect { kBeforeConcretization, kAtFlip, kAtEarlierBranch } expect;
  const char* flipped = "zbcdefgh";
};

const PatchCase kCases[] = {
    {"load_index",
     "int table[8]; int main() { int i = 0; while (i < 8) { table[i] = i * 3 + 1; i = i + 1; } "
     READ_FOUR "int x = table[buf[0] & 7]; if (buf[0] == 'z') { return x + 100; } return x; }",
     PatchCase::Expect::kBeforeConcretization},
    {"store_index",
     "int main() { int arr[8]; int i = 0; while (i < 8) { arr[i] = 0; i = i + 1; } " READ_FOUR
     "arr[buf[0] & 7] = 5; if (buf[0] == 'z') { return arr[2] + 100; } return arr[2]; }",
     PatchCase::Expect::kBeforeConcretization},
    {"ptr_add_delta",
     "int main() { int arr[8]; int i = 0; while (i < 8) { arr[i] = i * 5; i = i + 1; } " READ_FOUR
     "int *p = arr + (buf[0] & 7); if (buf[0] == 'z') { return *p + 100; } return *p; }",
     PatchCase::Expect::kBeforeConcretization},
    {"div_divisor",
     "int main() { " READ_FOUR
     "int q = 1000 / (buf[0] - 'z'); if (buf[0] == 'z') { return 1; } return q; }",
     PatchCase::Expect::kBeforeConcretization},
    {"rem_divisor",
     "int main() { " READ_FOUR
     "int q = 1000 % (buf[0] - 'z'); if (buf[0] == 'z') { return 1; } return q; }",
     PatchCase::Expect::kBeforeConcretization},
    {"ptr_int_compare",
     "int main() { " READ_FOUR
     "int x = buf[0] - 'a'; int r = 0; if (buf < x) { r = 1; } "
     "if (buf[0] == 'z') { return r + 100; } return r + 10; }",
     PatchCase::Expect::kBeforeConcretization},
    {"builtin_argument",
     "int main() { " READ_FOUR "print_int(buf[0]); if (buf[0] == 'z') { return 1; } return 0; }",
     PatchCase::Expect::kBeforeConcretization},
    {"write_memory",
     "int main() { " READ_FOUR "write(1, buf, 2); if (buf[0] == 'z') { return 1; } return 0; }",
     PatchCase::Expect::kBeforeConcretization},
    {"print_str_memory",
     "int main() { " READ_FOUR
     "buf[4] = 0; print_str(buf); if (buf[0] == 'z') { return 1; } return 0; }",
     PatchCase::Expect::kBeforeConcretization},
    {"open_memory",
     "int main() { " READ_FOUR
     "buf[1] = 0; int fd = open(buf, 0); if (buf[0] == 'z') { return fd + 100; } return fd; }",
     PatchCase::Expect::kBeforeConcretization},
    {"select_memory",
     "int main() { " READ_FOUR
     "int fds[1]; fds[0] = buf[0] - 'a'; int ready = select_fd(fds, 1); "
     "if (buf[0] == 'z') { return ready + 100; } return ready; }",
     PatchCase::Expect::kBeforeConcretization},
    // No concretization: the flip resumes at its branch, patched.
    {"modeled_uses_only",
     "int g; int main() { int arr[2]; " READ_FOUR
     "int x = buf[0] * 2 + 1; g = x % 7; arr[1] = buf[0] - 1; "
     "if (buf[0] == 'z') { return x + g + arr[1] + 1000; } return x + g + arr[1]; }",
     PatchCase::Expect::kAtFlip},
    // The model flips the branch on byte 1 but also breaks the constraint
    // an earlier branch pinned on byte 0: the checkpoint after that
    // branch is refused, the one before it is not.
    {"breaks_pinned_constraint",
     "int main() { " READ_FOUR
     "int r = 0; if (buf[0] > 'm') { r = 1; } if (buf[1] == 'q') { return r + 100; } "
     "return r; }",
     PatchCase::Expect::kAtEarlierBranch, "zqcdefgh"},
};

InputSpec StdinSpec(const std::string& bytes) {
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = -1;
  spec.world.stdin_stream = 0;
  spec.world.streams.push_back(StreamShape{"stdin", {bytes.begin(), bytes.end()},
                                           static_cast<i64>(bytes.size()), -1});
  spec.world.streams.push_back(StreamShape{"file", {'f'}, 1, -1});
  spec.world.files = {{"z", 1}};
  return spec;
}

TEST(ReplayPatchTest, NeverResumesPastAConcretizedChangedByte) {
  for (const PatchCase& c : kCases) {
    SCOPED_TRACE(c.name);
    auto built = Pipeline::FromSources(c.program, {});
    ASSERT_TRUE(built.ok()) << built.error().ToString();
    const std::unique_ptr<Pipeline> pipeline = built.take();
    const IrModule& module = pipeline->module();
    InstrumentationPlan plan;  // Nothing logged: every symbolic branch is case 1.
    plan.branches = DenseBitset(module.branches.size());
    BugReport report;
    report.shape = StdinSpec("abcdefgh");
    const CellLayout layout = CellLayout::Build(report.shape);
    const std::vector<i64> input = layout.defaults();
    const std::vector<i64> flipped = CellLayout::Build(StdinSpec(c.flipped)).defaults();

    ExprArena arena;
    FailureAccum failures(module.branches.size());
    FailureAccum main_failures(module.branches.size());
    ReplayRunLimits limits;
    limits.max_steps = 1'000'000;
    ReplayRunner runner(module, plan, report, &arena, &failures, limits);
    auto from_main = [&](const std::vector<i64>& model, size_t start_depth) {
      ReplayRunner fresh(module, plan, report, &arena, &main_failures, limits);
      return fresh.Run(model, start_depth);
    };

    const ReplayRun first = runner.Run(input, 0);
    EXPECT_EQ(Diff(first, from_main(input, 0)), "");
    ASSERT_EQ(first.out.result.status, RunResult::Status::kExit) << first.out.result.message;

    // The pending the flipped input is run for: the first run's trace up
    // to the last constraint the flipped input breaks, negated.
    std::vector<i64> values = first.out.cells;
    std::copy(flipped.begin(), flipped.end(), values.begin());
    size_t flip = first.path.trace.size();
    for (size_t i = 0; i < first.path.trace.size(); ++i) {
      const Constraint& constraint = first.path.trace[i];
      if ((arena.Eval(constraint.expr, values) != 0) != constraint.want_true) {
        flip = i;
      }
    }
    ASSERT_LT(flip, first.path.trace.size());

    const ReplayRun run = runner.Run(flipped, flip + 1);
    EXPECT_EQ(Diff(run, from_main(flipped, flip + 1)), "");
    EXPECT_GE(run.resumed_at, 0);  // The read's checkpoint at least.
    switch (c.expect) {
      case PatchCase::Expect::kBeforeConcretization:
        EXPECT_FALSE(run.resumed_at_branch);
        EXPECT_GT(run.instrs_before_flip, 0u);
        break;
      case PatchCase::Expect::kAtFlip:
        EXPECT_TRUE(run.resumed_at_branch);
        EXPECT_EQ(run.instrs_before_flip, 0u);
        break;
      case PatchCase::Expect::kAtEarlierBranch:
        EXPECT_EQ(flip, 1u);
        EXPECT_TRUE(run.resumed_at_branch);
        EXPECT_GT(run.instrs_before_flip, 0u);
        break;
    }
  }
}

}  // namespace
}  // namespace retrace
