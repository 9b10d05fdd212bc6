#include <gtest/gtest.h>

#include "src/exec/interp.h"
#include "src/support/budget.h"
#include "tests/testutil.h"

namespace retrace {
namespace {

// Minimal scripted handler: read() feeds from a byte string, everything
// else returns canned values; output is captured.
class ScriptedSyscalls : public SyscallHandler {
 public:
  explicit ScriptedSyscalls(std::string input = "") : input_(std::move(input)) {}

  SyscallOutcome OnSyscall(Builtin b, const std::vector<i64>& int_args,
                           const std::string& str_arg,
                           const std::vector<u8>& write_data) override {
    SyscallOutcome out;
    switch (b) {
      case Builtin::kRead: {
        const i64 want = int_args[1];
        const i64 have = static_cast<i64>(input_.size()) - cursor_;
        const i64 n = std::min(want, have);
        for (i64 i = 0; i < n; ++i) {
          out.data.push_back(static_cast<u8>(input_[cursor_ + i]));
        }
        cursor_ += n;
        out.ret = n;
        break;
      }
      case Builtin::kWrite:
        written_.append(write_data.begin(), write_data.end());
        out.ret = static_cast<i64>(write_data.size());
        break;
      case Builtin::kPrintInt:
        printed_ += std::to_string(int_args[0]);
        break;
      case Builtin::kPrintStr:
        printed_ += str_arg;
        break;
      case Builtin::kOpen:
        out.ret = 5;
        break;
      default:
        out.ret = 0;
        break;
    }
    return out;
  }

  const std::string& printed() const { return printed_; }
  const std::string& written() const { return written_; }

 private:
  std::string input_;
  i64 cursor_ = 0;
  std::string printed_;
  std::string written_;
};

RunResult RunProgram(std::string_view src, const std::vector<std::string>& argv = {"prog"},
                     ScriptedSyscalls* syscalls = nullptr) {
  Compiled c = CompileOrDie(src);
  if (c.module == nullptr) {
    return RunResult{};
  }
  Interp interp(*c.module, InterpOptions{});
  static ScriptedSyscalls fallback;
  interp.set_syscall_handler(syscalls != nullptr ? syscalls : &fallback);
  return interp.Run(argv, {});
}

TEST(InterpTest, Arithmetic) {
  EXPECT_EQ(RunProgram("int main() { return (3 + 4) * 2 - 10 / 5; }").exit_code, 12);
  EXPECT_EQ(RunProgram("int main() { return 17 % 5; }").exit_code, 2);
  EXPECT_EQ(RunProgram("int main() { return 1 << 6; }").exit_code, 64);
  EXPECT_EQ(RunProgram("int main() { return -7; }").exit_code, -7);
  EXPECT_EQ(RunProgram("int main() { return ~0; }").exit_code, -1);
  EXPECT_EQ(RunProgram("int main() { return !5; }").exit_code, 0);
  EXPECT_EQ(RunProgram("int main() { return (6 & 3) | (4 ^ 1); }").exit_code, 7);
}

TEST(InterpTest, Comparisons) {
  EXPECT_EQ(RunProgram("int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + (3 >= 4); }").exit_code,
            3);
  EXPECT_EQ(RunProgram("int main() { return (1 == 1) + (1 != 1); }").exit_code, 1);
}

TEST(InterpTest, ShortCircuit) {
  // Division by zero on the right side must not execute.
  EXPECT_EQ(RunProgram("int main() { int z = 0; if (z != 0 && 10 / z > 0) { return 1; } return 2; }")
                .exit_code,
            2);
  EXPECT_EQ(RunProgram("int main() { int z = 1; if (z || 10 / 0) { return 3; } return 4; }")
                .exit_code,
            3);
}

TEST(InterpTest, LoopsAndLocals) {
  EXPECT_EQ(RunProgram(R"(
    int main() {
      int s = 0;
      for (int i = 1; i <= 10; i = i + 1) { s = s + i; }
      return s;
    }
  )").exit_code,
            55);
  EXPECT_EQ(RunProgram(R"(
    int main() {
      int n = 0;
      while (1) { n = n + 1; if (n == 7) { break; } }
      return n;
    }
  )").exit_code,
            7);
  EXPECT_EQ(RunProgram(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) { if (i % 2) { continue; } s = s + i; }
      return s;
    }
  )").exit_code,
            20);
}

TEST(InterpTest, IncDecAndCompound) {
  EXPECT_EQ(RunProgram("int main() { int x = 5; x += 3; x -= 1; x *= 2; return x; }").exit_code,
            14);
  EXPECT_EQ(RunProgram("int main() { int x = 5; int y = x++; return x * 10 + y; }").exit_code, 65);
  EXPECT_EQ(RunProgram("int main() { int x = 5; int y = ++x; return x * 10 + y; }").exit_code, 66);
  EXPECT_EQ(RunProgram("int main() { int x = 5; int y = x--; return x * 10 + y; }").exit_code, 45);
}

TEST(InterpTest, FunctionsAndRecursion) {
  EXPECT_EQ(RunProgram(R"(
    int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    int main() { return fib(12); }
  )").exit_code,
            144);
}

TEST(InterpTest, ArraysAndPointers) {
  EXPECT_EQ(RunProgram(R"(
    int main() {
      int a[5];
      for (int i = 0; i < 5; i = i + 1) { a[i] = i * i; }
      int *p = a;
      return p[4] + *p + a[2];
    }
  )").exit_code,
            20);
  EXPECT_EQ(RunProgram(R"(
    int swap(int *x, int *y) { int t = *x; *x = *y; *y = t; return 0; }
    int main() { int a = 1; int b = 9; swap(&a, &b); return a * 10 + b; }
  )").exit_code,
            91);
  EXPECT_EQ(RunProgram(R"(
    int main() {
      char s[8];
      s[0] = 'h'; s[1] = 'i'; s[2] = 0;
      char *p = s;
      p = p + 1;
      return *p;
    }
  )").exit_code,
            'i');
}

TEST(InterpTest, PointerDifferenceAndComparison) {
  EXPECT_EQ(RunProgram(R"(
    int main() {
      int a[10];
      int *p = &a[7];
      int *q = &a[2];
      if (p > q) { return p - q; }
      return -1;
    }
  )").exit_code,
            5);
}

TEST(InterpTest, CharTruncation) {
  EXPECT_EQ(RunProgram("int main() { char c = 300; return c; }").exit_code, 44);
  EXPECT_EQ(RunProgram(R"(
    int main() { char b[2]; b[0] = 257; return b[0]; }
  )").exit_code,
            1);
}

TEST(InterpTest, GlobalState) {
  EXPECT_EQ(RunProgram(R"(
    int counter = 10;
    int buf[4];
    int bump() { counter = counter + 1; return counter; }
    int main() { bump(); bump(); buf[1] = counter; return buf[1]; }
  )").exit_code,
            12);
}

TEST(InterpTest, ArgvAccess) {
  EXPECT_EQ(RunProgram(R"(
    int main(int argc, char **argv) {
      if (argc != 3) { return -1; }
      return argv[1][0] * 100 + argv[2][1];
    }
  )",
                       {"prog", "a", "xy"})
                .exit_code,
            'a' * 100 + 'y');
}

TEST(InterpTest, TrapOutOfBounds) {
  const RunResult r = RunProgram("int main() { int a[3]; a[3] = 1; return 0; }");
  ASSERT_EQ(r.status, RunResult::Status::kCrash);
  EXPECT_EQ(r.crash.kind, CrashSite::Kind::kOutOfBounds);
}

TEST(InterpTest, TrapNegativeIndex) {
  const RunResult r = RunProgram("int main() { int a[3]; int i = -1; return a[i]; }");
  ASSERT_EQ(r.status, RunResult::Status::kCrash);
  EXPECT_EQ(r.crash.kind, CrashSite::Kind::kOutOfBounds);
}

TEST(InterpTest, TrapDivByZero) {
  const RunResult r = RunProgram("int main() { int z = 0; return 5 / z; }");
  ASSERT_EQ(r.status, RunResult::Status::kCrash);
  EXPECT_EQ(r.crash.kind, CrashSite::Kind::kDivByZero);
}

TEST(InterpTest, TrapNullDeref) {
  const RunResult r = RunProgram("int main() { int *p = 0; return *p; }");
  ASSERT_EQ(r.status, RunResult::Status::kCrash);
  EXPECT_EQ(r.crash.kind, CrashSite::Kind::kNullDeref);
}

TEST(InterpTest, TrapStackOverflow) {
  const RunResult r = RunProgram("int f(int n) { return f(n + 1); } int main() { return f(0); }");
  ASSERT_EQ(r.status, RunResult::Status::kCrash);
  EXPECT_EQ(r.crash.kind, CrashSite::Kind::kStackOverflow);
}

TEST(InterpTest, ExplicitCrashCarriesCode) {
  const RunResult r = RunProgram("int main() { crash(42); return 0; }");
  ASSERT_EQ(r.status, RunResult::Status::kCrash);
  EXPECT_EQ(r.crash.kind, CrashSite::Kind::kExplicit);
  EXPECT_EQ(r.crash.code, 42);
}

TEST(InterpTest, ExitBuiltin) {
  const RunResult r = RunProgram("int main() { exit(9); return 0; }");
  EXPECT_EQ(r.status, RunResult::Status::kExit);
  EXPECT_EQ(r.exit_code, 9);
}

TEST(InterpTest, BudgetExhaustion) {
  Compiled c = CompileOrDie("int main() { while (1) { } return 0; }");
  InterpOptions options;
  options.max_steps = 1000;
  Interp interp(*c.module, options);
  ScriptedSyscalls syscalls;
  interp.set_syscall_handler(&syscalls);
  const RunResult r = interp.Run({"prog"}, {});
  EXPECT_EQ(r.status, RunResult::Status::kBudget);
}

TEST(InterpTest, ReadAndPrint) {
  ScriptedSyscalls syscalls("hello");
  const RunResult r = RunProgram(R"(
    int main() {
      char buf[16];
      int n = read(0, buf, 15);
      buf[n] = 0;
      print_str(buf);
      print_int(n);
      return n;
    }
  )",
                                 {"prog"}, &syscalls);
  EXPECT_EQ(r.exit_code, 5);
  EXPECT_EQ(syscalls.printed(), "hello5");
}

TEST(InterpTest, WriteExtractsBuffer) {
  ScriptedSyscalls syscalls;
  const RunResult r = RunProgram(R"(
    int main() {
      char buf[4];
      buf[0] = 'a'; buf[1] = 'b'; buf[2] = 'c';
      return write(1, buf, 3);
    }
  )",
                                 {"prog"}, &syscalls);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_EQ(syscalls.written(), "abc");
}

TEST(InterpTest, DanglingFramePointerTrap) {
  const RunResult r = RunProgram(R"(
    int g_save = 0;
    int *leak() { int x = 3; int *p = &x; return p; }
    int main() { int *p = leak(); return *p; }
  )");
  ASSERT_EQ(r.status, RunResult::Status::kCrash);
  EXPECT_EQ(r.crash.kind, CrashSite::Kind::kDangling);
}

TEST(InterpTest, PooledRunsAreReproducible) {
  // The same interpreter re-run must be indistinguishable from a fresh
  // one: object-pool generations never leak into results.
  Compiled c = CompileOrDie(R"(
    int leaf(int n) { int buf[4]; buf[n & 3] = n; return buf[n & 3] * 2; }
    int main(int argc, char **argv) {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) { s = s + leaf(i + argv[1][0]); }
      return s % 251;
    }
  )");
  ASSERT_NE(c.module, nullptr);
  Interp interp(*c.module, InterpOptions{});
  const RunResult first = interp.Run({"prog", "k"}, {});
  const RunResult again = interp.Run({"prog", "k"}, {});
  const RunResult other = interp.Run({"prog", "Q"}, {});
  const RunResult back = interp.Run({"prog", "k"}, {});
  EXPECT_EQ(first.exit_code, again.exit_code);
  EXPECT_EQ(first.exit_code, back.exit_code);
  EXPECT_EQ(first.stats.instrs, again.stats.instrs);
  EXPECT_EQ(first.stats.instrs, back.stats.instrs);
  EXPECT_NE(first.exit_code, other.exit_code);
}

// Saves the interpreter, and a copy of its scripted handler, just before
// read() number `at`.
class SaveAtRead : public PauseListener {
 public:
  SaveAtRead(Interp* interp, const ScriptedSyscalls* syscalls, int at)
      : interp_(interp), syscalls_(syscalls), at_(at) {}

  void BeforeRead() override {
    if (reads_++ == at_) {
      interp_->Save(&state);
      handler = *syscalls_;
      saved = true;
    }
  }

  Interp::State state;
  ScriptedSyscalls handler;
  bool saved = false;

 private:
  Interp* interp_;
  const ScriptedSyscalls* syscalls_;
  int at_;
  int reads_ = 0;
};

// Each round reads up to 7 bytes into a frame object, spins, prints a
// checksum and echoes the bytes: several reads, frames allocated and freed
// between them, and enough instructions to charge the budget many times.
constexpr std::string_view kRoundReader = R"(
  int checksum(char *buf, int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s * 31 + buf[i]; }
    return s;
  }
  int round_trip(int round) {
    char buf[8];
    int n = read(0, buf, 7);
    if (n <= 0) { return -1; }
    int spin = 0;
    while (spin < 300) { spin = spin + 1; }
    print_int(checksum(buf, n) + round);
    write(1, buf, n);
    return n;
  }
  int main() {
    int total = 0;
    for (int round = 0; round < 8; round = round + 1) {
      int n = round_trip(round);
      if (n < 0) { break; }
      total = total + n;
    }
    return total;
  }
)";

TEST(InterpTest, ResumeAtReadMatchesUninterruptedRun) {
  Compiled c = CompileOrDie(kRoundReader);
  ASSERT_NE(c.module, nullptr);
  const std::string input = "abcdefghijklmnopqrstuvwxyz0123456789";
  ScriptedSyscalls whole_io(input);
  Budget whole_budget = Budget::Steps(1'000'000);
  InterpOptions whole_options;
  whole_options.external_budget = &whole_budget;
  Interp whole(*c.module, whole_options);
  whole.set_syscall_handler(&whole_io);
  const RunResult expected = whole.Run();
  ASSERT_EQ(expected.status, RunResult::Status::kExit);
  ASSERT_EQ(expected.exit_code, static_cast<i64>(input.size()));
  ASSERT_GT(whole_budget.steps_used(), 4 * kBudgetChunk);

  for (int at = 0; at < 6; ++at) {
    for (bool scramble : {false, true}) {
      SCOPED_TRACE(testing::Message() << "read " << at << (scramble ? ", scrambled" : ""));
      Interp interp(*c.module, InterpOptions{});
      ScriptedSyscalls io(input);
      interp.set_syscall_handler(&io);
      SaveAtRead saver(&interp, &io, at);
      interp.set_pause_listener(&saver);
      interp.Run();
      interp.set_pause_listener(nullptr);
      ASSERT_TRUE(saver.saved);
      if (scramble) {
        // An unrelated run in between reuses every pooled object.
        ScriptedSyscalls other("zz");
        interp.set_syscall_handler(&other);
        interp.Run();
      }

      ScriptedSyscalls resumed_io = saver.handler;
      Budget budget = Budget::Steps(1'000'000);
      InterpOptions options;
      options.external_budget = &budget;
      interp.set_options(options);
      interp.set_syscall_handler(&resumed_io);
      const RunResult got = interp.Resume(saver.state);

      EXPECT_EQ(got.status, expected.status);
      EXPECT_EQ(got.exit_code, expected.exit_code);
      EXPECT_EQ(got.stats.instrs, expected.stats.instrs);
      EXPECT_EQ(got.stats.branch_execs, expected.stats.branch_execs);
      EXPECT_EQ(got.stats.calls, expected.stats.calls);
      EXPECT_EQ(got.stats.syscalls, expected.stats.syscalls);
      EXPECT_EQ(budget.steps_used(), whole_budget.steps_used());
      EXPECT_EQ(resumed_io.printed(), whole_io.printed());
      EXPECT_EQ(resumed_io.written(), whole_io.written());
      ASSERT_EQ(interp.objects().size(), whole.objects().size());
      for (size_t id = 0; id < whole.objects().size(); ++id) {
        const MemObject& a = interp.objects()[id];
        const MemObject& b = whole.objects()[id];
        EXPECT_EQ(a.gen, b.gen) << "object " << id;
        EXPECT_EQ(a.alive, b.alive) << "object " << id;
        EXPECT_EQ(a.cells, b.cells) << "object " << id;
      }
      EXPECT_EQ(interp.free_objects(), whole.free_objects());
    }
  }
}

TEST(InterpTest, ResumeTwiceFromOneSave) {
  // A saved state is immutable: resuming it again, after the first resume
  // changed every object, gives the same run again.
  Compiled c = CompileOrDie(kRoundReader);
  ASSERT_NE(c.module, nullptr);
  const std::string input = "the quick brown fox jumps";
  Interp interp(*c.module, InterpOptions{});
  ScriptedSyscalls io(input);
  interp.set_syscall_handler(&io);
  SaveAtRead saver(&interp, &io, 2);
  interp.set_pause_listener(&saver);
  const RunResult expected = interp.Run();
  interp.set_pause_listener(nullptr);
  ASSERT_TRUE(saver.saved);
  for (int rep = 0; rep < 3; ++rep) {
    ScriptedSyscalls resumed_io = saver.handler;
    interp.set_syscall_handler(&resumed_io);
    const RunResult got = interp.Resume(saver.state);
    EXPECT_EQ(got.exit_code, expected.exit_code);
    EXPECT_EQ(got.stats.instrs, expected.stats.instrs);
    EXPECT_EQ(resumed_io.printed(), io.printed());
  }
}

}  // namespace
}  // namespace retrace
