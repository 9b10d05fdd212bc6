// Heap allocations of a replay search, and of saving and resuming a
// checkpoint (src/exec/interp.h, src/replay/replay_run.h).
//
// A search step keeps the storage of the steps before it: checkpoint
// copies, run buffers and solver scratch come from pools and reused
// vectors, so a warm search allocates little per run, and saving an
// unchanged state or resuming one unpatched allocates nothing. This
// executable replaces the global operator new with one that counts the
// calls made while counting is on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/core/pipeline.h"
#include "src/exec/interp.h"
#include "src/workloads/scenarios.h"
#include "src/workloads/workloads.h"
#include "tests/testutil.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<unsigned long long> g_allocs{0};

}  // namespace

// Out of line, so that no call site sees malloc meet free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace retrace {
namespace {

// Heap allocations per run of the one-worker exp 4 search at replay seed
// 31 under the dynamic low-coverage plan, counted from its 500th run to
// its last. Measured at 4.4 with gcc 12's libstdc++ (the whole search
// averaged 199 per run before runs reused their storage); most of what
// is left is per-fd output strings growing past the capacity a restore
// gave them.
constexpr double kMaxAllocsPerRun = 6.0;

TEST(ReplayAllocTest, SearchStepsAllocateLittle) {
  const WorkloadSources sources = GetWorkload("userver");
  auto pipeline = Pipeline::FromSources(sources.app, sources.libs).take();
  AnalysisConfig analysis;
  analysis.max_runs = 4;
  analysis.seed = 17;
  const AnalysisResult lc = pipeline->RunDynamicAnalysis(UserverExploreSpecLC(), analysis);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::Dynamic(lc));
  const Scenario scenario = UserverScenario(4);
  Pipeline::UserRunOptions options;
  options.policy = scenario.policy.get();
  const auto user = pipeline->RecordUserRun(scenario.spec, plan, options).take();
  ASSERT_TRUE(user.result.Crashed());

  constexpr u64 kWarmRuns = 500;
  u64 taps = 0;
  unsigned long long at_warm = 0;
  unsigned long long at_last = 0;
  ReplayConfig config;
  config.max_runs = 20'000;
  config.seed = 31;
  config.num_workers = 1;
  config.model_tap = [&](u32, const std::vector<i64>&, size_t) {
    const unsigned long long now = g_allocs.load(std::memory_order_relaxed);
    if (++taps == kWarmRuns) {
      at_warm = now;
    }
    at_last = now;
  };
  g_counting = true;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  g_counting = false;
  ASSERT_TRUE(replay.reproduced);
  ASSERT_EQ(replay.stats.runs, 2810u);
  ASSERT_EQ(taps, replay.stats.runs);
  const double per_run =
      static_cast<double>(at_last - at_warm) / static_cast<double>(taps - kWarmRuns);
  RecordProperty("allocs_per_run", std::to_string(per_run));
  EXPECT_LE(per_run, kMaxAllocsPerRun);
}

// Feeds read() from a byte string, each byte backed by the input cell of
// its position, as the replay's syscall layer does.
class Bytes : public SyscallHandler {
 public:
  explicit Bytes(std::string input) : input_(std::move(input)) {}
  SyscallOutcome OnSyscall(Builtin b, const std::vector<i64>& int_args, const std::string&,
                           const std::vector<u8>&) override {
    SyscallOutcome out;
    if (b == Builtin::kRead) {
      const i64 n = std::min(int_args[1], static_cast<i64>(input_.size()) - cursor_);
      for (i64 i = 0; i < n; ++i) {
        out.data.push_back(static_cast<u8>(input_[cursor_ + i]));
        out.data_cells.push_back(static_cast<i32>(cursor_ + i));
      }
      cursor_ += n;
      out.ret = n;
    }
    return out;
  }

 private:
  std::string input_;
  i64 cursor_ = 0;
};

// At read() number `at`: saves into two states in turn until the pools
// are warm, then counts the allocations of one more save into a reused
// state. On later pauses it counts what the resume before them
// allocated.
class CountingSaver : public PauseListener {
 public:
  CountingSaver(Interp* interp, int at) : interp_(interp), at_(at) {}

  void BeforeRead() override {
    if (resuming) {
      resumed_allocs = g_allocs.load() - resume_start;
      resumed_paused = true;
      resuming = false;
      return;
    }
    if (reads_++ != at_) {
      return;
    }
    for (int i = 0; i < 4; ++i) {
      interp_->Save(i % 2 == 0 ? &state : &other);
    }
    const unsigned long long before = g_allocs.load();
    interp_->Save(&state);
    save_allocs = g_allocs.load() - before;
  }

  Interp::State state;
  Interp::State other;
  unsigned long long save_allocs = ~0ull;
  bool resuming = false;
  unsigned long long resume_start = 0;
  unsigned long long resumed_allocs = ~0ull;
  bool resumed_paused = false;

 private:
  Interp* interp_;
  int at_;
  int reads_ = 0;
};

TEST(ReplayAllocTest, SaveOfUnchangedStateAndUnpatchedResumeAllocateNothing) {
  Compiled c = CompileOrDie(R"(
    int g_total = 0;
    int fold(char *buf, int n, int d) {
      int part[2];
      part[d & 1] = buf[d % n];
      if (d == 0) { return part[0]; }
      return part[d & 1] + fold(buf, n, d - 1);
    }
    int round_trip(int round) {
      char buf[8];
      int n = read(0, buf, 7);
      if (n <= 0) { return -1; }
      g_total = g_total + fold(buf, n, round % 5);
      return n;
    }
    int main() {
      int total = 0;
      for (int round = 0; round < 6; round = round + 1) {
        int n = round_trip(round);
        if (n < 0) { break; }
        total = total + n;
      }
      return (total + g_total) % 200;
    }
  )");
  ASSERT_NE(c.module, nullptr);
  const std::string input = "the quick brown fox jumps over the lazy dog";
  ExprArena arena;
  Interp interp(*c.module, InterpOptions{});
  interp.set_shadow_arena(&arena);
  CountingSaver saver(&interp, 3);
  interp.set_pause_listener(&saver);
  Bytes io(input);
  interp.set_syscall_handler(&io);
  g_counting = true;
  const RunResult first = interp.Run();
  ASSERT_EQ(first.status, RunResult::Status::kExit);
  EXPECT_EQ(saver.save_allocs, 0u);

  // The resume restores the state and pauses again at the read it was
  // saved before: nothing in between may allocate. A handler that had
  // delivered the first three reads' bytes goes on from there.
  Bytes resumed_io(input);
  std::vector<u8> unused;
  for (int read = 0; read < 3; ++read) {
    resumed_io.OnSyscall(Builtin::kRead, {0, 7}, "", unused);
  }
  interp.set_syscall_handler(&resumed_io);
  saver.resuming = true;
  saver.resume_start = g_allocs.load();
  const RunResult resumed = interp.Resume(saver.state);
  g_counting = false;
  EXPECT_TRUE(saver.resumed_paused);
  EXPECT_EQ(saver.resumed_allocs, 0u);
  EXPECT_EQ(resumed.exit_code, first.exit_code);
  EXPECT_EQ(resumed.stats.instrs, first.stats.instrs);
}

}  // namespace
}  // namespace retrace
