#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "src/concolic/cellrun.h"
#include "src/instrument/syscall_log.h"
#include "tests/testutil.h"

namespace retrace {
namespace {

InputSpec SpecWithStdin(std::string_view data, i64 chunk = -1) {
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = -1;
  spec.world.stdin_stream = 0;
  StreamShape stream;
  stream.name = "stdin";
  stream.bytes.assign(data.begin(), data.end());
  stream.length = static_cast<i64>(stream.bytes.size());
  stream.chunk = chunk;
  spec.world.streams.push_back(stream);
  return spec;
}

TEST(VosTest, CellLayoutArgvAndStreams) {
  InputSpec spec;
  spec.argv = {"prog", "ab", "c"};
  spec.world.streams.push_back(StreamShape{"s", {'x', 'y'}, 2, -1});
  const CellLayout layout = CellLayout::Build(spec);
  // "ab" + NUL, "c" + NUL, two stream bytes.
  EXPECT_EQ(layout.num_static(), 7);
  EXPECT_EQ(layout.ArgByteCell(0, 0), -1);  // argv[0] is not symbolic.
  EXPECT_EQ(layout.ArgByteCell(1, 1), 1);
  EXPECT_EQ(layout.ArgByteCell(1, 2), 2);  // NUL cell, domain {0,0}.
  EXPECT_EQ(layout.ArgByteCell(2, 0), 3);
  EXPECT_EQ(layout.StreamByteCell(0, 1), 6);
  EXPECT_EQ(layout.defaults()[0], 'a');
  EXPECT_EQ(layout.defaults()[2], 0);
  EXPECT_EQ(layout.domains()[2], (Interval{0, 0}));
  EXPECT_EQ(layout.defaults()[6], 'y');
}

TEST(VosTest, MaterializeArgvAppliesModel) {
  InputSpec spec;
  spec.argv = {"prog", "ab"};
  const CellLayout layout = CellLayout::Build(spec);
  std::vector<i64> values = layout.defaults();
  values[0] = 'Z';
  const auto argv = layout.MaterializeArgv(spec, values);
  ASSERT_EQ(argv.size(), 2u);
  EXPECT_EQ(argv[1], "Zb");
}

TEST(VosTest, StdinReadDeliversBytes) {
  Compiled c = CompileOrDie(R"(
    int main() {
      char buf[16];
      int n = read(0, buf, 15);
      if (n < 0) { return -1; }
      buf[n] = 0;
      print_str(buf);
      return n;
    }
  )");
  CellRunner runner(*c.module, SpecWithStdin("hello"));
  const CellRunOutput out = runner.Run(CellRunConfig{});
  EXPECT_EQ(out.result.exit_code, 5);
  EXPECT_EQ(out.stdout_text, "hello");
}

TEST(VosTest, ChunkedReadsArePartial) {
  Compiled c = CompileOrDie(R"(
    int main() {
      char buf[32];
      int total = 0;
      int reads = 0;
      int r = read(0, buf, 31);
      while (r > 0) {
        total = total + r;
        reads = reads + 1;
        r = read(0, &buf[total], 31 - total);
      }
      return reads * 100 + total;
    }
  )");
  CellRunner runner(*c.module, SpecWithStdin("0123456789", /*chunk=*/4));
  const CellRunOutput out = runner.Run(CellRunConfig{});
  // 4 + 4 + 2 bytes over three reads.
  EXPECT_EQ(out.result.exit_code, 310);
}

TEST(VosTest, OpenMissingFileFails) {
  Compiled c = CompileOrDie(R"(
    int main() { return open("nope.txt", 0); }
  )");
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = -1;
  CellRunner runner(*c.module, spec);
  const CellRunOutput out = runner.Run(CellRunConfig{});
  EXPECT_EQ(out.result.exit_code, -1);
}

TEST(VosTest, FileOpenReadClose) {
  Compiled c = CompileOrDie(R"(
    int main() {
      int fd = open("data.txt", 0);
      if (fd < 0) { return -1; }
      char buf[8];
      int n = read(fd, buf, 7);
      close(fd);
      return n * 10 + buf[0] - '0';
    }
  )");
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = -1;
  spec.world.files.emplace_back("data.txt", 0);
  spec.world.streams.push_back(StreamShape{"data.txt", {'7', '8'}, 2, -1});
  CellRunner runner(*c.module, spec);
  const CellRunOutput out = runner.Run(CellRunConfig{});
  EXPECT_EQ(out.result.exit_code, 27);
}

TEST(VosTest, AcceptSelectConnectionFlow) {
  Compiled c = CompileOrDie(R"(
    int main() {
      int fds[2];
      fds[0] = 3;
      int got = 0;
      int loops = 0;
      char buf[32];
      int conn = -1;
      while (loops < 20) {
        loops = loops + 1;
        int n = 1;
        if (conn >= 0) { fds[1] = conn; n = 2; }
        int ready = select_fd(fds, n);
        if (ready < 0) { continue; }
        if (fds[ready] == 3) {
          conn = accept_conn(3);
          continue;
        }
        int r = read(conn, buf, 31);
        if (r > 0) { got = got + r; }
        if (r <= 0) { close(conn); break; }
      }
      return got;
    }
  )");
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = 3;
  spec.world.connection_streams.push_back(0);
  spec.world.streams.push_back(StreamShape{"conn", {'p', 'i', 'n', 'g'}, 4, -1});
  CellRunner runner(*c.module, spec);
  const CellRunOutput out = runner.Run(CellRunConfig{});
  EXPECT_EQ(out.result.exit_code, 4);
}

TEST(VosTest, SignalPolicyDelivers) {
  Compiled c = CompileOrDie(R"(
    int main() {
      int polls = 0;
      while (polls < 100) {
        if (poll_signal()) { return polls; }
        polls = polls + 1;
      }
      return -1;
    }
  )");
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = -1;
  CellRunner runner(*c.module, spec);
  SignalAfterPolicy policy(5);
  CellRunConfig config;
  config.policy = &policy;
  const CellRunOutput out = runner.Run(config);
  EXPECT_EQ(out.result.exit_code, 5);
}

TEST(VosTest, DynamicTraceRecordsSyscalls) {
  Compiled c = CompileOrDie(R"(
    int main() {
      char buf[8];
      int r = read(0, buf, 4);
      if (poll_signal()) { return 1; }
      return r;
    }
  )");
  CellRunner runner(*c.module, SpecWithStdin("abcd"));
  const CellRunOutput out = runner.Run(CellRunConfig{});
  ASSERT_EQ(out.dyn_trace.size(), 2u);
  EXPECT_EQ(out.dyn_trace[0].kind, Builtin::kRead);
  EXPECT_EQ(out.dyn_trace[0].value, 4);
  EXPECT_EQ(out.dyn_trace[1].kind, Builtin::kPollSignal);
  const SyscallLog log = SyscallLogFromTrace(out.dyn_trace);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(SyscallLogBytes(log), 10u);
}

TEST(VosTest, ReplayLogPinsResults) {
  Compiled c = CompileOrDie(R"(
    int main() {
      char buf[16];
      int r1 = read(0, buf, 10);
      int r2 = read(0, &buf[r1], 10);
      return r1 * 10 + r2;
    }
  )");
  // Log says: first read returned 3, second returned 2.
  SyscallLog log = {{Builtin::kRead, 3}, {Builtin::kRead, 2}};
  CellRunner runner(*c.module, SpecWithStdin("abcdefgh"));
  CellRunConfig config;
  config.replay_log = &log;
  const CellRunOutput out = runner.Run(config);
  EXPECT_EQ(out.result.exit_code, 32);
  EXPECT_FALSE(out.log_diverged);
}

TEST(VosTest, ModelOverridesSyscallCells) {
  Compiled c = CompileOrDie(R"(
    int main() {
      char buf[16];
      int r = read(0, buf, 10);
      return r;
    }
  )");
  CellRunner runner(*c.module, SpecWithStdin("abcdefgh"));
  // First run captures the dynamic cell id; then force a short read.
  CellRunOutput first = runner.Run(CellRunConfig{});
  EXPECT_EQ(first.result.exit_code, 8);
  ASSERT_EQ(first.dyn_trace.size(), 1u);
  std::vector<i64> model = first.cells;
  model[first.dyn_trace[0].cell] = 2;
  CellRunConfig config;
  config.model = model;
  const CellRunOutput out = runner.Run(config);
  EXPECT_EQ(out.result.exit_code, 2);
}

TEST(VosTest, StripContentsKeepsShape) {
  InputSpec spec = SpecWithStdin("secret-bytes");
  const WorldShape stripped = spec.world.StripContents();
  ASSERT_EQ(stripped.streams.size(), 1u);
  EXPECT_TRUE(stripped.streams[0].bytes.empty());
  EXPECT_EQ(stripped.streams[0].length, 12);
}

// An echo server over two connections that arrive one after the other:
// accepts, selects and chunked reads interleave, every request is echoed
// to its connection and printed to stdout.
constexpr std::string_view kEchoServer = R"(
  int main() {
    int fds[2];
    fds[0] = 3;
    int conn = -1;
    int served = 0;
    char buf[16];
    for (int loops = 0; loops < 40; loops = loops + 1) {
      int n = 1;
      if (conn >= 0) { fds[1] = conn; n = 2; }
      int ready = select_fd(fds, n);
      if (ready < 0) {
        if (conn < 0) { break; }
        ready = 1;  // Drained: read the end of the stream.
      }
      if (fds[ready] == 3) { conn = accept_conn(3); continue; }
      int r = read(conn, buf, 15);
      if (r <= 0) { close(conn); conn = -1; continue; }
      buf[r] = 0;
      print_str(buf);
      write(conn, buf, r);
      served = served + r;
    }
    return served;
  }
)";

InputSpec EchoSpec() {
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = 3;
  spec.world.connection_streams = {0, 1};
  spec.world.streams.push_back(StreamShape{"c0", {'G', 'E', 'T', ' ', '/', 'a', 'b'}, 7, 3});
  spec.world.streams.push_back(StreamShape{"c1", {'P', 'O', 'S', 'T', ' ', 'x'}, 6, 4});
  return spec;
}

// One run's OS side: a cell store and the virtual OS over it.
struct EchoWorld {
  EchoWorld(const InputSpec& spec, const CellLayout& layout)
      : cells(layout, {}), vos(spec.world, &cells, &layout) {}
  CellStore cells;
  VirtualOs vos;
};

// Saves the interpreter and the OS just before read() number `at`.
class SaveOsAtRead : public PauseListener {
 public:
  SaveOsAtRead(Interp* interp, const VirtualOs* vos, int at)
      : interp_(interp), vos_(vos), at_(at) {}

  void BeforeRead() override {
    if (reads_++ == at_) {
      interp_->Save(&exec);
      vos_->Save(&os);
    }
  }

  int reads() const { return reads_; }

  Interp::State exec;
  VirtualOs::State os;

 private:
  Interp* interp_;
  const VirtualOs* vos_;
  int at_;
  int reads_ = 0;
};

TEST(VosTest, ResumeAtReadMatchesUninterruptedRun) {
  Compiled c = CompileOrDie(kEchoServer);
  ASSERT_NE(c.module, nullptr);
  const InputSpec spec = EchoSpec();
  const CellLayout layout = CellLayout::Build(spec);

  EchoWorld whole_world(spec, layout);
  Interp whole(*c.module, InterpOptions{});
  whole.set_syscall_handler(&whole_world.vos);
  SaveOsAtRead counter(&whole, &whole_world.vos, -1);
  whole.set_pause_listener(&counter);
  const RunResult expected = whole.Run();
  ASSERT_EQ(expected.status, RunResult::Status::kExit);
  ASSERT_EQ(expected.exit_code, 13);
  ASSERT_EQ(whole_world.vos.stdout_text(), "GET /abPOST x");
  ASSERT_EQ(whole_world.vos.WrittenTo(4), "GET /abPOST x");
  ASSERT_GE(counter.reads(), 6);

  for (int at = 0; at < counter.reads(); ++at) {
    SCOPED_TRACE(testing::Message() << "read " << at);
    Interp interp(*c.module, InterpOptions{});
    EchoWorld first(spec, layout);
    interp.set_syscall_handler(&first.vos);
    SaveOsAtRead saver(&interp, &first.vos, at);
    interp.set_pause_listener(&saver);
    interp.Run();
    interp.set_pause_listener(nullptr);

    EchoWorld resumed(spec, layout);
    resumed.vos.Restore(saver.os);
    interp.set_syscall_handler(&resumed.vos);
    const RunResult got = interp.Resume(saver.exec);

    EXPECT_EQ(got.status, expected.status);
    EXPECT_EQ(got.exit_code, expected.exit_code);
    EXPECT_EQ(got.stats.instrs, expected.stats.instrs);
    EXPECT_EQ(got.stats.syscalls, expected.stats.syscalls);
    EXPECT_EQ(resumed.vos.stdout_text(), whole_world.vos.stdout_text());
    EXPECT_EQ(resumed.vos.WrittenTo(4), whole_world.vos.WrittenTo(4));
    EXPECT_EQ(resumed.cells.values(), whole_world.cells.values());
    EXPECT_EQ(resumed.cells.domains(), whole_world.cells.domains());
    ASSERT_EQ(resumed.cells.info().size(), whole_world.cells.info().size());
    for (size_t i = 0; i < whole_world.cells.info().size(); ++i) {
      EXPECT_EQ(resumed.cells.info()[i].tag1, whole_world.cells.info()[i].tag1) << i;
      EXPECT_EQ(resumed.cells.info()[i].sys, whole_world.cells.info()[i].sys) << i;
    }
    const auto& got_trace = resumed.cells.dynamic_trace();
    const auto& want_trace = whole_world.cells.dynamic_trace();
    ASSERT_EQ(got_trace.size(), want_trace.size());
    for (size_t i = 0; i < want_trace.size(); ++i) {
      EXPECT_EQ(got_trace[i].kind, want_trace[i].kind) << i;
      EXPECT_EQ(got_trace[i].value, want_trace[i].value) << i;
      EXPECT_EQ(got_trace[i].cell, want_trace[i].cell) << i;
    }
    ASSERT_EQ(interp.objects().size(), whole.objects().size());
    for (size_t id = 0; id < whole.objects().size(); ++id) {
      EXPECT_EQ(interp.objects()[id].gen, whole.objects()[id].gen) << "object " << id;
      EXPECT_EQ(interp.objects()[id].cells, whole.objects()[id].cells) << "object " << id;
    }
    EXPECT_EQ(interp.free_objects(), whole.free_objects());
  }
}

// Collects every checkpoint of a run.
class KeepAll : public CheckpointSink {
 public:
  RunCheckpoint* AtPause(const PausePoint& at) override {
    EXPECT_FALSE(at.at_branch);  // Without shadows no branch is symbolic.
    return &taken.emplace_back();
  }
  std::deque<RunCheckpoint> taken;

  // How many leading checkpoints ResumeRule admits for `model`.
  size_t Admitted(const std::vector<i64>& model, const CellLayout& layout) const {
    ExprArena arena;
    ResumeRule rule(layout, arena, model);
    size_t count = 0;
    while (count < taken.size() && rule.Admit(taken[count])) {
      ++count;
    }
    return count;
  }
};

TEST(VosTest, CheckpointsRecordWhatTheRunConsumed) {
  Compiled c = CompileOrDie(kEchoServer);
  ASSERT_NE(c.module, nullptr);
  CellRunner runner(*c.module, EchoSpec());
  KeepAll sink;
  CellRunConfig config;
  config.checkpoints = &sink;
  const CellRunOutput whole = runner.Run(config);
  ASSERT_GE(sink.taken.size(), 6u);
  // Read k's checkpoint holds the bytes read k-1 delivered and the
  // syscall results since read k-1; together they are every cell the
  // run consumed before its last read.
  std::vector<i32> consumed;
  for (const RunCheckpoint& ckpt : sink.taken) {
    for (const RunCheckpoint::ConsumedCell& cell : ckpt.consumed) {
      EXPECT_EQ(cell.value, whole.cells[cell.cell]);
      consumed.push_back(cell.cell);
    }
  }
  std::sort(consumed.begin(), consumed.end());
  EXPECT_EQ(std::adjacent_find(consumed.begin(), consumed.end()), consumed.end());
  // Stream 0's 7 bytes (cells 0-6) are all read before the run's last read.
  EXPECT_EQ(std::count_if(consumed.begin(), consumed.end(), [&](i32 c) { return c < 7; }), 7);

  // The run's own model is admitted at every checkpoint. Without shadows
  // nothing records how a byte was used, so a model that changes one is
  // admitted exactly at the checkpoints before that byte's read.
  std::vector<i64> model = whole.cells;
  EXPECT_EQ(sink.Admitted(model, runner.layout()), sink.taken.size());
  model[0] = 'P';
  EXPECT_EQ(sink.Admitted(model, runner.layout()), 1u);  // Before the first read only.

  // The syscall results before the first read (select, accept) are
  // consumed before it too.
  ASSERT_FALSE(whole.dyn_trace.empty());
  const CellStore::DynRecord& first = whole.dyn_trace[0];
  ASSERT_EQ(first.kind, Builtin::kSelectFd);
  model = whole.cells;
  model[first.cell] = first.value == 0 ? -1 : 0;
  EXPECT_EQ(sink.Admitted(model, runner.layout()), 0u);

  // Resuming at every checkpoint reproduces the run.
  for (const RunCheckpoint& ckpt : sink.taken) {
    CellRunConfig resume;
    resume.model = whole.cells;
    resume.resume_from = &ckpt;
    const CellRunOutput got = runner.Run(resume);
    EXPECT_EQ(got.result.exit_code, whole.result.exit_code);
    EXPECT_EQ(got.result.stats.instrs, whole.result.stats.instrs);
    EXPECT_EQ(got.cells, whole.cells);
    EXPECT_EQ(got.stdout_text, whole.stdout_text);
  }
}

}  // namespace
}  // namespace retrace
