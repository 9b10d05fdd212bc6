// Virtual OS: the simulated environment MiniC programs run against.
//
// Everything nondeterministic about the environment is an *input cell*:
//   - static cells: argv bytes and stream bytes (file contents, stdin,
//     network request bytes), laid out up front by CellLayout;
//   - dynamic cells: system-call results (read() return counts, select()
//     readiness order, accept() arrivals, pending-signal polls), allocated
//     lazily in execution order.
//
// The same machinery serves every phase of the paper's pipeline:
//   - user-site runs use concrete cell defaults plus a NondetPolicy script
//     (e.g. "deliver a signal after the 3rd poll");
//   - pre-deployment dynamic analysis marks all cells symbolic and lets the
//     concolic engine explore alternative values;
//   - developer-site replay searches over cell values, optionally pinning
//     system-call cells from a shipped log (paper §3.3).
#ifndef RETRACE_VOS_VOS_H_
#define RETRACE_VOS_VOS_H_

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/exec/interp.h"
#include "src/solver/interval.h"
#include "src/support/common.h"

namespace retrace {

// ----- World shape ---------------------------------------------------------

struct StreamShape {
  std::string name;
  std::vector<u8> bytes;  // Concrete contents; empty in privacy-stripped shapes.
  i64 length = 0;         // Logical length (bytes.size() when bytes present).
  i64 chunk = -1;         // Max bytes a single read() may deliver; -1 = unlimited.
};

// The structure of the environment: how many input streams exist and how
// they are wired up. The *shape* (lengths, counts) ships to the developer
// in a bug report; the byte contents never do.
struct WorldShape {
  std::vector<StreamShape> streams;
  std::vector<std::pair<std::string, i32>> files;  // path -> stream index.
  i32 stdin_stream = -1;
  std::vector<i32> connection_streams;  // Streams arriving as connections, in order.
  int max_concurrent_conns = 1;
  i32 listen_fd = 3;

  // Returns the shape with all stream contents removed (what a bug report
  // may legally contain).
  WorldShape StripContents() const;
};

// A full program input: argv plus the world. argv[0] is the program name
// and is never symbolic. Arguments may be marked *public*: they are part
// of the shape a bug report legally contains (e.g. file paths that also
// appear in the world's FS map) and are neither symbolic nor stripped.
struct InputSpec {
  std::vector<std::string> argv;
  std::vector<bool> argv_public;  // Parallel to argv; missing entries = private.
  WorldShape world;

  bool ArgIsPublic(size_t i) const {
    return i == 0 || (i < argv_public.size() && argv_public[i]);
  }
};

// ----- Cells ---------------------------------------------------------------

enum class CellKind { kArgvByte, kStreamByte, kSyscallResult };

struct CellInfo {
  CellKind kind = CellKind::kSyscallResult;
  i32 tag1 = -1;  // Arg index / stream index.
  i32 tag2 = -1;  // Byte offset.
  Builtin sys = Builtin::kRead;  // For kSyscallResult.
};

// Static cell layout derived from an InputSpec. Stable across runs with the
// same shape, which is what lets solver models be re-injected.
class CellLayout {
 public:
  static CellLayout Build(const InputSpec& spec);

  i32 num_static() const { return num_static_; }
  i32 ArgByteCell(size_t arg, size_t byte) const;
  i32 StreamByteCell(size_t stream, i64 byte) const;
  const std::vector<i64>& defaults() const { return defaults_; }
  const std::vector<Interval>& domains() const { return domains_; }
  const std::vector<CellInfo>& info() const { return info_; }

  // Rebuilds concrete argv strings from cell values.
  std::vector<std::string> MaterializeArgv(const InputSpec& spec,
                                           const std::vector<i64>& values) const;
  // Cell ids backing each argv string (for Interp::Run).
  std::vector<std::vector<i32>> ArgvCells(const InputSpec& spec) const;

 private:
  i32 num_static_ = 0;
  std::vector<i32> arg_offsets_;     // Per argv index; -1 for argv[0].
  std::vector<i32> stream_offsets_;  // Per stream index.
  std::vector<i64> defaults_;
  std::vector<Interval> domains_;
  std::vector<CellInfo> info_;
};

// Scripts user-site nondeterminism: decides dynamic cell outcomes when no
// solver model covers them. `natural` is the outcome a well-behaved kernel
// would produce (full read, first-ready descriptor, no signal).
class NondetPolicy {
 public:
  virtual ~NondetPolicy() = default;
  virtual i64 DefaultFor([[maybe_unused]] Builtin kind, [[maybe_unused]] int occurrence,
                         i64 natural) {
    return natural;
  }
};

// Delivers poll_signal() == 1 on exactly the `occurrence`-th poll (0-based).
class SignalAfterPolicy : public NondetPolicy {
 public:
  explicit SignalAfterPolicy(int occurrence) : occurrence_(occurrence) {}
  i64 DefaultFor(Builtin kind, int occurrence, i64 natural) override {
    if (kind == Builtin::kPollSignal) {
      return occurrence == occurrence_ ? 1 : 0;
    }
    return natural;
  }

 private:
  int occurrence_;
};

// Per-run store of cell values. Static cells come from the layout; dynamic
// cells are appended in execution order. A solver model overrides values
// for every cell id it covers.
class CellStore {
 public:
  CellStore(const CellLayout& layout, std::vector<i64> model);

  // Back to the state the constructor leaves, for another run over the
  // same layout. Storage the last run's MoveInto took is allocated again
  // at once for as many dynamic cells as that run made.
  void Reset(const std::vector<i64>& model);

  void set_policy(NondetPolicy* policy) { policy_ = policy; }

  struct DynRecord {
    Builtin kind = Builtin::kRead;
    i64 value = 0;
    i32 cell = -1;
  };

  // The dynamic cells allocated so far, and what allocating the next one
  // depends on.
  struct Dynamic {
    std::vector<i64> values;
    std::vector<Interval> domains;
    std::vector<CellInfo> info;
    std::array<int, kNumBuiltins> occurrence{};
    std::vector<DynRecord> trace;
  };

  // Allocates (or resolves) the next dynamic cell for syscall kind `sys`.
  i32 AllocDynamic(Builtin sys, Interval domain, i64 natural, i64* value_out);

  void SaveDynamic(Dynamic* out) const;
  // Moves the run's cells out; the store is spent until Reset.
  void MoveInto(std::vector<i64>* values, std::vector<Interval>* domains,
                std::vector<CellInfo>* info, std::vector<DynRecord>* dynamic_trace);
  // Replaces the dynamic cells; static cells keep their values.
  void RestoreDynamic(const Dynamic& from);

  i64 ValueOf(i32 cell) const { return values_[cell]; }
  const std::vector<i64>& values() const { return values_; }
  const std::vector<Interval>& domains() const { return domains_; }
  const std::vector<CellInfo>& info() const { return info_; }
  i32 num_static() const { return num_static_; }
  const std::vector<DynRecord>& dynamic_trace() const { return dynamic_trace_; }

 private:
  const CellLayout* layout_;
  std::vector<i64> values_;
  std::vector<Interval> domains_;
  std::vector<CellInfo> info_;
  std::vector<i64> model_;
  i32 num_static_ = 0;
  NondetPolicy* policy_ = nullptr;
  std::array<int, kNumBuiltins> occurrence_{};  // Per Builtin.
  std::vector<DynRecord> dynamic_trace_;
  size_t dynamic_hint_ = 0;  // Dynamic cells the last run made.
};

// ----- Syscall log -----------------------------------------------------------

// Result log for the selective system-call logging of paper §2.3/§3.3: the
// sequence of nondeterministic results, in call order. Input bytes are
// never part of it.
struct SyscallRecord {
  Builtin kind = Builtin::kRead;
  i64 value = 0;
};
using SyscallLog = std::vector<SyscallRecord>;

// ----- Virtual OS ------------------------------------------------------------

// Cell-driven SyscallHandler. Captures all program output per fd.
class VirtualOs : public SyscallHandler {
 public:
  struct FdEntry {
    enum class Type { kClosed, kStdin, kStdout, kListen, kFile, kConn };
    Type type = Type::kClosed;
    i32 stream = -1;
    i64 cursor = 0;
  };

  // Input cells [first, first + count): the stream bytes one read()
  // delivered.
  struct CellRange {
    i32 first = 0;
    i32 count = 0;
  };

  // Everything a run has changed in the OS and its cell store: enough to
  // continue the run from here (Interp::State holds the program's side).
  struct State {
    std::vector<FdEntry> fds;
    size_t next_conn = 0;
    int open_conns = 0;
    std::string stdout_text;
    std::unordered_map<i32, std::string> fd_output;
    size_t log_cursor = 0;
    bool log_diverged = false;
    CellStore::Dynamic cells;
  };

  VirtualOs(const WorldShape& shape, CellStore* cells, const CellLayout* layout);

  // Back to the state the constructor leaves, for another run, keeping
  // the storage. The replay log and the symbolic-results switch stay.
  void Reset();

  // Pins syscall results from a shipped log. On the first divergence
  // (different call order than the log), falls back to symbolic cells.
  void set_replay_log(const SyscallLog* log) { replay_log_ = log; }
  // When true (analysis/replay), syscall results carry shadow cells; when
  // false (plain user-site run), results are concrete.
  void set_symbolic_results(bool on) { symbolic_results_ = on; }

  SyscallOutcome OnSyscall(Builtin b, const std::vector<i64>& int_args,
                           const std::string& str_arg, const std::vector<u8>& write_data) override;

  const std::string& stdout_text() const { return stdout_; }
  // Moves the stdout text out; stdout_text() is empty afterwards.
  std::string TakeStdout() { return std::move(stdout_); }
  std::string WrittenTo(i32 fd) const;
  bool log_diverged() const { return log_diverged_; }
  // The bytes the latest read() delivered (count 0: none).
  CellRange last_read() const { return last_read_; }

  void Save(State* out) const;
  // Continues from `from`, which must come from a VirtualOs over the same
  // shape, layout and replay log.
  void Restore(const State& from);

 private:
  i32 AllocFd(FdEntry entry);
  bool FdReadable(i64 fd) const;
  i64 RemainingBytes(const FdEntry& entry) const;
  // Resolves one nondeterministic outcome: replay log first, then cell.
  i64 Outcome(Builtin b, Interval domain, i64 natural, i32* cell_out);

  SyscallOutcome DoRead(const std::vector<i64>& int_args);
  SyscallOutcome DoWrite(const std::vector<i64>& int_args, const std::vector<u8>& data);
  SyscallOutcome DoOpen(const std::string& path, i64 flags);
  SyscallOutcome DoClose(i64 fd);
  SyscallOutcome DoSelect(const std::vector<i64>& int_args);
  SyscallOutcome DoAccept(i64 listen_fd);
  SyscallOutcome DoPollSignal();

  const WorldShape& shape_;
  CellStore* cells_;
  const CellLayout* layout_;
  const SyscallLog* replay_log_ = nullptr;
  bool symbolic_results_ = true;
  bool log_diverged_ = false;
  size_t log_cursor_ = 0;

  std::vector<FdEntry> fds_;
  size_t next_conn_ = 0;
  int open_conns_ = 0;
  std::string stdout_;
  std::unordered_map<i32, std::string> fd_output_;
  CellRange last_read_;
};

}  // namespace retrace

#endif  // RETRACE_VOS_VOS_H_
