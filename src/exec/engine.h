// Execution-engine interfaces: what the interpreter calls out to.
//
// Interp (src/exec/interp.h), the tree-walking interpreter, is the one
// execution engine. It reports every executed branch to BranchObserver
// instances and asks a SyscallHandler for every nondeterministic system
// call outcome; InterpOptions carries its per-run limits.
#ifndef RETRACE_SRC_EXEC_ENGINE_H_
#define RETRACE_SRC_EXEC_ENGINE_H_

#include <string>
#include <vector>

#include "src/exec/value.h"
#include "src/lang/builtins.h"

namespace retrace {

class Budget;

// One nondeterministic system call outcome, decided by the handler.
struct SyscallOutcome {
  i64 ret = 0;
  i32 ret_cell = -1;                // Input cell backing `ret` (-1: concrete).
  std::vector<u8> data;             // Bytes delivered into the buffer (read).
  std::vector<i32> data_cells;      // Input cells backing `data` (may be empty).
};

class SyscallHandler {
 public:
  virtual ~SyscallHandler() = default;
  // `int_args` carries the scalar arguments in builtin-specific order;
  // `str_arg` the extracted C string (open/print_str); `write_data` the
  // buffer contents (write).
  virtual SyscallOutcome OnSyscall(Builtin b, const std::vector<i64>& int_args,
                                   const std::string& str_arg,
                                   const std::vector<u8>& write_data) = 0;
};

class BranchObserver {
 public:
  enum class Action { kContinue, kAbort };
  virtual ~BranchObserver() = default;
  // `cond_shadow` is kNoExpr for concrete conditions.
  virtual Action OnBranch(i32 branch_id, bool taken, ExprRef cond_shadow) = 0;
};

// Told about the points where a run can be saved and later resumed
// (Interp::Save, Interp::Resume): every read() call just before it
// executes, and every branch on a symbolic condition just before the
// branch observers see it.
class PauseListener {
 public:
  virtual ~PauseListener() = default;
  virtual void BeforeRead() {}
  // `cond_shadow` is the condition's shadow (never kNoExpr), `taken` the
  // direction the branch is about to go.
  virtual void BeforeBranch([[maybe_unused]] i32 branch_id, [[maybe_unused]] bool taken,
                            [[maybe_unused]] ExprRef cond_shadow) {}
};

// Instructions per external-budget charge.
inline constexpr u64 kBudgetChunk = 1024;

struct InterpOptions {
  u64 max_steps = 500'000'000;
  int max_call_depth = 512;
  // External budget shared with an enclosing analysis; charged
  // kBudgetChunk steps every kBudgetChunk instructions.
  Budget* external_budget = nullptr;
};

// bench/e2e/bench_e2e.cc prints the engine name in its stamp line.
enum class ExecEngineKind : u8 {
  kDefault = 0,
  kTree = 1,
};

inline const char* ExecEngineKindName(ExecEngineKind kind) {
  switch (kind) {
    case ExecEngineKind::kDefault: return "default";
    case ExecEngineKind::kTree: return "tree";
  }
  return "?";
}

inline ExecEngineKind ResolveExecEngineKind(ExecEngineKind /*kind*/) {
  return ExecEngineKind::kTree;
}

}  // namespace retrace

#endif  // RETRACE_SRC_EXEC_ENGINE_H_
