// Shared glue for running a program against the cell-driven virtual OS.
//
// Every phase of the pipeline — dynamic analysis, user-site recording,
// developer-site replay — is "interpret the program with some assignment of
// input cells". CellRunner packages the setup: layout construction, cell
// store, virtual OS, argv materialization, interpreter wiring. The runner
// owns one interpreter and re-uses it across runs (pooled frames and
// object storage), so a search performing millions of runs pays
// interpreter setup once.
#ifndef RETRACE_CONCOLIC_CELLRUN_H_
#define RETRACE_CONCOLIC_CELLRUN_H_

#include <string>
#include <vector>

#include "src/exec/interp.h"
#include "src/ir/ir.h"
#include "src/vos/vos.h"

namespace retrace {

struct CellRunConfig {
  std::vector<i64> model;               // Cell overrides (prefix by id).
  NondetPolicy* policy = nullptr;       // User-site nondeterminism script.
  ExprArena* arena = nullptr;           // Non-null: shadow-symbolic mode.
  std::vector<BranchObserver*> observers;
  const SyscallLog* replay_log = nullptr;
  bool symbolic_syscalls = true;        // Attach cells to syscall results.
  u64 max_steps = 200'000'000;
  Budget* external_budget = nullptr;
};

struct CellRunOutput {
  RunResult result;
  std::vector<i64> cells;               // Final values: static + dynamic.
  std::vector<Interval> domains;
  std::vector<CellInfo> cell_info;
  std::vector<CellStore::DynRecord> dyn_trace;
  std::string stdout_text;
  bool log_diverged = false;
};

class CellRunner {
 public:
  CellRunner(const IrModule& module, InputSpec spec)
      : spec_(std::move(spec)),
        layout_(CellLayout::Build(spec_)),
        interp_(module, InterpOptions{}) {}

  const CellLayout& layout() const { return layout_; }
  const InputSpec& spec() const { return spec_; }

  CellRunOutput Run(const CellRunConfig& config);

 private:
  InputSpec spec_;
  CellLayout layout_;
  Interp interp_;
};

}  // namespace retrace

#endif  // RETRACE_CONCOLIC_CELLRUN_H_
