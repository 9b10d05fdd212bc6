// Shared glue for running a program against the cell-driven virtual OS.
//
// Every phase of the pipeline — dynamic analysis, user-site recording,
// developer-site replay — is "interpret the program with some assignment of
// input cells". CellRunner packages the setup: layout construction, cell
// store, virtual OS, argv materialization, interpreter wiring. The runner
// owns one interpreter and re-uses it across runs (pooled frames and
// object storage), so a search performing millions of runs pays
// interpreter setup once.
//
// A run starts at main, or at a RunCheckpoint an earlier run of the same
// runner took just before one of its read() calls. It may start at a
// checkpoint when its model gives every input cell consumed before that
// point the value the checkpointed run consumed (RunCheckpoint::Matches);
// the run is then the one a start at main would have produced.
#ifndef RETRACE_CONCOLIC_CELLRUN_H_
#define RETRACE_CONCOLIC_CELLRUN_H_

#include <string>
#include <vector>

#include "src/exec/interp.h"
#include "src/ir/ir.h"
#include "src/vos/vos.h"

namespace retrace {

// A run paused just before one of its read() calls: the program's and
// the OS's state there, and the input cell values consumed on the way.
struct RunCheckpoint {
  struct ConsumedCell {
    i32 cell = -1;
    i64 value = 0;
  };

  Interp::State exec;
  VirtualOs::State vos;
  size_t read_index = 0;  // Of the paused read() among the run's reads.
  // Cells first consumed since the run's previous checkpoint: for the
  // first one, the argv cells and any syscall result before the first
  // read; after that, the previous read's bytes and the syscall results
  // since. Values as the run consumed them.
  std::vector<ConsumedCell> consumed;
  size_t model_size = 0;  // Cells the checkpointed run's model covered.

  // True when a run of `model` gives every cell in `consumed` the same
  // value. Values are compared after clamping to the cell's domain; a
  // syscall result the checkpointed run took from its model matches only
  // a model that covers it too. A run whose model matches a run's
  // checkpoints 0..k may start at checkpoint k.
  bool Matches(const std::vector<i64>& model, const CellLayout& layout) const;
};

// Takes a run's checkpoints (CellRunConfig::checkpoints).
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  // The run is about to execute its read() number `read_index` (0-based).
  // A resumed run continues the count of the run it resumes, after the
  // read it resumes at. Returns the checkpoint to fill, or null to take
  // none. A sink that declines one read must decline every later read of
  // the run: each checkpoint records what was consumed since the one
  // before.
  virtual RunCheckpoint* AtRead(size_t read_index) = 0;
};

struct CellRunConfig {
  std::vector<i64> model;               // Cell overrides (prefix by id).
  NondetPolicy* policy = nullptr;       // User-site nondeterminism script.
  ExprArena* arena = nullptr;           // Non-null: shadow-symbolic mode.
  std::vector<BranchObserver*> observers;
  const SyscallLog* replay_log = nullptr;
  bool symbolic_syscalls = true;        // Attach cells to syscall results.
  u64 max_steps = 200'000'000;
  Budget* external_budget = nullptr;
  CheckpointSink* checkpoints = nullptr;  // Null: take no checkpoints.
  // Null: start at main. Otherwise a checkpoint of this runner taken with
  // the same arena mode, policy and replay log, whose run's checkpoints
  // up to this one `model` matches. The run starts there and charges the
  // external budget what the checkpointed run had charged by then.
  const RunCheckpoint* resume_from = nullptr;
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
