// Shared glue for running a program against the cell-driven virtual OS.
//
// Every phase of the pipeline — dynamic analysis, user-site recording,
// developer-site replay — is "interpret the program with some assignment of
// input cells". CellRunner packages the setup: layout construction, cell
// store, virtual OS, argv materialization, interpreter wiring. The runner
// owns one interpreter, cell store and virtual OS and re-uses them across
// runs (pooled frames, object and cell storage), so a search performing
// millions of runs pays their setup once.
//
// A run starts at main, or at a RunCheckpoint an earlier run of the same
// runner took at one of its pause points: just before a read() call or a
// branch on a symbolic condition. ResumeRule decides which checkpoints a
// model may start at; the run is then the one a start at main would have
// produced.
#ifndef RETRACE_CONCOLIC_CELLRUN_H_
#define RETRACE_CONCOLIC_CELLRUN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/exec/interp.h"
#include "src/ir/ir.h"
#include "src/vos/vos.h"

namespace retrace {

// A run paused at a pause point: the program's and the OS's state there,
// and what the run did since the checkpoint before it on its path (for
// the first, since main).
struct RunCheckpoint {
  struct ConsumedCell {
    i32 cell = -1;
    i64 value = 0;
  };

  Interp::State exec;
  // Shared with the run's checkpoint before when no builtin ran between.
  std::shared_ptr<const VirtualOs::State> vos;
  bool at_branch = false;  // Paused at a symbolic branch, not a read().
  // Taken in shadow mode. Only then do `concretized` and `branches`
  // record how the run used its stream bytes; without it, ResumeRule
  // holds every consumed cell to its value exactly.
  bool shadowed = false;
  // Input cells consumed since the previous checkpoint, with the values
  // this checkpoint's state holds for them: the argv cells (first
  // checkpoint of a run from main), the stream bytes read() delivered,
  // the syscall results, and — first checkpoint after a patched resume —
  // the cells the patch changed.
  std::vector<ConsumedCell> consumed;
  std::vector<ExprRef> concretized;  // Interp::concretized entries since.
  std::vector<Constraint> branches;  // Symbolic branches since, as taken.
  size_t model_size = 0;  // Cells the checkpointed run's model covered.
};

// The one checkpoint rule. Fed the checkpoints of one path in path
// order, it says for each whether a run of `model` may start there. Let
// Δ be the stream-byte cells consumed before checkpoint k whose value
// under the model differs from the value in k's state (empty unless the
// checkpoints were taken in shadow mode). The model may start at k when
//   - every argv cell and syscall result consumed before k has the value
//     the model gives it (clamped to its domain; a result the
//     checkpointed run took from its model matches only a model that
//     covers it too);
//   - (a) no Δ cell was concretized before k (Interp::concretized); and
//   - (b) every symbolic branch before k that mentions a Δ cell goes the
//     same way under the model.
// The run from main then reaches k on the same path, in the state k
// holds with every shadow that mentions a Δ cell re-evaluated
// (ResumePatch). The rule trusts no parentage: any model may be offered
// any path. Starting at main is the depth-0 case.
class ResumeRule {
 public:
  // Borrows all three; `arena` must hold the checkpoints' expressions.
  ResumeRule(const CellLayout& layout, const ExprArena& arena, const std::vector<i64>& model);
  // Not started yet: Start gives it a model.
  ResumeRule(const CellLayout& layout, const ExprArena& arena);

  // Starts over for `model` (borrowed), at the path's first checkpoint,
  // keeping the storage.
  void Start(const std::vector<i64>& model);

  // Offers the path's next checkpoint. False when the model may not start
  // there; the rule then refuses every later checkpoint too (a
  // conservative answer for them: a false never yields a wrong run).
  bool Admit(const RunCheckpoint& ckpt);
  // Δ at the last admitted checkpoint.
  std::vector<i32> Delta() const;

  // For a caller that skips checkpoints Admit would take unchanged:
  // gives syscall result `cell` the value the path consumed for it, as
  // Admit of its checkpoint would, so later branches evaluate the same.
  void Pin(i32 cell, i64 value);
  // Static cell values under the model, clamped into their domains.
  const std::vector<i64>& values() const { return values_; }

 private:
  // Applies the consumed cells; false on a mismatch of an exact cell or a
  // consumed cell re-valued into Δ. Cells whose Δ membership flipped go
  // to undo_.
  bool Consume(const RunCheckpoint& ckpt);

  const CellLayout& layout_;
  const ExprArena& arena_;
  const std::vector<i64>* model_ = nullptr;
  // Cell values under the model: static cells as the run's CellStore
  // holds them, syscall results as consumed.
  std::vector<i64> values_;
  std::vector<u8> consumed_;  // Per static cell: consumed before.
  std::vector<i32> consumed_cells_;  // The cells consumed_ marks.
  std::vector<u8> in_delta_;  // Per static cell: in Δ.
  std::vector<i32> delta_;    // Cells ever put in Δ, in order.
  u64 delta_mask_ = 0;        // Covers ExprArena::VarBit of every Δ cell.
  std::vector<i32> undo_;
  bool refused_ = false;
};

// Where a run is paused (CheckpointSink::AtPause).
struct PausePoint {
  bool at_branch = false;  // Else at a read() call.
  i32 branch_id = -1;
  bool taken = false;      // The direction the branch is about to go.
  u64 instrs = 0;          // Instructions the run executed before this one.
};

// Takes a run's checkpoints (CellRunConfig::checkpoints).
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  // The run is paused at `at`. Returns the checkpoint to fill, or null to
  // take none. A resumed run's first pause point is the one it resumed
  // at; it is not offered again.
  virtual RunCheckpoint* AtPause(const PausePoint& at) = 0;
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
  // the same arena, policy and replay log, which ResumeRule admits for
  // `model` along the path of the runner's checkpoints up to it. The run
  // starts there, patches `resume_delta` (ResumeRule::Delta) into the
  // state, and charges the external budget what the checkpointed run had
  // charged by then.
  const RunCheckpoint* resume_from = nullptr;
  std::vector<i32> resume_delta;
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
        cells_(layout_, {}),
        vos_(spec_.world, &cells_, &layout_),
        interp_(module, InterpOptions{}) {}

  const CellLayout& layout() const { return layout_; }
  const InputSpec& spec() const { return spec_; }

  CellRunOutput Run(const CellRunConfig& config);

 private:
  InputSpec spec_;
  CellLayout layout_;
  CellStore cells_;
  VirtualOs vos_;
  Interp interp_;
};

}  // namespace retrace

#endif  // RETRACE_CONCOLIC_CELLRUN_H_
