// Concrete IR interpreter with optional shadow-symbolic tracking.
//
// The tree-walking interpreter is the system's one execution engine. It
// executes the program deterministically given (a) argv byte values, and
// (b) a SyscallHandler (src/exec/engine.h) deciding every nondeterministic
// system-call outcome. With an ExprArena attached it additionally
// propagates shadow expressions over input cells alongside the concrete
// values; branch observers then see, for every executed branch, whether
// its condition was symbolic — the raw signal behind the paper's dynamic
// analysis, the branch recorder, and the replay engine.
//
// An interpreter is constructed once per (module, thread) and re-used
// across runs: per-run state (memory objects, global slots, frames) is
// pooled and reset, not reallocated, so a search performing millions of
// runs amortizes setup. **Thread safety:** none — one Interp per thread.
#ifndef RETRACE_EXEC_INTERP_H_
#define RETRACE_EXEC_INTERP_H_

#include <string>
#include <vector>

#include "src/exec/engine.h"
#include "src/exec/value.h"
#include "src/ir/ir.h"
#include "src/support/budget.h"

namespace retrace {

class Interp {
 public:
  Interp(const IrModule& module, InterpOptions options);

  void set_syscall_handler(SyscallHandler* handler) { syscalls_ = handler; }
  void AddObserver(BranchObserver* observer) { observers_.push_back(observer); }
  void ClearObservers() { observers_.clear(); }
  // Enables (non-null) or disables (null) shadow tracking for subsequent
  // runs. The arena must outlive the interpreter runs.
  void set_shadow_arena(ExprArena* arena) { arena_ = arena; }
  // Per-run limits; cheap, call before every Run.
  void set_options(const InterpOptions& options) { options_ = options; }

  // Runs main. `argv` are the concrete argument strings (argv[0] included);
  // `argv_cells[i]` optionally names the input cell ids backing argv[i]'s
  // bytes (shadow mode).
  RunResult Run(const std::vector<std::string>& argv,
                const std::vector<std::vector<i32>>& argv_cells);

  // Convenience for programs whose main takes no arguments.
  RunResult Run() { return Run({"prog"}, {}); }

 private:
  struct Frame {
    const IrFunction* fn = nullptr;
    std::vector<Value> slots;
    std::vector<ExprRef> shadows;
    std::vector<i32> objects;  // Frame object ids, parallel to fn->frame_objects.
    i32 bb = 0;
    size_t ip = 0;
    Operand ret_dst;  // Caller destination for the return value.
    bool ret_dst_char = false;
  };

  bool shadow_on() const { return arena_ != nullptr; }

  i32 AllocObject(i64 size, bool is_char);
  void FreeObject(i32 id);
  // Pooled between-runs reset: marks every object dead and rebuilds the
  // free list so allocation order (and thus every object id) matches a
  // freshly constructed interpreter, while cell storage keeps its
  // capacity. Generation counters keep monotonically increasing across
  // runs — unobservable, since no output carries absolute generations and
  // every generation comparison is between values captured in one run.
  void ResetObjectPool();

  Value EvalOperand(const Operand& op, const Frame& frame) const;
  ExprRef EvalShadow(const Operand& op, const Frame& frame) const;
  void WriteSlot(const Operand& dst, Frame& frame, Value v, ExprRef shadow);

  // Trap helpers return false and set pending_crash_.
  bool CheckMemAccess(const Value& addr, i64 index, const Instr& instr, const Frame& frame,
                      i32* obj, i64* off);
  void Trap(CrashSite::Kind kind, const Instr& instr, const Frame& frame, i64 code = 0);

  bool ExecCall(const Instr& instr, Frame& frame);
  bool ExecBuiltin(const Instr& instr, Frame& frame);

  const IrModule& module_;
  InterpOptions options_;
  SyscallHandler* syscalls_ = nullptr;
  std::vector<BranchObserver*> observers_;
  ExprArena* arena_ = nullptr;

  // Per-run state (pooled across runs; see ResetObjectPool).
  std::vector<MemObject> objects_;
  std::vector<i32> free_objects_;
  std::vector<Value> global_slots_;
  std::vector<ExprRef> global_shadows_;
  std::vector<Frame> frames_;
  RunStats stats_;
  CrashSite pending_crash_;
  bool has_crash_ = false;
  bool abort_requested_ = false;
  bool exit_requested_ = false;
  i64 exit_code_ = 0;
};

}  // namespace retrace

#endif  // RETRACE_EXEC_INTERP_H_
