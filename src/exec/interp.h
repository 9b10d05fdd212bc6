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
// runs amortizes setup. A run starts at main (Run) or at a State saved
// at a pause point of an earlier run (Resume, PauseListener), skipping
// the instructions before it. A resume may patch the restored state for
// input cells whose values changed since the save: every slot, global
// and memory cell whose shadow mentions one is re-evaluated under the
// new values. **Thread safety:** none — one Interp per thread.
#ifndef RETRACE_EXEC_INTERP_H_
#define RETRACE_EXEC_INTERP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/exec/engine.h"
#include "src/exec/mem_rt.h"
#include "src/exec/value.h"
#include "src/ir/ir.h"
#include "src/support/budget.h"
#include "src/support/recycle.h"

namespace retrace {

// How Interp::Resume patches a restored state: every slot, global and
// memory cell holding an integer whose shadow's VarSig meets `mask` gets
// the shadow's value under `values` (cell id -> value). A zero mask
// patches nothing.
struct ResumePatch {
  const std::vector<i64>* values = nullptr;
  u64 mask = 0;
};

class Interp {
 public:
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

  // A saved memory object. Its cells are stored in the object's pages
  // (MemObject::page_shift); a page not written between two saves of the
  // object is shared by both.
  struct SavedObject {
    struct Page {
      std::vector<Value> cells;
      std::vector<ExprRef> shadows;  // Empty unless `shadowed`.
      u64 sig = 0;                   // OR of the shadows' ExprArena::VarSig.
    };
    using PageRef = LocalPool<Page>::Ref;
    std::vector<PageRef> pages;
    u64 sig = 0;  // OR of the pages' signatures.
    size_t size = 0;
    u32 gen = 0;
    bool alive = false;
    bool is_char = false;
    bool shadowed = false;
    u8 page_shift = 0;
  };
  // Saved global scalars, and a saved frame, each with the OR of its
  // shadows' VarSig: a patch that misses it leaves it as saved.
  struct SavedGlobals {
    std::vector<Value> slots;
    std::vector<ExprRef> shadows;
    u64 sig = 0;
  };
  struct SavedFrame {
    Frame frame;
    u64 sig = 0;
  };
  struct DropPages {
    void operator()(SavedObject& object) const { object.pages.clear(); }
  };
  using SavedObjectRef = LocalPool<SavedObject, DropPages>::Ref;
  using SavedGlobalsRef = LocalPool<SavedGlobals>::Ref;
  using SavedFrameRef = LocalPool<SavedFrame>::Ref;

  // A run paused at the top of the dispatch loop, about to execute a
  // read() call or a branch on a symbolic condition: the object pool,
  // globals, call stack and counters.
  // The states one interpreter saves share every object, every page of
  // an object, the globals and every frame that did not change between
  // saves, so a save copies only the pages and globals written, and the
  // frames run, since the previous one. The copies come from pools the
  // interpreter keeps, which take them back when the last state sharing
  // them goes: a warm interpreter saves into a reused state without
  // allocating. Sharing is counted without atomics, so a state must be
  // copied and released on the thread that runs its interpreter.
  struct State {
    std::vector<SavedObjectRef> objects;
    std::vector<i32> free_objects;
    SavedGlobalsRef globals;
    std::vector<SavedFrameRef> frames;
    RunStats stats;

    // Steps the run had charged to the external budget by this point.
    u64 budget_steps() const { return stats.instrs / kBudgetChunk * kBudgetChunk; }
  };

  Interp(const IrModule& module, InterpOptions options);

  void set_syscall_handler(SyscallHandler* handler) { syscalls_ = handler; }
  void AddObserver(BranchObserver* observer) { observers_.push_back(observer); }
  void ClearObservers() { observers_.clear(); }
  // Enables (non-null) or disables (null) shadow tracking for subsequent
  // runs. The arena must outlive the interpreter runs.
  void set_shadow_arena(ExprArena* arena) { arena_ = arena; }
  // Per-run limits; cheap, call before every Run.
  void set_options(const InterpOptions& options) { options_ = options; }
  // Null: no notifications (the default).
  void set_pause_listener(PauseListener* listener) { pause_listener_ = listener; }

  // Runs main. `argv` are the concrete argument strings (argv[0] included);
  // `argv_cells[i]` optionally names the input cell ids backing argv[i]'s
  // bytes (shadow mode).
  RunResult Run(const std::vector<std::string>& argv,
                const std::vector<std::vector<i32>>& argv_cells);

  // Convenience for programs whose main takes no arguments.
  RunResult Run() { return Run({"prog"}, {}); }

  // Saves the paused run. Only valid inside a PauseListener callback.
  void Save(State* out);
  // Restores `from`, applies `patch`, charges the external budget the
  // steps the run had charged by then, and runs to the end. `from` must
  // have been saved by this interpreter with the same shadow mode,
  // handler state and observer state as now. Unpatched, the result is the
  // one the saved run got; patched, it is the run from main whose cells
  // take `patch.values`, provided that run reaches the pause point on the
  // saved run's path (the caller's rule: ResumeRule, src/concolic/).
  RunResult Resume(const State& from, const ResumePatch& patch = {});

  // Shadows of the values the run, since it started or resumed, used in
  // ways shadows do not model: load and store indices, kPtrAdd deltas,
  // div/rem divisors, integers compared with pointers, builtin arguments,
  // and the memory cells write, print_str, open and select_fd read. The
  // cells they mention are concretized: a change to one may change the
  // path with every symbolic branch unchanged. Recorded in shadow mode
  // while a PauseListener is set, the only time a checkpoint can use it;
  // consecutive repeats once.
  const std::vector<ExprRef>& concretized() const { return concretized_; }
  // The current run's counters so far (a pause point's own instruction
  // included).
  const RunStats& stats() const { return stats_; }

  // The object pool and free list, for tests.
  const std::vector<MemObject>& objects() const { return objects_; }
  const std::vector<i32>& free_objects() const { return free_objects_; }

 private:
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
  // Clears the per-run flags and executes until the run ends.
  RunResult Execute();
  void PatchShadows(const ResumePatch& patch);
  // Records the operand's shadow in concretized_ (see concretized()).
  void Concretize(const Operand& op, const Frame& frame);

  Value EvalOperand(const Operand& op, const Frame& frame) const;
  ExprRef EvalShadow(const Operand& op, const Frame& frame) const;
  void WriteSlot(const Operand& dst, Frame& frame, Value v, ExprRef shadow);

  // Trap helpers return false and set pending_crash_.
  bool CheckMemAccess(const Value& addr, i64 index, const Instr& instr, const Frame& frame,
                      i32* obj, i64* off);
  void Trap(CrashSite::Kind kind, const Instr& instr, const Frame& frame, i64 code = 0);

  bool ExecCall(const Instr& instr, Frame& frame);
  bool ExecBuiltin(const Instr& instr, Frame& frame);

  // A frame to push, from the spares when there is one: its vectors keep
  // the storage of the frame that used it last. PopFrame spares the top.
  Frame TakeFrame();
  void PopFrame();
  // Saves `obj`, sharing with `prev` (its last save, or null) every page
  // not dirty since.
  SavedObjectRef SaveObject(const MemObject& obj, const SavedObject* prev);
  // OR of the VarSig of `shadows` (0 outside shadow mode).
  u64 SigOf(const std::vector<ExprRef>& shadows) const;

  const IrModule& module_;
  InterpOptions options_;
  SyscallHandler* syscalls_ = nullptr;
  std::vector<BranchObserver*> observers_;
  ExprArena* arena_ = nullptr;
  PauseListener* pause_listener_ = nullptr;

  // Per-run state (pooled across runs; see ResetObjectPool).
  std::vector<MemObject> objects_;
  std::vector<i32> free_objects_;
  std::vector<Value> global_slots_;
  std::vector<ExprRef> global_shadows_;
  std::vector<Frame> frames_;
  std::vector<Frame> spare_frames_;
  std::vector<Value> builtin_args_;
  BuiltinBuffers builtin_buffers_;
  // The last save or restore of each object: equal to the live object
  // in every page whose MemObject::dirty bit is clear.
  std::vector<SavedObjectRef> saved_objects_;
  // The globals of the last save or restore, equal to the live ones
  // unless a global was written since.
  SavedGlobalsRef saved_globals_;
  bool globals_dirty_ = true;
  // The frames of the last save or restore, and the fewest frames the
  // stack held since: frames below the top one at that low point never
  // ran since, so they equal their saved copies.
  std::vector<SavedFrameRef> saved_frames_;
  size_t frames_low_ = 0;
  LocalPool<SavedObject, DropPages> object_pool_;
  LocalPool<SavedObject::Page> page_pool_;
  LocalPool<SavedGlobals> globals_pool_;
  LocalPool<SavedFrame> frame_pool_;
  RunStats stats_;
  std::vector<ExprRef> concretized_;
  CrashSite pending_crash_;
  bool has_crash_ = false;
  bool abort_requested_ = false;
  bool exit_requested_ = false;
  i64 exit_code_ = 0;
};

}  // namespace retrace

#endif  // RETRACE_EXEC_INTERP_H_
