// One search worker's replay runs: the four branch cases of paper §3.1
// observed over a CellRunner, and runs resumed from checkpoints.
//
// Every pending is its parent run's path plus one flipped branch, and
// the solver starts from the parent run's input and re-solves only the
// negated slice. ReplayRunner keeps a stack of checkpoints along the
// path of its most recent run: one just before each read() call, and one
// just before each symbolic branch that publishes a pending (a case-1
// branch at or past the run's start depth, or the case-2b forced
// branch). Every run starts at the deepest checkpoint ResumeRule admits
// for its model, with the changed input cells patched into the state,
// so a pending's run usually starts at its own flipped branch. Starting
// at main is the depth-0 case.
//
// Admission costs what changed, not the path's depth. The runner keeps
// the path's consumed-cell records, each cell's newest, and for each
// checkpoint a signature of its own records: the OR of ExprArena::VarBit
// over the cells it consumed and of VarSig over its concretized shadows
// and symbolic branches. The newest records are the values of the run
// that took the deepest checkpoint, which the rule admitted, so only the
// cells whose newest record differs from the model (Δ) can make the
// rule refuse. The rule is offered just their record checkpoints and,
// while a record puts a stream byte in Δ, the checkpoints whose own
// signature meets the byte's bit: it finds the checkpoint its walk from
// the shallowest one would. A resumed run is the run a start at main
// would have produced: same RunResult, cells and observer path, the same
// failure-profile counts, and the same charge to the step budget.
#ifndef RETRACE_REPLAY_REPLAY_RUN_H_
#define RETRACE_REPLAY_REPLAY_RUN_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/concolic/cellrun.h"
#include "src/replay/replay_engine.h"

namespace retrace {

// Dense per-branch accumulator behind the failure-telemetry layer: one
// slot per branch location, bumped with plain array writes so telemetry
// stays invisible to the search (no allocation, no decision changes —
// run counts remain bit-identical to the pre-telemetry engine). Each
// worker owns one and folds it into the sparse aggregate profile once,
// when its search ends.
struct FailureAccum {
  explicit FailureAccum(size_t num_branches)
      : deaths_concrete(num_branches, 0),
        deaths_exhausted(num_branches, 0),
        deaths_wrong_crash(num_branches, 0),
        blind_execs(num_branches, 0) {}

  std::vector<u64> deaths_concrete;
  std::vector<u64> deaths_exhausted;
  std::vector<u64> deaths_wrong_crash;
  std::vector<u64> blind_execs;
  u64 unattributed = 0;

  void Death(i32 last_blind_branch, std::vector<u64>& cls) {
    if (last_blind_branch >= 0 && static_cast<size_t>(last_blind_branch) < cls.size()) {
      ++cls[last_blind_branch];
    } else {
      ++unattributed;
    }
  }
  void BlindExec(i32 branch_id) {
    if (static_cast<size_t>(branch_id) < blind_execs.size()) {
      ++blind_execs[branch_id];
    }
  }

  // Sparse, branch-id-sorted view (the wire/merge shape).
  ReplayFailureProfile ToProfile() const;

  bool operator==(const FailureAccum&) const = default;
};

// What the §3.1 observer saw in one run.
struct ReplayPath {
  std::vector<Constraint> trace;
  // Log bits consumed when each trace entry was recorded — the
  // PortablePending::priority of the pending set ending at that
  // constraint, by which the coordinator deals the scout's frontier.
  std::vector<size_t> bits_at;
  // Trace indices of the case-1 constraints, and their branch ids.
  std::vector<size_t> flippable;
  std::vector<i32> blind_branches;
  size_t cursor = 0;
  bool forced_direction = false;
  bool concrete_mismatch = false;
  bool log_exhausted = false;
  // Last case-1 branch this run executed (-1: none yet) — the telemetry
  // attribution point for an off-log death.
  i32 last_blind_branch = -1;

  bool operator==(const ReplayPath&) const = default;
};

struct ReplayRun {
  CellRunOutput out;
  ReplayPath path;
  // Where the run started: the instructions it skipped by resuming at a
  // checkpoint (-1: it started at main), and whether that checkpoint
  // paused at a branch rather than a read().
  i64 resumed_at = -1;
  bool resumed_at_branch = false;
  // Leading path.trace entries kept from the previous run's path: those
  // before its resume point.
  size_t kept_trace = 0;
  // Instructions the run executed after its start and before the branch
  // that takes trace entry start_depth - 1 (its flipped or forced
  // branch); all it executed if it never got there. Zero for a run with
  // no flip (start_depth 0).
  u64 instrs_before_flip = 0;
};

// Per-run settings shared by every run of one worker.
struct ReplayRunLimits {
  const SyscallLog* syscall_log = nullptr;  // Null: syscall results are not pinned.
  u64 max_steps = 100'000'000;
  Budget* budget = nullptr;         // Charged every run's steps, skipped ones included.
  BranchObserver* cancel = nullptr;  // Optional second observer.
};

class ReplayObserver;

// **Thread safety:** none; one runner per worker. **Ownership:** borrows
// module, plan, report, arena, failures and the limits' pointees; all
// must outlive the runner. Every run of one runner must use the same
// arena, because checkpoints hold its expression refs.
class ReplayRunner : private CheckpointSink {
 public:
  // Checkpoints kept per runner. A full stack folds its shallowest
  // checkpoint into the next one, so the deepest pause points, where
  // depth-first runs resume, always get one. Each holds the program's
  // globals and the frames and memory pages that changed since the
  // checkpoint before. At replay seed 31 the uServer paths reach 426
  // pause points (exp 4) and 586 (exp 5's second adaptive round); 128
  // kept still start every exp 1/3/4 and exp 5 first-round run at its
  // flipped branch.
  static constexpr size_t kMaxCheckpoints = 128;

  ReplayRunner(const IrModule& module, const InstrumentationPlan& plan, const BugReport& report,
               ExprArena* arena, FailureAccum* failures, ReplayRunLimits limits);
  ~ReplayRunner() override;

  // Runs `model` from the deepest checkpoint ResumeRule admits whose
  // skipped steps fit in the budget, or from main. `start_depth` is the
  // length of the pending set the model solves (0: none): the run's
  // case-1 branches at trace index >= start_depth publish pendings.
  // The run is the runner's, valid until the next one, and its storage
  // serves every run: a caller may swap vectors out of `out`, but must
  // leave `path` as it is (the next run keeps its prefix).
  ReplayRun& Run(const std::vector<i64>& model, size_t start_depth);

  const CellLayout& layout() const { return cells_.layout(); }
  const InputSpec& spec() const { return cells_.spec(); }
  u64 resumed_runs() const { return resumed_runs_; }
  u64 resumed_at_branch() const { return resumed_at_branch_; }
  u64 instrs_skipped() const { return instrs_skipped_; }
  u64 instrs_before_flip() const { return instrs_before_flip_; }
  // Admission, over all runs: checkpoints a Δ cell's record or bit met
  // (those the rule may be offered), and ResumeRule::Admit calls.
  u64 signature_hits() const { return signature_hits_; }
  u64 exact_checks() const { return exact_checks_; }

  // The checkpoints on the most recent run's path, shallowest first: the
  // stack the next run resumes on.
  size_t depth() const { return depth_; }
  const RunCheckpoint& checkpoint(size_t i) const { return entries_[i].run; }

 private:
  // Where a checkpoint sits on the path: lengths of ReplayPath's arrays
  // (trace/bits_at and flippable/blind_branches) and its scalars.
  struct Mark {
    size_t trace_len = 0;
    size_t flippable_len = 0;
    size_t cursor = 0;
    i32 last_blind_branch = -1;
  };
  struct Entry {
    RunCheckpoint run;
    Mark mark;
  };

  // The consumed-cell records of the stack's path, per cell: how many it
  // has, its newest, and the newest's value.
  struct PathCell {
    u32 count = 0;
    i32 newest = -1;
    i64 value = 0;
  };
  // One record: its cell, the cell's next older record (-1: none), the
  // serial number of its checkpoint, and the value consumed.
  struct PathRecord {
    i32 cell = -1;
    i32 older = -1;
    u64 serial = 0;
    i64 value = 0;
  };

  RunCheckpoint* AtPause(const PausePoint& at) override;
  // Adds the records of entries [synced_, depth_) to the path's cell
  // table and signatures.
  void Sync();
  // Drops the entries from `depth` on, and their records.
  void Truncate(size_t depth);
  size_t EntryOf(const PathRecord& record) const;

  const InstrumentationPlan& plan_;
  const BugReport& report_;
  ExprArena* arena_;
  FailureAccum* failures_;
  ReplayRunLimits limits_;
  CellRunner cells_;
  CellRunConfig config_;
  ResumeRule rule_;
  // entries_[0, depth_) are the checkpoints on the most recent run's
  // path, which run_.path holds; each one's mark cuts it back to where
  // the checkpoint was taken. Entries past depth_ are spares whose
  // storage the next checkpoints reuse.
  std::deque<Entry> entries_;
  size_t depth_ = 0;
  // Of entries [0, synced_): each one's own signature. Every entry but
  // the deepest is synced while a run goes on, and all of them between
  // runs.
  std::vector<u64> sig_;
  size_t synced_ = 0;
  // The synced entries' records, in path order, and by cell id the cells
  // that have any (`path_cells_`, in first-record order). Checkpoint
  // serial numbers count from the first run; entries_[0] has
  // first_serial_.
  std::vector<PathRecord> records_;
  std::vector<PathCell> path_cell_;
  std::vector<i32> path_cells_;
  u64 first_serial_ = 0;
  std::vector<i32> older_scratch_;
  // The latest run; its observer fills its path, whose prefix the next
  // run keeps.
  ReplayRun run_;
  std::unique_ptr<ReplayObserver> observer_;
  // Of the run in progress: its start depth, and the instruction count
  // before its flipped branch (kNotYet until reached).
  size_t start_depth_ = 0;
  static constexpr u64 kNotYet = ~u64{0};
  u64 flip_at_ = kNotYet;
  u64 resumed_runs_ = 0;
  u64 resumed_at_branch_ = 0;
  u64 instrs_skipped_ = 0;
  u64 instrs_before_flip_ = 0;
  u64 signature_hits_ = 0;
  u64 exact_checks_ = 0;
};

}  // namespace retrace

#endif  // RETRACE_REPLAY_REPLAY_RUN_H_
