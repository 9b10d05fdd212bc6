#include "src/concolic/cellrun.h"

#include <algorithm>

namespace retrace {
namespace {

// Fills the sink's checkpoints at the run's pause points, and collects
// what each records since the one before.
class CheckpointTaker : public PauseListener {
 public:
  CheckpointTaker(CheckpointSink* sink, Interp* interp, const VirtualOs* vos,
                  const CellStore* cells, const CellRunConfig& config)
      : sink_(sink), interp_(interp), vos_(vos), cells_(cells),
        model_size_(config.model.size()), shadowed_(config.arena != nullptr) {
    if (config.resume_from != nullptr) {
      // The first pause point is the one the run resumes at.
      skip_next_ = true;
      dyn_mark_ = cells->dynamic_trace().size();
      last_vos_ = config.resume_from->vos;
      last_syscalls_ = config.resume_from->exec.stats.syscalls;
      for (const i32 cell : config.resume_delta) {
        Consume(cell);
      }
    } else {
      // argv cells lead the layout; main consumed them all.
      for (i32 cell = 0; cell < cells->num_static() &&
                         cells->info()[cell].kind == CellKind::kArgvByte;
           ++cell) {
        Consume(cell);
      }
    }
  }

  void BeforeRead() override {
    Pause(PausePoint{});
    read_pending_ = true;
  }

  void BeforeBranch(i32 branch_id, bool taken, ExprRef cond_shadow) override {
    Pause(PausePoint{true, branch_id, taken, 0});
    branches_.push_back(Constraint{cond_shadow, taken});
  }

 private:
  void Consume(i32 cell) {
    consumed_.push_back(RunCheckpoint::ConsumedCell{cell, cells_->ValueOf(cell)});
  }

  void Pause(PausePoint at) {
    if (read_pending_) {
      // The previous pause point was a read(); it has delivered since.
      read_pending_ = false;
      const VirtualOs::CellRange read = vos_->last_read();
      for (i32 i = 0; i < read.count; ++i) {
        Consume(read.first + i);
      }
    }
    const std::vector<CellStore::DynRecord>& dyn = cells_->dynamic_trace();
    for (; dyn_mark_ < dyn.size(); ++dyn_mark_) {
      Consume(dyn[dyn_mark_].cell);
    }
    if (skip_next_) {
      skip_next_ = false;
      return;
    }
    at.instrs = interp_->stats().instrs - 1;
    RunCheckpoint* ckpt = sink_->AtPause(at);
    if (ckpt == nullptr) {
      return;
    }
    interp_->Save(&ckpt->exec);
    if (last_vos_ == nullptr || interp_->stats().syscalls != last_syscalls_) {
      auto state = std::make_shared<VirtualOs::State>();
      vos_->Save(state.get());
      last_vos_ = std::move(state);
      last_syscalls_ = interp_->stats().syscalls;
    }
    ckpt->vos = last_vos_;
    ckpt->at_branch = at.at_branch;
    ckpt->shadowed = shadowed_;
    ckpt->model_size = model_size_;
    ckpt->consumed.swap(consumed_);
    consumed_.clear();
    ckpt->branches.swap(branches_);
    branches_.clear();
    const std::vector<ExprRef>& concretized = interp_->concretized();
    ckpt->concretized.assign(concretized.begin() + static_cast<std::ptrdiff_t>(conc_mark_),
                             concretized.end());
    conc_mark_ = concretized.size();
  }

  CheckpointSink* sink_;
  Interp* interp_;
  const VirtualOs* vos_;
  const CellStore* cells_;
  size_t model_size_;
  bool shadowed_;
  bool skip_next_ = false;
  bool read_pending_ = false;
  size_t dyn_mark_ = 0;   // Dynamic cells already consumed.
  size_t conc_mark_ = 0;  // Interp::concretized entries already recorded.
  // The OS state of the latest checkpoint, and Interp stats().syscalls
  // then: no builtin ran since while the count is unchanged.
  std::shared_ptr<const VirtualOs::State> last_vos_;
  u64 last_syscalls_ = 0;
  // Since the previous checkpoint.
  std::vector<RunCheckpoint::ConsumedCell> consumed_;
  std::vector<Constraint> branches_;
};

}  // namespace

ResumeRule::ResumeRule(const CellLayout& layout, const ExprArena& arena,
                       const std::vector<i64>& model)
    : ResumeRule(layout, arena) {
  Start(model);
}

ResumeRule::ResumeRule(const CellLayout& layout, const ExprArena& arena)
    : layout_(layout),
      arena_(arena),
      consumed_(layout.defaults().size(), 0),
      in_delta_(layout.defaults().size(), 0) {}

void ResumeRule::Start(const std::vector<i64>& model) {
  model_ = &model;
  values_.assign(layout_.defaults().begin(), layout_.defaults().end());
  const std::vector<Interval>& domains = layout_.domains();
  for (size_t i = 0; i < values_.size() && i < model.size(); ++i) {
    values_[i] = std::clamp(model[i], domains[i].lo, domains[i].hi);
  }
  for (const i32 cell : consumed_cells_) {
    consumed_[cell] = 0;
  }
  consumed_cells_.clear();
  for (const i32 cell : delta_) {
    in_delta_[cell] = 0;
  }
  delta_.clear();
  delta_mask_ = 0;
  undo_.clear();
  refused_ = false;
  arena_.StartEvalBatch();
}

bool ResumeRule::Consume(const RunCheckpoint& ckpt) {
  const i32 num_static = layout_.num_static();
  for (const RunCheckpoint::ConsumedCell& c : ckpt.consumed) {
    if (c.cell >= num_static) {
      // A syscall result: exact.
      if (static_cast<size_t>(c.cell) < model_->size()) {
        const Interval& domain = ckpt.vos->cells.domains[c.cell - num_static];
        if (std::clamp((*model_)[c.cell], domain.lo, domain.hi) != c.value) {
          return false;
        }
      } else if (static_cast<size_t>(c.cell) < ckpt.model_size) {
        // Without a model value the cell takes the run's natural outcome:
        // the same as before only if it did so before too.
        return false;
      }
      if (values_.size() <= static_cast<size_t>(c.cell)) {
        values_.resize(static_cast<size_t>(c.cell) + 1, 0);
      }
      values_[c.cell] = c.value;
      continue;
    }
    if (layout_.info()[c.cell].kind == CellKind::kArgvByte || !ckpt.shadowed) {
      if (values_[c.cell] != c.value) {
        return false;  // Exact.
      }
      continue;
    }
    const u8 delta = values_[c.cell] != c.value ? 1 : 0;
    if (delta != in_delta_[c.cell]) {
      if (delta != 0 && consumed_[c.cell] != 0) {
        // Re-valued into Δ after earlier segments were checked without
        // it: refuse rather than re-check them.
        return false;
      }
      in_delta_[c.cell] = delta;
      undo_.push_back(c.cell);
      if (delta != 0) {
        delta_.push_back(c.cell);
        delta_mask_ |= ExprArena::VarBit(c.cell);
      }
    }
    if (consumed_[c.cell] == 0) {
      consumed_[c.cell] = 1;
      consumed_cells_.push_back(c.cell);
    }
  }
  return true;
}

bool ResumeRule::Admit(const RunCheckpoint& ckpt) {
  if (refused_) {
    return false;
  }
  undo_.clear();
  bool ok = Consume(ckpt);
  const u64 mask = delta_mask_;
  if (ok && mask != 0) {
    for (const ExprRef shadow : ckpt.concretized) {
      if ((arena_.VarSig(shadow) & mask) != 0 && arena_.MentionsAny(shadow, mask, in_delta_)) {
        ok = false;  // (a)
        break;
      }
    }
  }
  if (ok && mask != 0) {
    for (const Constraint& branch : ckpt.branches) {
      if ((arena_.VarSig(branch.expr) & mask) != 0 &&
          (arena_.EvalInBatch(branch.expr, values_) != 0) != branch.want_true) {
        ok = false;  // (b)
        break;
      }
    }
  }
  if (!ok) {
    for (const i32 cell : undo_) {
      in_delta_[cell] ^= 1;
    }
    refused_ = true;
  }
  return ok;
}

void ResumeRule::Pin(i32 cell, i64 value) {
  if (values_.size() <= static_cast<size_t>(cell)) {
    values_.resize(static_cast<size_t>(cell) + 1, 0);
  }
  values_[cell] = value;
}

std::vector<i32> ResumeRule::Delta() const {
  std::vector<i32> out;
  for (const i32 cell : delta_) {
    if (in_delta_[cell] != 0) {
      out.push_back(cell);
    }
  }
  return out;
}

CellRunOutput CellRunner::Run(const CellRunConfig& config) {
  CellStore& cells = cells_;
  cells.Reset(config.model);
  cells.set_policy(config.policy);
  VirtualOs& vos = vos_;
  vos.Reset();
  vos.set_replay_log(config.replay_log);
  vos.set_symbolic_results(config.arena != nullptr && config.symbolic_syscalls);
  if (config.resume_from != nullptr) {
    vos.Restore(*config.resume_from->vos);
  }

  InterpOptions options;
  options.max_steps = config.max_steps;
  options.external_budget = config.external_budget;
  interp_.set_options(options);
  interp_.set_syscall_handler(&vos);
  interp_.set_shadow_arena(config.arena);
  interp_.ClearObservers();
  for (BranchObserver* obs : config.observers) {
    interp_.AddObserver(obs);
  }
  CheckpointTaker taker(config.checkpoints, &interp_, &vos, &cells, config);
  interp_.set_pause_listener(config.checkpoints != nullptr ? &taker : nullptr);

  CellRunOutput out;
  if (config.resume_from != nullptr) {
    ResumePatch patch;
    patch.values = &cells.values();
    for (const i32 cell : config.resume_delta) {
      patch.mask |= ExprArena::VarBit(cell);
    }
    out.result = interp_.Resume(config.resume_from->exec, patch);
  } else {
    const std::vector<std::string> argv = layout_.MaterializeArgv(spec_, cells.values());
    const std::vector<std::vector<i32>> argv_cells =
        config.arena != nullptr ? layout_.ArgvCells(spec_) : std::vector<std::vector<i32>>{};
    out.result = interp_.Run(argv, argv_cells);
  }
  interp_.set_pause_listener(nullptr);
  out.log_diverged = vos.log_diverged();
  out.stdout_text = vos.TakeStdout();
  cells.MoveInto(&out.cells, &out.domains, &out.cell_info, &out.dyn_trace);
  return out;
}

}  // namespace retrace
