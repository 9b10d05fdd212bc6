#include "src/concolic/cellrun.h"

#include <algorithm>

namespace retrace {
namespace {

// Fills the sink's checkpoints as the interpreter reaches each read().
class CheckpointTaker : public ReadListener {
 public:
  CheckpointTaker(CheckpointSink* sink, Interp* interp, const VirtualOs* vos,
                  const CellStore* cells, const CellRunConfig& config)
      : sink_(sink), interp_(interp), vos_(vos), cells_(cells),
        model_size_(config.model.size()) {
    if (config.resume_from != nullptr) {
      // The first read is the one the run resumes at: checkpointed already.
      next_read_ = config.resume_from->read_index;
      at_resume_read_ = true;
      dyn_mark_ = cells->dynamic_trace().size();
    }
  }

  void BeforeRead() override {
    const size_t read_index = next_read_++;
    if (at_resume_read_) {
      at_resume_read_ = false;
      return;
    }
    RunCheckpoint* ckpt = sink_->AtRead(read_index);
    if (ckpt == nullptr) {
      return;
    }
    interp_->Save(&ckpt->exec);
    vos_->Save(&ckpt->vos);
    ckpt->read_index = read_index;
    ckpt->model_size = model_size_;
    ckpt->consumed.clear();
    auto consume = [&](i32 cell) {
      ckpt->consumed.push_back(RunCheckpoint::ConsumedCell{cell, cells_->ValueOf(cell)});
    };
    if (read_index == 0) {
      // argv cells lead the layout; main consumed them all.
      for (i32 cell = 0; cell < cells_->num_static() &&
                         cells_->info()[cell].kind == CellKind::kArgvByte;
           ++cell) {
        consume(cell);
      }
    }
    const VirtualOs::CellRange read = vos_->last_read();
    for (i32 i = 0; i < read.count; ++i) {
      consume(read.first + i);
    }
    const std::vector<CellStore::DynRecord>& dyn = cells_->dynamic_trace();
    for (size_t i = dyn_mark_; i < dyn.size(); ++i) {
      consume(dyn[i].cell);
    }
    dyn_mark_ = dyn.size();
  }

 private:
  CheckpointSink* sink_;
  Interp* interp_;
  const VirtualOs* vos_;
  const CellStore* cells_;
  size_t model_size_;
  size_t next_read_ = 0;
  bool at_resume_read_ = false;
  size_t dyn_mark_ = 0;  // Dynamic cells already recorded as consumed.
};

}  // namespace

bool RunCheckpoint::Matches(const std::vector<i64>& model, const CellLayout& layout) const {
  const i32 num_static = layout.num_static();
  for (const ConsumedCell& c : consumed) {
    const bool covered = static_cast<size_t>(c.cell) < model.size();
    if (c.cell < num_static) {
      const Interval& domain = layout.domains()[c.cell];
      const i64 value = covered ? std::clamp(model[c.cell], domain.lo, domain.hi)
                                : layout.defaults()[c.cell];
      if (value != c.value) {
        return false;
      }
      continue;
    }
    if (!covered) {
      // Without a model value the cell takes the run's natural outcome:
      // the same as before only if it did so before too.
      if (static_cast<size_t>(c.cell) < model_size) {
        return false;
      }
      continue;
    }
    const Interval& domain = vos.cells.domains[c.cell - num_static];
    if (std::clamp(model[c.cell], domain.lo, domain.hi) != c.value) {
      return false;
    }
  }
  return true;
}

CellRunOutput CellRunner::Run(const CellRunConfig& config) {
  CellStore cells(layout_, config.model);
  cells.set_policy(config.policy);
  VirtualOs vos(spec_.world, &cells, &layout_);
  vos.set_replay_log(config.replay_log);
  vos.set_symbolic_results(config.arena != nullptr && config.symbolic_syscalls);
  if (config.resume_from != nullptr) {
    vos.Restore(config.resume_from->vos);
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
  interp_.set_read_listener(config.checkpoints != nullptr ? &taker : nullptr);

  CellRunOutput out;
  if (config.resume_from != nullptr) {
    out.result = interp_.Resume(config.resume_from->exec);
  } else {
    const std::vector<std::string> argv = layout_.MaterializeArgv(spec_, cells.values());
    const std::vector<std::vector<i32>> argv_cells =
        config.arena != nullptr ? layout_.ArgvCells(spec_) : std::vector<std::vector<i32>>{};
    out.result = interp_.Run(argv, argv_cells);
  }
  interp_.set_read_listener(nullptr);
  out.cells = cells.values();
  out.domains = cells.domains();
  out.cell_info = cells.info();
  out.dyn_trace = cells.dynamic_trace();
  out.stdout_text = vos.stdout_text();
  out.log_diverged = vos.log_diverged();
  return out;
}

}  // namespace retrace
