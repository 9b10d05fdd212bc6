#include "src/concolic/cellrun.h"

namespace retrace {

CellRunOutput CellRunner::Run(const CellRunConfig& config) {
  CellStore cells(layout_, config.model);
  cells.set_policy(config.policy);
  VirtualOs vos(spec_.world, &cells, &layout_);
  vos.set_replay_log(config.replay_log);
  vos.set_symbolic_results(config.arena != nullptr && config.symbolic_syscalls);

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

  const std::vector<std::string> argv = layout_.MaterializeArgv(spec_, cells.values());
  const std::vector<std::vector<i32>> argv_cells =
      config.arena != nullptr ? layout_.ArgvCells(spec_) : std::vector<std::vector<i32>>{};

  CellRunOutput out;
  out.result = interp_.Run(argv, argv_cells);
  out.cells = cells.values();
  out.domains = cells.domains();
  out.cell_info = cells.info();
  out.dyn_trace = cells.dynamic_trace();
  out.stdout_text = vos.stdout_text();
  out.log_diverged = vos.log_diverged();
  return out;
}

}  // namespace retrace
