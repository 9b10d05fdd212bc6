// Execution-core microbenchmark: concrete vs shadow execution, and the
// checkpoint a replay step resumes from.
//
// The inner loop of every phase — dynamic analysis, replay search,
// overhead measurement — is "run the program once". This bench measures
// that loop in isolation on the §5.1 counting-loop microbenchmark
// (dispatch-bound: one branch + three arithmetic ops per iteration) and
// end-to-end on a uServer request-serving run. Each row runs one
// configuration twice, concrete and with symbolic shadow tracking (the
// replay search's mode), and reports the shadow/concrete slowdown — the
// cost of instrumented execution the developer site pays per run. The
// recorder axis changes the per-branch work:
//
//   plain     no observer attached
//   rec-none  a recorder whose plan logs no branch (observer call only)
//   rec-all   a recorder logging every branch (the paper's instrumentation)
//
// The userver/resume row is a replay step's own work outside the run: a
// shadow run from main saves a checkpoint at every pause point, and the
// one halfway along is resumed again and again with a one-cell patch,
// timing the save (per checkpoint), the restore and patch, and the
// execution after it separately.
//
// Every row is measured `reps` times (argument 1, default 5) in one
// process; the table and BENCH_interp.json (stamped with the host) give
// the median with the range.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <deque>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/concolic/cellrun.h"
#include "src/instrument/recorder.h"

namespace retrace {
namespace {

struct Cell {
  double seconds = 0;
  u64 runs = 0;
  u64 instrs = 0;
  double SecsPerRun() const { return runs == 0 ? 0 : seconds / static_cast<double>(runs); }
  double MinstrsPerSec() const {
    return seconds <= 0 ? 0 : static_cast<double>(instrs) / seconds / 1e6;
  }
};

// Samples of one quantity over the repetitions.
struct Samples {
  std::vector<double> values;
  double Median() const {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    return sorted.empty() ? 0 : sorted[sorted.size() / 2];
  }
  double Min() const { return values.empty() ? 0 : *std::min_element(values.begin(), values.end()); }
  double Max() const { return values.empty() ? 0 : *std::max_element(values.begin(), values.end()); }
};

struct Row {
  std::string name;
  u64 runs = 0;
  Samples concrete_minstrs, shadow_minstrs, concrete_ms, shadow_ms, slowdown;

  void Add(const Cell& concrete, const Cell& shadow) {
    runs = concrete.runs;
    concrete_minstrs.values.push_back(concrete.MinstrsPerSec());
    shadow_minstrs.values.push_back(shadow.MinstrsPerSec());
    concrete_ms.values.push_back(concrete.SecsPerRun() * 1e3);
    shadow_ms.values.push_back(shadow.SecsPerRun() * 1e3);
    slowdown.values.push_back(concrete.seconds <= 0 ? 0
                                                    : shadow.SecsPerRun() / concrete.SecsPerRun());
  }
};

// Runs `spec` through the cell runner `runs` times, optionally with shadow
// tracking and a recorder on `plan`.
Cell Measure(const IrModule& module, const InputSpec& spec, NondetPolicy* policy, u64 runs,
             bool shadow, const InstrumentationPlan* plan) {
  CellRunner runner(module, spec);
  Cell cell;
  const auto t0 = std::chrono::steady_clock::now();
  for (u64 i = 0; i < runs; ++i) {
    ExprArena arena;
    BranchTraceRecorder recorder(plan != nullptr ? *plan : InstrumentationPlan{});
    CellRunConfig config;
    config.policy = policy;
    config.symbolic_syscalls = shadow;
    if (shadow) {
      config.arena = &arena;
    }
    if (plan != nullptr) {
      config.observers = {&recorder};
    }
    const CellRunOutput out = runner.Run(config);
    cell.instrs += out.result.stats.instrs;
  }
  cell.runs = runs;
  cell.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return cell;
}

void MeasureRow(Row* row, const IrModule& module, const InputSpec& spec, NondetPolicy* policy,
                u64 runs, const InstrumentationPlan* plan) {
  const Cell concrete = Measure(module, spec, policy, runs, /*shadow=*/false, plan);
  const Cell shadow = Measure(module, spec, policy, runs, /*shadow=*/true, plan);
  row->Add(concrete, shadow);
}

using Clock = std::chrono::steady_clock;

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// Saves the run at every pause point, each save sharing what did not
// change with the one before as a replay runner's checkpoints do, and
// times each save, while `saving`. While `resuming`, it times instead
// the restore up to the pause point the resume starts at, which the
// dispatch loop meets again first.
class StepTimer : public PauseListener {
 public:
  StepTimer(Interp* interp, VirtualOs* vos) : interp_(interp), vos_(vos) {}

  void BeforeRead() override { Pause(); }
  void BeforeBranch(i32, bool, ExprRef) override { Pause(); }

  struct Checkpoint {
    Interp::State exec;
    VirtualOs::State os;
  };
  std::deque<Checkpoint> checkpoints;
  double save_us = 0;
  u64 saves = 0;
  bool saving = true;
  bool resuming = false;
  Clock::time_point resume_start;
  Clock::time_point resumed;

 private:
  void Pause() {
    if (resuming) {
      resumed = Clock::now();
      resuming = false;
      return;
    }
    if (!saving) {
      return;
    }
    Checkpoint& ckpt = checkpoints.emplace_back();
    const Clock::time_point t0 = Clock::now();
    interp_->Save(&ckpt.exec);
    save_us += Micros(t0, Clock::now());
    ++saves;
    vos_->Save(&ckpt.os);
  }

  Interp* interp_;
  VirtualOs* vos_;
};

// The userver/resume row, one repetition: save cost per checkpoint, and
// per resume the restore (with the patch) and the execution after it.
struct ResumeCosts {
  double save_us = 0;
  double saves_per_run = 0;
  double restore_us = 0;
  double execute_ms = 0;
};

ResumeCosts MeasureResume(const IrModule& module, const Scenario& scenario, u64 runs) {
  const CellLayout layout = CellLayout::Build(scenario.spec);
  CellStore cells(layout, layout.defaults());
  cells.set_policy(scenario.policy.get());
  VirtualOs vos(scenario.spec.world, &cells, &layout);
  ExprArena arena;
  Interp interp(module, InterpOptions{});
  interp.set_shadow_arena(&arena);
  interp.set_syscall_handler(&vos);
  StepTimer timer(&interp, &vos);
  interp.set_pause_listener(&timer);

  ResumeCosts costs;
  u64 saves_before = 0;
  for (int i = 0; i < 4; ++i) {  // The first three warm the pools, as earlier runs do.
    saves_before = timer.saves;
    timer.save_us = 0;
    timer.checkpoints.clear();
    cells.Reset(layout.defaults());
    vos.Reset();
    interp.Run(layout.MaterializeArgv(scenario.spec, cells.values()),
               layout.ArgvCells(scenario.spec));
  }
  const u64 saves = timer.saves - saves_before;
  costs.save_us = saves == 0 ? 0 : timer.save_us / static_cast<double>(saves);
  costs.saves_per_run = static_cast<double>(saves);

  // The checkpoint halfway along, patched for the stream's first byte:
  // same value, so the run goes the same way, but every shadow that
  // mentions the byte is evaluated again.
  const StepTimer::Checkpoint& from = timer.checkpoints[timer.checkpoints.size() / 2];
  i32 patched = -1;
  for (i32 cell = layout.num_static() - 1; cell >= 0; --cell) {
    if (layout.info()[cell].kind == CellKind::kStreamByte) {
      patched = cell;
    }
  }
  ResumePatch patch;
  patch.values = &cells.values();
  patch.mask = patched >= 0 ? ExprArena::VarBit(patched) : 0;
  double restore_us = 0;
  double execute_us = 0;
  timer.saving = false;
  for (u64 i = 0; i < runs; ++i) {
    cells.Reset(layout.defaults());
    vos.Reset();
    vos.Restore(from.os);
    timer.resuming = true;
    timer.resume_start = Clock::now();
    interp.Resume(from.exec, patch);
    const Clock::time_point done = Clock::now();
    restore_us += Micros(timer.resume_start, timer.resumed);
    execute_us += Micros(timer.resumed, done);
  }
  costs.restore_us = restore_us / static_cast<double>(runs);
  costs.execute_ms = execute_us / static_cast<double>(runs) / 1e3;
  return costs;
}

InstrumentationPlan AllBranchesPlan(const IrModule& module) {
  InstrumentationPlan plan;
  plan.branches = DenseBitset(module.branches.size());
  for (size_t b = 0; b < module.branches.size(); ++b) {
    plan.branches.Set(b);
  }
  return plan;
}

InstrumentationPlan NoBranchesPlan(const IrModule& module) {
  InstrumentationPlan plan;
  plan.branches = DenseBitset(module.branches.size());
  return plan;
}

}  // namespace
}  // namespace retrace

int main(int argc, char** argv) {
  using namespace retrace;
  const int scale = BenchScale();
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 5;

  std::printf("==============================================================\n");
  std::printf("Execution core: concrete vs shadow execution (tree walker), %d reps\n", reps);
  std::printf("==============================================================\n\n");

  std::vector<Row> rows(5);
  const char* const names[] = {"loop/plain", "loop/rec-none", "loop/rec-all", "userver/plain",
                               "userver/rec-all"};
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].name = names[i];
  }
  Samples save_us, saves_per_run, restore_us, execute_ms;
  auto loop = BuildWorkloadOrDie("loop_micro");
  auto userver = BuildWorkloadOrDie("userver");
  const InputSpec loop_spec = LoopMicroSpec(100'000);
  const InstrumentationPlan loop_all = AllBranchesPlan(loop->module());
  const InstrumentationPlan loop_none = NoBranchesPlan(loop->module());
  const Scenario scenario = UserverScenario(1);
  const InstrumentationPlan userver_all = AllBranchesPlan(userver->module());
  const u64 loop_runs = 20 * static_cast<u64>(scale);
  const u64 userver_runs = 300 * static_cast<u64>(scale);
  for (int rep = 0; rep < reps; ++rep) {
    // Dispatch-bound micro: the §5.1 counting loop.
    MeasureRow(&rows[0], loop->module(), loop_spec, nullptr, loop_runs, nullptr);
    MeasureRow(&rows[1], loop->module(), loop_spec, nullptr, loop_runs, &loop_none);
    MeasureRow(&rows[2], loop->module(), loop_spec, nullptr, loop_runs, &loop_all);
    // End-to-end: uServer serving scripted requests, through the virtual
    // OS; the shadow + rec-all cell is a replay run with every branch
    // logged.
    MeasureRow(&rows[3], userver->module(), scenario.spec, scenario.policy.get(), userver_runs,
               nullptr);
    MeasureRow(&rows[4], userver->module(), scenario.spec, scenario.policy.get(), userver_runs,
               &userver_all);
    const ResumeCosts costs = MeasureResume(userver->module(), scenario, userver_runs);
    save_us.values.push_back(costs.save_us);
    saves_per_run.values.push_back(costs.saves_per_run);
    restore_us.values.push_back(costs.restore_us);
    execute_ms.values.push_back(costs.execute_ms);
  }

  // `format` takes the median, the min and the max.
  auto cell = [](const Samples& s, const char* format) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), format, s.Median(), s.Min(), s.Max());
    return std::string(buf);
  };
  std::printf("%-16s %22s %22s %22s\n", "configuration", "concrete ms [range]",
              "shadow ms [range]", "slowdown [range]");
  for (const Row& row : rows) {
    std::printf("%-16s %22s %22s %22s\n", row.name.c_str(),
                cell(row.concrete_ms, "%.3f [%.3f-%.3f]").c_str(),
                cell(row.shadow_ms, "%.3f [%.3f-%.3f]").c_str(),
                cell(row.slowdown, "%.2fx [%.2f-%.2f]").c_str());
  }
  std::printf("\nuserver/resume (shadow, one-cell patch, halfway along %.0f checkpoints):\n",
              saves_per_run.Median());
  std::printf("  save %s us per checkpoint, restore+patch %s us, execute %s ms\n",
              cell(save_us, "%.2f [%.2f-%.2f]").c_str(),
              cell(restore_us, "%.2f [%.2f-%.2f]").c_str(),
              cell(execute_ms, "%.3f [%.3f-%.3f]").c_str());

  const std::string host = HostStampJson();  // Before the open truncates the file.
  FILE* json = std::fopen("BENCH_interp.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_interp.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"interp\",\n  \"host\": %s,\n  \"scale\": %d,\n",
               host.c_str(), scale);
  std::fprintf(json, "  \"reps\": %d,\n  \"rows\": [\n", reps);
  for (const Row& row : rows) {
    std::fprintf(
        json, "    {\"name\": \"%s\", \"runs\": %" PRIu64 ", %s, %s, %s, %s, %s},\n",
        row.name.c_str(), row.runs,
        cell(row.concrete_minstrs, "\"concrete_minstrs_per_sec\": [%.1f, %.1f, %.1f]").c_str(),
        cell(row.shadow_minstrs, "\"shadow_minstrs_per_sec\": [%.1f, %.1f, %.1f]").c_str(),
        cell(row.concrete_ms, "\"concrete_ms_per_run\": [%.3f, %.3f, %.3f]").c_str(),
        cell(row.shadow_ms, "\"shadow_ms_per_run\": [%.3f, %.3f, %.3f]").c_str(),
        cell(row.slowdown, "\"shadow_slowdown\": [%.2f, %.2f, %.2f]").c_str());
  }
  std::fprintf(json, "    {\"name\": \"userver/resume\", \"runs\": %" PRIu64 ", %s, %s, %s, %s}\n",
               userver_runs, cell(saves_per_run, "\"saves_per_run\": [%.0f, %.0f, %.0f]").c_str(),
               cell(save_us, "\"save_us\": [%.2f, %.2f, %.2f]").c_str(),
               cell(restore_us, "\"restore_patch_us\": [%.2f, %.2f, %.2f]").c_str(),
               cell(execute_ms, "\"execute_ms\": [%.3f, %.3f, %.3f]").c_str());
  std::fprintf(json, "  ],\n  \"note\": \"each value is [median, min, max] over the reps\"\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_interp.json\n");
  return 0;
}
