// Execution-core microbenchmark: concrete vs shadow execution.
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
// Emits BENCH_interp.json, stamped with its host, next to the human table.
#include <chrono>
#include <cinttypes>
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

struct Row {
  std::string name;
  Cell concrete;
  Cell shadow;
  double Slowdown() const {
    return concrete.seconds <= 0 ? 0 : shadow.SecsPerRun() / concrete.SecsPerRun();
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

Row MeasureRow(std::string name, const IrModule& module, const InputSpec& spec,
               NondetPolicy* policy, u64 runs, const InstrumentationPlan* plan) {
  Row row;
  row.name = std::move(name);
  row.concrete = Measure(module, spec, policy, runs, /*shadow=*/false, plan);
  row.shadow = Measure(module, spec, policy, runs, /*shadow=*/true, plan);
  return row;
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

int main() {
  using namespace retrace;
  const int scale = BenchScale();

  std::printf("==============================================================\n");
  std::printf("Execution core: concrete vs shadow execution (tree walker)\n");
  std::printf("==============================================================\n\n");

  std::vector<Row> rows;

  // ----- Dispatch-bound micro: the §5.1 counting loop -----
  {
    auto pipeline = BuildWorkloadOrDie("loop_micro");
    const IrModule& module = pipeline->module();
    const InputSpec spec = LoopMicroSpec(100'000);
    const u64 runs = 20 * static_cast<u64>(scale);
    const InstrumentationPlan all = AllBranchesPlan(module);
    const InstrumentationPlan none = NoBranchesPlan(module);
    rows.push_back(MeasureRow("loop/plain", module, spec, nullptr, runs, nullptr));
    rows.push_back(MeasureRow("loop/rec-none", module, spec, nullptr, runs, &none));
    rows.push_back(MeasureRow("loop/rec-all", module, spec, nullptr, runs, &all));
  }

  // ----- End-to-end: uServer serving scripted requests -----
  // The replay-search inner loop: syscalls through the virtual OS; the
  // shadow + rec-all cell is a replay run with every branch logged.
  {
    auto pipeline = BuildWorkloadOrDie("userver");
    const IrModule& module = pipeline->module();
    const Scenario scenario = UserverScenario(1);
    const u64 runs = 300 * static_cast<u64>(scale);
    const InstrumentationPlan all = AllBranchesPlan(module);
    rows.push_back(MeasureRow("userver/plain", module, scenario.spec, scenario.policy.get(),
                              runs, nullptr));
    rows.push_back(MeasureRow("userver/rec-all", module, scenario.spec, scenario.policy.get(),
                              runs, &all));
  }

  std::printf("%-18s %14s %14s %13s %13s %9s\n", "configuration", "concrete Mi/s",
              "shadow Mi/s", "concrete ms", "shadow ms", "slowdown");
  for (const Row& row : rows) {
    std::printf("%-18s %14.1f %14.1f %13.3f %13.3f %8.2fx\n", row.name.c_str(),
                row.concrete.MinstrsPerSec(), row.shadow.MinstrsPerSec(),
                row.concrete.SecsPerRun() * 1e3, row.shadow.SecsPerRun() * 1e3,
                row.Slowdown());
  }

  FILE* json = std::fopen("BENCH_interp.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_interp.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"interp\",\n  \"host\": %s,\n  \"scale\": %d,\n",
               HostStampJson().c_str(), scale);
  std::fprintf(json, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"runs\": %" PRIu64
                 ", \"concrete_minstrs_per_sec\": %.1f, \"shadow_minstrs_per_sec\": %.1f, "
                 "\"concrete_ms_per_run\": %.3f, \"shadow_ms_per_run\": %.3f, "
                 "\"shadow_slowdown\": %.2f}%s\n",
                 row.name.c_str(), row.concrete.runs, row.concrete.MinstrsPerSec(),
                 row.shadow.MinstrsPerSec(), row.concrete.SecsPerRun() * 1e3,
                 row.shadow.SecsPerRun() * 1e3, row.Slowdown(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_interp.json\n");
  return 0;
}
