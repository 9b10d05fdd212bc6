// Concolic execution engine: the paper's dynamic analysis (§2.1).
//
// The engine repeatedly runs the program with concrete inputs while
// collecting path constraints at symbolic branches, then negates a
// constraint, solves, and re-runs with the new input (generational search,
// depth-first). Every executed branch gets labeled:
//   - symbolic: executed at least once with an input-dependent condition
//     (sticky — a later concrete execution does not downgrade it);
//   - concrete: executed, so far only with input-independent conditions;
//   - unvisited: never executed before the budget ran out.
// The budget knob is the paper's LC/HC coverage lever.
#ifndef RETRACE_CONCOLIC_ENGINE_H_
#define RETRACE_CONCOLIC_ENGINE_H_

#include <memory>
#include <vector>

#include "src/concolic/cellrun.h"
#include "src/solver/solver.h"
#include "src/support/budget.h"
#include "src/support/rng.h"

namespace retrace {

enum class BranchLabel : u8 { kUnvisited, kConcrete, kSymbolic };

struct BranchStats {
  u64 execs = 0;
  u64 symbolic_execs = 0;
};

struct AnalysisConfig {
  u64 max_runs = 128;              // Exploration budget in runs (deterministic knob).
  i64 wall_ms = -1;                // Optional wall-clock budget (paper's 1h/2h).
  u64 max_steps_per_run = 50'000'000;
  u64 total_steps = 2'000'000'000; // Shared step budget across all runs.
  SolverOptions solver;
  u64 seed = 1;                    // RNG seed for the initial random input.
  bool start_from_defaults = true; // Seed first run with the spec's bytes
                                   // (the "leverage the test suite" mode);
                                   // false = random initial input.
  // Additional seed inputs (cell models over the spec's layout), e.g. a
  // manual test suite. The paper proposes exactly this to boost coverage:
  // deep byte-ladders (protocol keywords, header names) defeat pure
  // constraint negation, but exploration radiates outward from each seed.
  std::vector<std::vector<i64>> extra_seed_models;
  // Upper bound on the model corpus recorded into AnalysisResult::corpus
  // (deduplicated inputs the exploration actually ran, in discovery
  // order). 0 disables collection entirely.
  u64 corpus_max = 64;
};

struct AnalysisResult {
  std::vector<BranchLabel> labels;  // Per branch id.
  std::vector<BranchStats> stats;   // Per branch id, across all runs.
  u64 runs = 0;
  u64 solver_calls = 0;
  bool budget_exhausted = false;
  // The dynamic-analysis corpus: deduplicated concrete input models the
  // exploration ran (initial input, extra seeds, and every solver-derived
  // input), capped at AnalysisConfig::corpus_max. Replay's corpus-seeded
  // search (ReplayConfig::corpus_seeds) starts shard workers from these
  // instead of random bytes alone.
  std::vector<std::vector<i64>> corpus;

  size_t CountLabel(BranchLabel label) const;
  // Visited branch locations / total branch locations.
  double Coverage() const;
  // Locations with at least one symbolic execution, restricted to app or
  // library code via the module's branch table (callers filter).
};

class ConcolicEngine {
 public:
  ConcolicEngine(const IrModule& module, ExprArena* arena)
      : module_(module), arena_(arena) {}

  // Time/run-budgeted path exploration from `spec`.
  AnalysisResult Analyze(const InputSpec& spec, const AnalysisConfig& config);

  // Single profiled run with the spec's concrete input (Figures 1 and 3):
  // no exploration, just per-branch execution/symbolic counts.
  AnalysisResult ProfileRun(const InputSpec& spec, NondetPolicy* policy);

 private:
  const IrModule& module_;
  ExprArena* arena_;
};

}  // namespace retrace

#endif  // RETRACE_CONCOLIC_ENGINE_H_
