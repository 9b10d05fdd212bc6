// Constraint solver over input cells.
//
// A "model" is an assignment of one i64 per variable id. Solving starts
// from a seed model (the concrete input of the run that produced the
// constraints — the concolic trick that keeps most constraints satisfied
// already) and repairs unsatisfied constraints by local search, falling
// back to bounded backtracking over the variables of the conflicting
// constraints. Domains are small (bytes, syscall result ranges), which the
// candidate enumeration exploits.
#ifndef RETRACE_SOLVER_SOLVER_H_
#define RETRACE_SOLVER_SOLVER_H_

#include <vector>

#include "src/solver/expr.h"
#include "src/solver/interval.h"
#include "src/support/budget.h"

namespace retrace {

enum class SolveStatus { kSat, kUnsat, kUnknown };

struct SolveResult {
  SolveStatus status = SolveStatus::kUnknown;
  std::vector<i64> model;  // Valid when status == kSat.
  u64 steps = 0;           // Search effort, for statistics.
};

struct SolverOptions {
  u64 max_steps = 2'000'000;  // Search step budget per Solve call.
  // Upper bound on exhaustive candidate enumeration per variable. Domains
  // larger than this are sampled through heuristic candidates only.
  u64 max_enumeration = 512;
};

class Solver {
 public:
  Solver(const ExprArena& arena, SolverOptions options) : arena_(arena), options_(options) {}

  // Solves `constraints` over variables with the given domains. `seed` is
  // the starting assignment; entries beyond seed.size() default to the
  // domain lower bound clamped to 0 where possible. The span form is the
  // primitive: frontier pops solve straight over a trace-prefix view
  // (optionally negating the last constraint) without copying the set.
  SolveResult Solve(ConstraintSpan constraints, const std::vector<Interval>& domains,
                    const std::vector<i64>& seed) const;
  SolveResult Solve(const std::vector<Constraint>& constraints,
                    const std::vector<Interval>& domains, const std::vector<i64>& seed) const {
    return Solve(ConstraintSpan(constraints.data(), constraints.size()), domains, seed);
  }

  // The same, into `out`, whose model keeps its storage across calls.
  void Solve(ConstraintSpan constraints, const std::vector<Interval>& domains,
             const std::vector<i64>& seed, SolveResult* out) const;

  // Convenience: evaluates whether `model` satisfies all constraints.
  bool Satisfies(ConstraintSpan constraints, const std::vector<i64>& model) const;
  bool Satisfies(const std::vector<Constraint>& constraints, const std::vector<i64>& model) const {
    return Satisfies(ConstraintSpan(constraints.data(), constraints.size()), model);
  }

  // Buffers one Solve call fills and the next reuses, so that a warm
  // solver searches without allocating. They make Solve non-reentrant:
  // one solver per thread, like the arena it reads.
  struct Scratch {
    // Which constraints mention each variable, and which variables each
    // constraint mentions, as offset tables into flat arrays.
    std::vector<u32> var_start;
    std::vector<u32> var_cons;
    std::vector<u32> cons_start;
    std::vector<i32> cons_vars;
    std::vector<i32> collect;
    std::vector<i64> consts;
    // Candidate values per backtracking depth, and the values one
    // candidate list already holds: open addressing, cleared by stamp.
    std::vector<std::vector<i64>> candidates;
    std::vector<i64> seen_keys;
    std::vector<u32> seen_stamps;
    u32 seen_stamp = 0;
    size_t seen_size = 0;
    // One backtracking plan: its variables, each variable's position in
    // them, the constraints checked at each depth and at the leaf.
    std::vector<i32> plan_vars;
    std::vector<i32> position;
    std::vector<u8> touching;
    std::vector<u32> touched;
    std::vector<std::vector<u32>> check_at_depth;
    std::vector<u32> leaf_extra;
    std::vector<i32> joint;
    std::vector<u8> in_joint;
    std::vector<i64> trial;
  };

 private:
  const ExprArena& arena_;
  SolverOptions options_;
  mutable Scratch scratch_;
};

}  // namespace retrace

#endif  // RETRACE_SOLVER_SOLVER_H_
