#include "src/solver/solver.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace retrace {
namespace {

bool ConstraintHolds(const ExprArena& arena, const Constraint& c, const std::vector<i64>& model) {
  const bool truthy = arena.Eval(c.expr, model) != 0;
  return truthy == c.want_true;
}

// Search state shared by the repair loop.
struct SearchCtx {
  const ExprArena& arena;
  ConstraintSpan constraints;
  const std::vector<Interval>& domains;
  const std::vector<i64>& seed;
  // var -> indices of constraints mentioning it.
  std::unordered_map<i32, std::vector<size_t>> var_constraints;
  // constraint -> variables mentioned.
  std::vector<std::vector<i32>> constraint_vars;
  u64 steps = 0;
  u64 max_steps = 0;

  bool Budget(u64 n = 1) {
    steps += n;
    return steps <= max_steps;
  }
};

Interval NarrowedDomain(const SearchCtx& ctx, i32 var) {
  Interval iv = var < static_cast<i32>(ctx.domains.size()) ? ctx.domains[var] : Interval{0, 255};
  auto it = ctx.var_constraints.find(var);
  if (it != ctx.var_constraints.end()) {
    // Iterate narrowing to a small fixed point; each pass can expose new
    // endpoint-disequality narrowings.
    for (int pass = 0; pass < 4; ++pass) {
      Interval before = iv;
      for (size_t ci : it->second) {
        NarrowForConstraint(ctx.arena, ctx.constraints[ci], var, &iv);
        if (iv.Empty()) {
          return iv;
        }
      }
      if (before == iv) {
        break;
      }
    }
  }
  return iv;
}

// Candidate values for `var`, most promising first. Includes the seed
// value, values related to constants in the constraints that mention the
// variable, the current values of co-occurring variables (valuable for
// equality chains like a[i] == b[j]), the narrowed domain endpoints, and —
// when the narrowed domain is small — every remaining value.
std::vector<i64> CandidatesFor(const SearchCtx& ctx, i32 var, const std::vector<i64>& model,
                               const Interval& domain, u64 max_enumeration) {
  std::vector<i64> out;
  std::unordered_set<i64> dedup;
  auto add = [&](i64 v) {
    if (domain.Contains(v) && dedup.insert(v).second) {
      out.push_back(v);
    }
  };
  if (var < static_cast<i32>(ctx.seed.size())) {
    add(ctx.seed[var]);
  }
  if (var < static_cast<i32>(model.size())) {
    add(model[var]);
  }
  auto it = ctx.var_constraints.find(var);
  if (it != ctx.var_constraints.end()) {
    for (size_t ci : it->second) {
      std::vector<i64> consts;
      ctx.arena.CollectConsts(ctx.constraints[ci].expr, &consts);
      for (i64 k : consts) {
        add(k);
        add(k + 1);
        add(k - 1);
      }
      for (i32 other : ctx.constraint_vars[ci]) {
        if (other != var && other < static_cast<i32>(model.size())) {
          add(model[other]);
          add(model[other] + 1);
          add(model[other] - 1);
        }
      }
    }
  }
  add(0);
  add(1);
  add(domain.lo);
  add(domain.hi);
  if (domain.Size() <= max_enumeration) {
    for (i64 v = domain.lo; v <= domain.hi; ++v) {
      add(v);
      if (v == INT64_MAX) {
        break;
      }
    }
  }
  return out;
}

// A prepared backtracking problem: the variable order plus, per depth, the
// constraints that become fully assigned once vars[0..depth] have values
// (forward checking), and the constraints that spill outside the variable
// set (checked at the leaf against the surrounding model).
struct BacktrackPlan {
  std::vector<i32> vars;
  std::vector<std::vector<size_t>> check_at_depth;
  std::vector<size_t> leaf_extra;
};

BacktrackPlan MakeBacktrackPlan(const SearchCtx& ctx, const std::vector<i32>& vars) {
  BacktrackPlan plan;
  plan.vars = vars;
  plan.check_at_depth.resize(vars.size());
  std::unordered_map<i32, size_t> position;
  for (size_t i = 0; i < vars.size(); ++i) {
    position[vars[i]] = i;
  }
  std::unordered_set<size_t> touching;
  for (i32 v : vars) {
    auto it = ctx.var_constraints.find(v);
    if (it == ctx.var_constraints.end()) {
      continue;
    }
    touching.insert(it->second.begin(), it->second.end());
  }
  for (size_t ci : touching) {
    size_t max_depth = 0;
    bool inside = true;
    for (i32 v : ctx.constraint_vars[ci]) {
      auto it = position.find(v);
      if (it == position.end()) {
        inside = false;
        break;
      }
      max_depth = std::max(max_depth, it->second);
    }
    if (inside) {
      plan.check_at_depth[max_depth].push_back(ci);
    } else {
      plan.leaf_extra.push_back(ci);
    }
  }
  return plan;
}

// Depth-first search with forward checking. `exhaustive` is cleared
// whenever a candidate list did not cover the variable's full narrowed
// domain (then a failure is not a proof of unsatisfiability).
bool Backtrack(SearchCtx& ctx, const BacktrackPlan& plan, size_t depth, std::vector<i64>& model,
               u64 max_enumeration, bool* exhaustive) {
  if (depth == plan.vars.size()) {
    for (size_t ci : plan.leaf_extra) {
      if (!ConstraintHolds(ctx.arena, ctx.constraints[ci], model)) {
        return false;
      }
    }
    return true;
  }
  const i32 var = plan.vars[depth];
  const Interval domain = NarrowedDomain(ctx, var);
  if (domain.Empty()) {
    return false;
  }
  const std::vector<i64> candidates = CandidatesFor(ctx, var, model, domain, max_enumeration);
  if (domain.Size() > candidates.size()) {
    *exhaustive = false;
  }
  const i64 saved = var < static_cast<i32>(model.size()) ? model[var] : 0;
  for (i64 cand : candidates) {
    if (!ctx.Budget()) {
      *exhaustive = false;
      break;
    }
    model[var] = cand;
    bool pruned = false;
    for (size_t ci : plan.check_at_depth[depth]) {
      if (!ConstraintHolds(ctx.arena, ctx.constraints[ci], model)) {
        pruned = true;
        break;
      }
    }
    if (pruned) {
      continue;
    }
    if (Backtrack(ctx, plan, depth + 1, model, max_enumeration, exhaustive)) {
      return true;
    }
  }
  model[var] = saved;
  return false;
}

}  // namespace

bool Solver::Satisfies(ConstraintSpan constraints, const std::vector<i64>& model) const {
  arena_.StartEvalBatch();
  for (size_t i = 0; i < constraints.size(); ++i) {
    if ((arena_.EvalInBatch(constraints[i].expr, model) != 0) != constraints[i].want_true) {
      return false;
    }
  }
  return true;
}

SolveResult Solver::Solve(ConstraintSpan constraints, const std::vector<Interval>& domains,
                          const std::vector<i64>& seed) const {
  SearchCtx ctx{arena_, constraints, domains, seed, {}, {}, 0, options_.max_steps};

  // Index variables per constraint.
  ctx.constraint_vars.resize(constraints.size());
  i32 max_var = -1;
  for (size_t i = 0; i < constraints.size(); ++i) {
    arena_.CollectVars(constraints[i].expr, &ctx.constraint_vars[i]);
    for (i32 v : ctx.constraint_vars[i]) {
      ctx.var_constraints[v].push_back(i);
      max_var = std::max(max_var, v);
    }
  }

  // Initial model: seed clamped into domains.
  std::vector<i64> model(std::max<size_t>(seed.size(), static_cast<size_t>(max_var) + 1), 0);
  for (size_t i = 0; i < model.size(); ++i) {
    i64 v = i < seed.size() ? seed[i] : 0;
    const Interval dom = i < domains.size() ? domains[i] : Interval{0, 255};
    v = std::clamp(v, dom.lo, dom.hi);
    model[i] = v;
  }

  SolveResult result;
  bool all_exhaustive = true;
  for (u64 round = 0; round < constraints.size() + 16; ++round) {
    // Find the first unsatisfied constraint.
    size_t unsat = constraints.size();
    for (size_t i = 0; i < constraints.size(); ++i) {
      if (!ctx.Budget()) {
        result.status = SolveStatus::kUnknown;
        result.steps = ctx.steps;
        return result;
      }
      if (!ConstraintHolds(arena_, constraints[i], model)) {
        unsat = i;
        break;
      }
    }
    if (unsat == constraints.size()) {
      result.status = SolveStatus::kSat;
      result.model = std::move(model);
      result.steps = ctx.steps;
      return result;
    }

    // Phase 1: repair just this constraint's variables.
    bool exhaustive = true;
    std::vector<i64> scratch = model;
    const BacktrackPlan local_plan = MakeBacktrackPlan(ctx, ctx.constraint_vars[unsat]);
    if (Backtrack(ctx, local_plan, 0, scratch, options_.max_enumeration, &exhaustive)) {
      model = std::move(scratch);
      continue;
    }

    // Phase 2: joint repair over the full connected component of variables
    // reachable from the unsatisfied constraint via shared constraints
    // (equality chains like a[0]==b[0]==...=='z' need every link).
    std::vector<i32> joint = ctx.constraint_vars[unsat];
    std::unordered_set<i32> joint_set(joint.begin(), joint.end());
    constexpr size_t kMaxJointVars = 24;
    bool component_truncated = false;
    for (size_t head = 0; head < joint.size(); ++head) {
      if (joint.size() > kMaxJointVars) {
        component_truncated = true;
        break;
      }
      for (size_t ci : ctx.var_constraints[joint[head]]) {
        for (i32 w : ctx.constraint_vars[ci]) {
          if (joint_set.insert(w).second) {
            joint.push_back(w);
          }
        }
      }
    }
    if (joint.size() > kMaxJointVars) {
      joint.resize(kMaxJointVars);
      component_truncated = true;
    }
    if (component_truncated) {
      exhaustive = false;
    }
    scratch = model;
    bool joint_exhaustive = true;
    const BacktrackPlan joint_plan = MakeBacktrackPlan(ctx, joint);
    if (Backtrack(ctx, joint_plan, 0, scratch, options_.max_enumeration, &joint_exhaustive)) {
      model = std::move(scratch);
      continue;
    }
    all_exhaustive = exhaustive && joint_exhaustive && all_exhaustive;

    // The constraint could not be repaired. An UNSAT verdict is only sound
    // when the search enumerated the whole cross product of the narrowed
    // domains over the complete connected component; otherwise give up
    // without a verdict.
    result.status = all_exhaustive && !component_truncated && joint_exhaustive
                        ? SolveStatus::kUnsat
                        : SolveStatus::kUnknown;
    result.steps = ctx.steps;
    return result;
  }
  result.status = SolveStatus::kUnknown;
  result.steps = ctx.steps;
  return result;
}

}  // namespace retrace
