#include "src/solver/solver.h"

#include <algorithm>
#include <span>

namespace retrace {
namespace {

bool ConstraintHolds(const ExprArena& arena, const Constraint& c, const std::vector<i64>& model) {
  const bool truthy = arena.Eval(c.expr, model) != 0;
  return truthy == c.want_true;
}

// Search state shared by the repair loop; the index tables live in the
// solver's scratch.
struct SearchCtx {
  const ExprArena& arena;
  ConstraintSpan constraints;
  const std::vector<Interval>& domains;
  const std::vector<i64>& seed;
  Solver::Scratch& scratch;
  u64 steps = 0;
  u64 max_steps = 0;

  bool Budget(u64 n = 1) {
    steps += n;
    return steps <= max_steps;
  }
  // Indices of the constraints mentioning `var`, ascending.
  std::span<const u32> ConstraintsOf(i32 var) const {
    if (var < 0 || static_cast<size_t>(var) + 1 >= scratch.var_start.size()) {
      return {};
    }
    const u32* start = scratch.var_start.data() + var;
    return {scratch.var_cons.data() + start[0], start[1] - start[0]};
  }
  // The variables constraint `ci` mentions, in CollectVars order.
  std::span<const i32> VarsOf(size_t ci) const {
    const u32* start = scratch.cons_start.data() + ci;
    return {scratch.cons_vars.data() + start[0], start[1] - start[0]};
  }
};

Interval NarrowedDomain(const SearchCtx& ctx, i32 var) {
  Interval iv = var < static_cast<i32>(ctx.domains.size()) ? ctx.domains[var] : Interval{0, 255};
  const std::span<const u32> cons = ctx.ConstraintsOf(var);
  if (!cons.empty()) {
    // Iterate narrowing to a small fixed point; each pass can expose new
    // endpoint-disequality narrowings.
    for (int pass = 0; pass < 4; ++pass) {
      Interval before = iv;
      for (size_t ci : cons) {
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

// Starts a new candidate list: no value seen yet.
void ClearSeen(Solver::Scratch& scratch) {
  if (scratch.seen_keys.empty()) {
    scratch.seen_keys.resize(64);
    scratch.seen_stamps.assign(64, 0);
  }
  if (++scratch.seen_stamp == 0) {
    std::fill(scratch.seen_stamps.begin(), scratch.seen_stamps.end(), 0);
    scratch.seen_stamp = 1;
  }
  scratch.seen_size = 0;
}

size_t SeenSlot(const Solver::Scratch& scratch, i64 v) {
  const size_t mask = scratch.seen_keys.size() - 1;
  size_t at = static_cast<size_t>(HashMix(0x9e3779b97f4a7c15ull, static_cast<u64>(v))) & mask;
  while (scratch.seen_stamps[at] == scratch.seen_stamp && scratch.seen_keys[at] != v) {
    at = (at + 1) & mask;
  }
  return at;
}

// True when `v` is new to the current candidate list, which now has it.
bool InsertSeen(Solver::Scratch& scratch, i64 v) {
  size_t at = SeenSlot(scratch, v);
  if (scratch.seen_stamps[at] == scratch.seen_stamp) {
    return false;
  }
  if (2 * (scratch.seen_size + 1) > scratch.seen_keys.size()) {
    // Grow, re-inserting the list's values.
    std::vector<i64> keys(2 * scratch.seen_keys.size());
    std::vector<u32> stamps(keys.size(), 0);
    keys.swap(scratch.seen_keys);
    stamps.swap(scratch.seen_stamps);
    const u32 stamp = scratch.seen_stamp;
    scratch.seen_stamp = 1;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (stamps[i] == stamp) {
        const size_t to = SeenSlot(scratch, keys[i]);
        scratch.seen_stamps[to] = 1;
        scratch.seen_keys[to] = keys[i];
      }
    }
    at = SeenSlot(scratch, v);
  }
  scratch.seen_stamps[at] = scratch.seen_stamp;
  scratch.seen_keys[at] = v;
  ++scratch.seen_size;
  return true;
}

// Candidate values for `var`, most promising first, into `out`. Includes
// the seed value, values related to constants in the constraints that
// mention the variable, the current values of co-occurring variables
// (valuable for equality chains like a[i] == b[j]), the narrowed domain
// endpoints, and — when the narrowed domain is small — every remaining
// value.
void CandidatesFor(const SearchCtx& ctx, i32 var, const std::vector<i64>& model,
                   const Interval& domain, u64 max_enumeration, std::vector<i64>* out) {
  Solver::Scratch& scratch = ctx.scratch;
  out->clear();
  ClearSeen(scratch);
  auto add = [&](i64 v) {
    if (domain.Contains(v) && InsertSeen(scratch, v)) {
      out->push_back(v);
    }
  };
  if (var < static_cast<i32>(ctx.seed.size())) {
    add(ctx.seed[var]);
  }
  if (var < static_cast<i32>(model.size())) {
    add(model[var]);
  }
  for (size_t ci : ctx.ConstraintsOf(var)) {
    std::vector<i64>& consts = scratch.consts;
    consts.clear();
    ctx.arena.CollectConsts(ctx.constraints[ci].expr, &consts);
    for (i64 k : consts) {
      add(k);
      add(k + 1);
      add(k - 1);
    }
    for (i32 other : ctx.VarsOf(ci)) {
      if (other != var && other < static_cast<i32>(model.size())) {
        add(model[other]);
        add(model[other] + 1);
        add(model[other] - 1);
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
}

// Prepares a backtracking problem over `vars` in the scratch's plan: the
// variable order plus, per depth, the constraints that become fully
// assigned once vars[0..depth] have values (forward checking), and the
// constraints that spill outside the variable set (checked at the leaf
// against the surrounding model).
void MakeBacktrackPlan(const SearchCtx& ctx, std::span<const i32> vars) {
  Solver::Scratch& scratch = ctx.scratch;
  scratch.plan_vars.assign(vars.begin(), vars.end());
  if (scratch.check_at_depth.size() < vars.size()) {
    scratch.check_at_depth.resize(vars.size());
    scratch.candidates.resize(vars.size());  // Backtrack holds one per depth.
  }
  for (size_t i = 0; i < vars.size(); ++i) {
    scratch.check_at_depth[i].clear();
  }
  scratch.leaf_extra.clear();
  for (size_t i = 0; i < vars.size(); ++i) {
    scratch.position[static_cast<size_t>(vars[i])] = static_cast<i32>(i);
  }
  scratch.touched.clear();
  for (i32 v : vars) {
    for (u32 ci : ctx.ConstraintsOf(v)) {
      if (scratch.touching[ci] == 0) {
        scratch.touching[ci] = 1;
        scratch.touched.push_back(ci);
      }
    }
  }
  for (u32 ci : scratch.touched) {
    scratch.touching[ci] = 0;
    size_t max_depth = 0;
    bool inside = true;
    for (i32 v : ctx.VarsOf(ci)) {
      const i32 at = scratch.position[static_cast<size_t>(v)];
      if (at < 0) {
        inside = false;
        break;
      }
      max_depth = std::max(max_depth, static_cast<size_t>(at));
    }
    if (inside) {
      scratch.check_at_depth[max_depth].push_back(ci);
    } else {
      scratch.leaf_extra.push_back(ci);
    }
  }
  for (i32 v : vars) {
    scratch.position[static_cast<size_t>(v)] = -1;
  }
}

// Depth-first search with forward checking over the scratch's plan.
// `exhaustive` is cleared whenever a candidate list did not cover the
// variable's full narrowed domain (then a failure is not a proof of
// unsatisfiability).
bool Backtrack(SearchCtx& ctx, size_t depth, std::vector<i64>& model, u64 max_enumeration,
               bool* exhaustive) {
  Solver::Scratch& scratch = ctx.scratch;
  if (depth == scratch.plan_vars.size()) {
    for (size_t ci : scratch.leaf_extra) {
      if (!ConstraintHolds(ctx.arena, ctx.constraints[ci], model)) {
        return false;
      }
    }
    return true;
  }
  const i32 var = scratch.plan_vars[depth];
  const Interval domain = NarrowedDomain(ctx, var);
  if (domain.Empty()) {
    return false;
  }
  std::vector<i64>& candidates = scratch.candidates[depth];
  CandidatesFor(ctx, var, model, domain, max_enumeration, &candidates);
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
    for (size_t ci : scratch.check_at_depth[depth]) {
      if (!ConstraintHolds(ctx.arena, ctx.constraints[ci], model)) {
        pruned = true;
        break;
      }
    }
    if (pruned) {
      continue;
    }
    if (Backtrack(ctx, depth + 1, model, max_enumeration, exhaustive)) {
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
  SolveResult result;
  Solve(constraints, domains, seed, &result);
  if (result.status != SolveStatus::kSat) {
    result.model.clear();
  }
  return result;
}

void Solver::Solve(ConstraintSpan constraints, const std::vector<Interval>& domains,
                   const std::vector<i64>& seed, SolveResult* out) const {
  Scratch& scratch = scratch_;
  SearchCtx ctx{arena_, constraints, domains, seed, scratch, 0, options_.max_steps};
  out->status = SolveStatus::kUnknown;
  out->steps = 0;

  // Index variables per constraint, then constraints per variable.
  scratch.cons_start.assign(1, 0);
  scratch.cons_vars.clear();
  i32 max_var = -1;
  for (size_t i = 0; i < constraints.size(); ++i) {
    scratch.collect.clear();
    arena_.CollectVars(constraints[i].expr, &scratch.collect);
    for (i32 v : scratch.collect) {
      max_var = std::max(max_var, v);
    }
    scratch.cons_vars.insert(scratch.cons_vars.end(), scratch.collect.begin(),
                             scratch.collect.end());
    scratch.cons_start.push_back(static_cast<u32>(scratch.cons_vars.size()));
  }
  const size_t num_vars = static_cast<size_t>(max_var + 1);
  scratch.var_start.assign(num_vars + 1, 0);
  for (i32 v : scratch.cons_vars) {
    ++scratch.var_start[static_cast<size_t>(v) + 1];
  }
  for (size_t v = 0; v < num_vars; ++v) {
    scratch.var_start[v + 1] += scratch.var_start[v];
  }
  scratch.var_cons.resize(scratch.cons_vars.size());
  scratch.collect.assign(scratch.var_start.begin(), scratch.var_start.end() - 1);
  for (size_t i = 0; i < constraints.size(); ++i) {
    for (i32 v : ctx.VarsOf(i)) {
      scratch.var_cons[static_cast<size_t>(scratch.collect[static_cast<size_t>(v)]++)] =
          static_cast<u32>(i);
    }
  }
  if (scratch.position.size() < num_vars) {
    scratch.position.resize(num_vars, -1);
    scratch.in_joint.resize(num_vars, 0);
  }
  if (scratch.touching.size() < constraints.size()) {
    scratch.touching.resize(constraints.size(), 0);
  }

  // Initial model: seed clamped into domains.
  std::vector<i64>& model = out->model;
  model.assign(std::max<size_t>(seed.size(), num_vars), 0);
  for (size_t i = 0; i < model.size(); ++i) {
    i64 v = i < seed.size() ? seed[i] : 0;
    const Interval dom = i < domains.size() ? domains[i] : Interval{0, 255};
    v = std::clamp(v, dom.lo, dom.hi);
    model[i] = v;
  }

  bool all_exhaustive = true;
  std::vector<i64>& trial = scratch.trial;
  for (u64 round = 0; round < constraints.size() + 16; ++round) {
    // Find the first unsatisfied constraint.
    size_t unsat = constraints.size();
    for (size_t i = 0; i < constraints.size(); ++i) {
      if (!ctx.Budget()) {
        out->status = SolveStatus::kUnknown;
        out->steps = ctx.steps;
        return;
      }
      if (!ConstraintHolds(arena_, constraints[i], model)) {
        unsat = i;
        break;
      }
    }
    if (unsat == constraints.size()) {
      out->status = SolveStatus::kSat;
      out->steps = ctx.steps;
      return;
    }

    // Phase 1: repair just this constraint's variables.
    bool exhaustive = true;
    trial = model;
    MakeBacktrackPlan(ctx, ctx.VarsOf(unsat));
    if (Backtrack(ctx, 0, trial, options_.max_enumeration, &exhaustive)) {
      model.swap(trial);
      continue;
    }

    // Phase 2: joint repair over the full connected component of variables
    // reachable from the unsatisfied constraint via shared constraints
    // (equality chains like a[0]==b[0]==...=='z' need every link).
    std::vector<i32>& joint = scratch.joint;
    joint.assign(ctx.VarsOf(unsat).begin(), ctx.VarsOf(unsat).end());
    for (i32 v : joint) {
      scratch.in_joint[static_cast<size_t>(v)] = 1;
    }
    constexpr size_t kMaxJointVars = 24;
    bool component_truncated = false;
    for (size_t head = 0; head < joint.size(); ++head) {
      if (joint.size() > kMaxJointVars) {
        component_truncated = true;
        break;
      }
      for (size_t ci : ctx.ConstraintsOf(joint[head])) {
        for (i32 w : ctx.VarsOf(ci)) {
          if (scratch.in_joint[static_cast<size_t>(w)] == 0) {
            scratch.in_joint[static_cast<size_t>(w)] = 1;
            joint.push_back(w);
          }
        }
      }
    }
    for (i32 v : joint) {
      scratch.in_joint[static_cast<size_t>(v)] = 0;
    }
    if (joint.size() > kMaxJointVars) {
      joint.resize(kMaxJointVars);
      component_truncated = true;
    }
    if (component_truncated) {
      exhaustive = false;
    }
    trial = model;
    bool joint_exhaustive = true;
    MakeBacktrackPlan(ctx, joint);
    if (Backtrack(ctx, 0, trial, options_.max_enumeration, &joint_exhaustive)) {
      model.swap(trial);
      continue;
    }
    all_exhaustive = exhaustive && joint_exhaustive && all_exhaustive;

    // The constraint could not be repaired. An UNSAT verdict is only sound
    // when the search enumerated the whole cross product of the narrowed
    // domains over the complete connected component; otherwise give up
    // without a verdict.
    out->status = all_exhaustive && !component_truncated && joint_exhaustive
                      ? SolveStatus::kUnsat
                      : SolveStatus::kUnknown;
    out->steps = ctx.steps;
    return;
  }
  out->status = SolveStatus::kUnknown;
  out->steps = ctx.steps;
}

}  // namespace retrace
