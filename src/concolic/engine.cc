#include "src/concolic/engine.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/support/dense_bitset.h"

namespace retrace {
namespace {

// Observer recording the symbolic path constraints and branch labels/stats.
// Direction coverage (which (branch, taken) pairs have ever executed)
// steers the generational search away from already-explored flips.
class PathCollector : public BranchObserver {
 public:
  PathCollector(std::vector<BranchLabel>* labels, std::vector<BranchStats>* stats,
                DenseBitset* cov_taken = nullptr, DenseBitset* cov_not_taken = nullptr)
      : labels_(labels), stats_(stats), cov_taken_(cov_taken), cov_not_taken_(cov_not_taken) {}

  Action OnBranch(i32 branch_id, bool taken, ExprRef cond_shadow) override {
    const bool symbolic = cond_shadow != kNoExpr;
    if (stats_ != nullptr) {
      BranchStats& s = (*stats_)[branch_id];
      ++s.execs;
      if (symbolic) {
        ++s.symbolic_execs;
      }
    }
    if (labels_ != nullptr) {
      BranchLabel& label = (*labels_)[branch_id];
      if (symbolic) {
        label = BranchLabel::kSymbolic;
      } else if (label == BranchLabel::kUnvisited) {
        label = BranchLabel::kConcrete;
      }
    }
    if (cov_taken_ != nullptr) {
      (taken ? *cov_taken_ : *cov_not_taken_).Set(branch_id);
    }
    if (symbolic) {
      trace.push_back(Constraint{cond_shadow, taken});
      trace_branches.push_back(branch_id);
      trace_taken.push_back(taken);
    }
    return Action::kContinue;
  }

  std::vector<Constraint> trace;
  std::vector<i32> trace_branches;
  std::vector<bool> trace_taken;

 private:
  std::vector<BranchLabel>* labels_;
  std::vector<BranchStats>* stats_;
  DenseBitset* cov_taken_;
  DenseBitset* cov_not_taken_;
};

}  // namespace

size_t AnalysisResult::CountLabel(BranchLabel label) const {
  size_t n = 0;
  for (BranchLabel l : labels) {
    if (l == label) {
      ++n;
    }
  }
  return n;
}

double AnalysisResult::Coverage() const {
  if (labels.empty()) {
    return 0.0;
  }
  const size_t visited = labels.size() - CountLabel(BranchLabel::kUnvisited);
  return static_cast<double>(visited) / static_cast<double>(labels.size());
}

AnalysisResult ConcolicEngine::ProfileRun(const InputSpec& spec, NondetPolicy* policy) {
  AnalysisResult result;
  result.labels.assign(module_.branches.size(), BranchLabel::kUnvisited);
  result.stats.assign(module_.branches.size(), BranchStats{});

  CellRunner runner(module_, spec);
  PathCollector collector(&result.labels, &result.stats);
  CellRunConfig config;
  config.policy = policy;
  config.arena = arena_;
  config.observers = {&collector};
  runner.Run(config);
  result.runs = 1;
  return result;
}

AnalysisResult ConcolicEngine::Analyze(const InputSpec& spec, const AnalysisConfig& config) {
  AnalysisResult result;
  result.labels.assign(module_.branches.size(), BranchLabel::kUnvisited);
  result.stats.assign(module_.branches.size(), BranchStats{});

  CellRunner runner(module_, spec);
  Budget budget = config.wall_ms > 0 ? Budget::StepsAndMillis(config.total_steps, config.wall_ms)
                                     : Budget::Steps(config.total_steps);
  Solver solver(*arena_, config.solver);
  Rng rng(config.seed);

  // Initial model: the spec's concrete bytes, or random printable bytes.
  std::vector<i64> initial(runner.layout().defaults());
  if (!config.start_from_defaults) {
    for (i64& v : initial) {
      v = rng.NextPrintable();
    }
  }

  // Generational search state. Each pending entry describes "re-run with
  // the prefix of some previous trace, with constraint `flip` negated".
  struct Pending {
    std::shared_ptr<std::vector<Constraint>> trace;
    size_t flip = 0;
    i32 flip_branch = -1;       // Branch the flip targets.
    bool flip_direction = false;  // Direction the flip would force.
    bool syscall_only = false;  // Constraint touches only syscall-result cells.
    std::shared_ptr<std::vector<i64>> seed;          // Model of the generating run.
    std::shared_ptr<std::vector<Interval>> domains;  // Domains of the generating run.
  };
  std::vector<Pending> stack;
  std::vector<Pending> deferred;  // Covered-direction flips, tried last.
  // Direction coverage: which (branch, direction) pairs some run already
  // executed. Pendings whose flip would only re-create a covered direction
  // are deferred — the run budget goes to the coverage frontier first, but
  // deep exploration (byte-ladders through shared library compares like
  // strncmp) still happens once the frontier is exhausted.
  DenseBitset cov_taken(module_.branches.size());
  DenseBitset cov_not_taken(module_.branches.size());

  // Model-corpus collection: every distinct input that actually runs is
  // a dynamic-analysis discovery worth handing to replay (the corpus-
  // seeded search). Deduplicated by content hash, capped by corpus_max.
  std::unordered_set<u64> corpus_seen;
  auto harvest_corpus = [&](const std::vector<i64>& model) {
    if (config.corpus_max == 0 || result.corpus.size() >= config.corpus_max) {
      return;
    }
    u64 h = 0x9e3779b97f4a7c15ull;
    for (const i64 v : model) {
      h = HashMix(h, static_cast<u64>(v));
    }
    if (corpus_seen.insert(h).second) {
      result.corpus.push_back(model);
    }
  };

  auto do_run = [&](const std::vector<i64>& model,
                    size_t start_depth) -> void {
    harvest_corpus(model);
    PathCollector collector(&result.labels, &result.stats, &cov_taken, &cov_not_taken);
    CellRunConfig run_config;
    run_config.model = model;
    run_config.arena = arena_;
    run_config.observers = {&collector};
    run_config.max_steps = config.max_steps_per_run;
    run_config.external_budget = &budget;
    CellRunOutput out = runner.Run(run_config);
    ++result.runs;

    auto trace = std::make_shared<std::vector<Constraint>>(std::move(collector.trace));
    auto seed = std::make_shared<std::vector<i64>>(std::move(out.cells));
    auto domains = std::make_shared<std::vector<Interval>>(std::move(out.domains));
    const i32 num_static = runner.layout().num_static();
    // Depth-first: push deeper flips last so they pop first.
    for (size_t i = start_depth; i < trace->size(); ++i) {
      std::vector<i32> vars;
      arena_->CollectVars((*trace)[i].expr, &vars);
      bool syscall_only = !vars.empty();
      for (i32 v : vars) {
        if (v < num_static) {
          syscall_only = false;
          break;
        }
      }
      stack.push_back(Pending{trace, i, collector.trace_branches[i], !collector.trace_taken[i],
                              syscall_only, seed, domains});
    }
  };

  do_run(initial, 0);
  for (const std::vector<i64>& seed_model : config.extra_seed_models) {
    if (result.runs >= config.max_runs || budget.Exhausted()) {
      break;
    }
    do_run(seed_model, 0);
  }

  // Loop-exit and readiness constraints over syscall-result cells (poll,
  // select, accept, read-return) recur once per server-loop iteration;
  // flipping every occurrence explores nothing new. Cap solver attempts per
  // (branch, direction) for those, so the budget climbs input-byte ladders
  // (method names, routes, headers) instead.
  constexpr int kMaxSyscallFlips = 2;
  std::unordered_map<u64, int> syscall_flips;

  while ((!stack.empty() || !deferred.empty()) && result.runs < config.max_runs &&
         !budget.Exhausted()) {
    Pending pending;
    if (!stack.empty()) {
      pending = std::move(stack.back());
      stack.pop_back();
      // Frontier check: defer flips whose target direction already ran.
      const DenseBitset& cov = pending.flip_direction ? cov_taken : cov_not_taken;
      if (pending.flip_branch >= 0 && cov.Test(pending.flip_branch)) {
        deferred.push_back(std::move(pending));
        continue;
      }
    } else {
      pending = std::move(deferred.back());
      deferred.pop_back();
    }
    if (pending.syscall_only && pending.flip_branch >= 0) {
      const u64 key = (static_cast<u64>(pending.flip_branch) << 1) |
                      (pending.flip_direction ? 1u : 0u);
      if (syscall_flips[key] >= kMaxSyscallFlips) {
        continue;
      }
      ++syscall_flips[key];
    }

    // The constraint set — the prefix through `flip` with the flip
    // negated — is exactly a negate-last view of the trace: solve over it
    // directly instead of materializing a copy per pending.
    const ConstraintSpan constraints(pending.trace->data(), pending.flip + 1,
                                     /*negate_last=*/true);

    ++result.solver_calls;
    const SolveResult solved = solver.Solve(constraints, *pending.domains, *pending.seed);
    if (std::getenv("RETRACE_DEBUG_CONCOLIC") != nullptr) {
      std::fprintf(stderr,
                   "[concolic] run=%llu flip=%zu branch=%d line=%d dir=%d sys=%d status=%d\n",
                   static_cast<unsigned long long>(result.runs), pending.flip,
                   pending.flip_branch, module_.branches[pending.flip_branch].loc.line,
                   pending.flip_direction ? 1 : 0, pending.syscall_only ? 1 : 0,
                   static_cast<int>(solved.status));
    }
    if (solved.status != SolveStatus::kSat) {
      continue;
    }
    do_run(solved.model, pending.flip + 1);
  }

  result.budget_exhausted = budget.Exhausted() || result.runs >= config.max_runs;
  return result;
}

}  // namespace retrace
