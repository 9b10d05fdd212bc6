// Incremental solving layer microbenchmark: partitioned vs. monolithic
// solves, slice caches cold vs. warm, and delta solving on a frontier.
//
// Workload: synthetic constraint sets shaped like replay pendings — S
// independent slices (one per small group of input cells), each a short
// equality/ordering chain, solved from a deliberately violating seed so
// the local search has real repair work. Four configurations:
//
//   monolithic    the plain Solver over the whole set per call
//   partitioned   IncrementalSolver, no cache (union-find slices only)
//   cache-cold    IncrementalSolver, fresh SliceCache every call
//   cache-warm    IncrementalSolver, one SliceCache across calls
//
// The `frontier` rows replay a search's pops instead: a chain of pendings
// of ~500 constraints over ~140 single-cell slices, each its parent's
// solved set plus the few constraints the parent's run added, the last
// one flipped (see FrontierChain). The same chain is solved extending
// each parent's SliceState (`frontier-delta`) and from depth 0
// (`frontier-depth0`), each over its own cache. The two must return the
// same status and model on every solve; if they ever differ the bench
// exits 1. The `-2x` and `-4x` rows do the same with a root set two and
// four times as deep: delta solving should cost the same per pop at any
// depth, while depth 0 grows with it.
//
// Every row is measured `reps` times (argument 1, default 5), rows
// interleaved per repetition; the tables and BENCH_solver.json (stamped
// with the host) give the median with the range.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/solver/incremental.h"
#include "src/support/rng.h"

namespace retrace {
namespace {

constexpr int kSlices = 24;        // Independent components per set.
constexpr int kVarsPerSlice = 3;   // Cells per component.

struct Problem {
  ExprArena arena;
  std::vector<Constraint> constraints;
  std::vector<Interval> domains;
  std::vector<i64> seed;
};

// One slice over vars [base, base+2]: v0 == 'k', v0 + v1 > 150, v1 != v2.
// The seed violates every slice, so each needs genuine repair.
void AddSlice(Problem* p, i32 base) {
  ExprArena& a = p->arena;
  const ExprRef v0 = a.MkVar(base);
  const ExprRef v1 = a.MkVar(base + 1);
  const ExprRef v2 = a.MkVar(base + 2);
  p->constraints.push_back({a.MkBin(ExprOp::kEq, v0, a.MkConst('k')), true});
  p->constraints.push_back(
      {a.MkBin(ExprOp::kGt, a.MkBin(ExprOp::kAdd, v0, v1), a.MkConst(150)), true});
  p->constraints.push_back({a.MkBin(ExprOp::kNe, v1, v2), true});
}

std::unique_ptr<Problem> MakeProblem() {
  auto p = std::make_unique<Problem>();
  for (int s = 0; s < kSlices; ++s) {
    AddSlice(p.get(), static_cast<i32>(s * kVarsPerSlice));
  }
  const size_t num_vars = static_cast<size_t>(kSlices) * kVarsPerSlice;
  p->domains.assign(num_vars, Interval{0, 255});
  p->seed.assign(num_vars, 0);  // Violates every constraint chain.
  return p;
}

struct Row {
  std::string name;
  u64 iters = 0;
  double ns_per_solve = 0;
  u64 slices_solved = 0;
  u64 sat_hits = 0;
  u64 inherited = 0;
};

// ----- Frontier chain: a replay search's pops -----

constexpr i32 kFrontierVars = 140;
constexpr size_t kFrontierPrefix = 490;  // Constraints of the 1x chain's root set.
constexpr size_t kFrontierReset = 16;    // Pops before the chain restarts at the root.

// The branch a run over `model` records when it reads cell `v` for the
// `nth` time, in whichever polarity the model takes. Like a parser, the
// program compares a cell against a fixed sequence of characters, so the
// same slices recur across pops and most slice lookups hit the cache, as
// in a search.
Constraint RecordBranch(ExprArena* arena, const std::vector<i64>& model, i32 v, size_t nth) {
  static constexpr i64 kChars[] = {' ', '/', '0', ':', 'A', 'a', 'z'};
  const ExprRef x = arena->MkVar(v);
  const ExprRef k = arena->MkConst(kChars[(static_cast<size_t>(v) * 3 + nth) % std::size(kChars)]);
  ExprRef e = kNoExpr;
  switch ((static_cast<size_t>(v) + nth) % 3) {
    case 0: e = arena->MkBin(ExprOp::kGt, x, k); break;
    case 1: e = arena->MkBin(ExprOp::kNe, x, k); break;
    default: e = arena->MkBin(ExprOp::kLt, x, k); break;
  }
  return {e, arena->Eval(e, model) != 0};
}

// A run's path: its branches, each on one cell, and how many of them
// read each cell.
struct ChainTrace {
  std::vector<Constraint> branches;
  std::vector<size_t> reads = std::vector<size_t>(kFrontierVars, 0);
  std::vector<i32> cells;  // Per branch.
};

// Appends a run's next branch, on a random cell, to `trace`.
void RecordNext(ExprArena* arena, const std::vector<i64>& model, Rng* rng, ChainTrace* trace) {
  const i32 v = static_cast<i32>(rng->NextBelow(kFrontierVars));
  trace->branches.push_back(RecordBranch(arena, model, v, trace->reads[v]++));
  trace->cells.push_back(v);
}

// The first `len` branches of `trace`.
ChainTrace Prefix(const ChainTrace& trace, size_t len) {
  ChainTrace out;
  out.branches.assign(trace.branches.begin(), trace.branches.begin() + len);
  out.cells.assign(trace.cells.begin(), trace.cells.begin() + len);
  for (const i32 v : out.cells) {
    ++out.reads[v];
  }
  return out;
}

// Solves a replay-shaped chain of pendings: every pop is the parent's
// solved set plus the 3-4 constraints its run recorded, up to one of
// them, flipped. A SAT pop becomes the next parent; an UNSAT one is
// dropped, and the next pop extends the same parent again (a sibling).
// Every kFrontierReset pops the chain goes back to the root set, of
// `prefix` constraints. With `delta`, each solve extends its parent's
// SliceState. Only the Solve calls are timed. Appends each solve's
// status and model to `results`.
Row FrontierChain(ExprArena* arena, bool delta, u64 pops, size_t prefix,
                  std::vector<SolveResult>* results) {
  const std::vector<Interval> domains(kFrontierVars, Interval{0, 255});
  Rng rng(0xf207);
  std::vector<i64> root_model(kFrontierVars);
  for (i64& v : root_model) {
    v = rng.NextInRange(0, 255);
  }
  ChainTrace root_trace;
  for (size_t i = 0; i < prefix; ++i) {
    RecordNext(arena, root_model, &rng, &root_trace);
  }
  auto root = std::make_shared<std::vector<Constraint>>(root_trace.branches);

  SliceCache cache;
  IncrementalSolver solver(*arena, SolverOptions{}, &cache);
  // The root set is a pending too: solve it once, at depth 0.
  auto root_state = std::make_shared<SliceState>();
  SolveResult root_solve = solver.Solve(ConstraintSpan(root->data(), root->size()), domains,
                                        root_model, nullptr, delta ? root_state.get() : nullptr);
  root_state->set_owner = root;
  results->push_back(root_solve);

  ChainTrace parent_trace = root_trace;
  std::shared_ptr<const std::vector<Constraint>> parent = root;
  std::shared_ptr<const SliceState> parent_state = root_state;
  std::vector<i64> parent_model = root_model;
  double ns = 0;
  for (u64 pop = 0; pop < pops; ++pop) {
    if (pop % kFrontierReset == 0) {
      parent_trace = root_trace;
      parent = root;
      parent_state = root_state;
      parent_model = root_model;
    }
    // The parent's run: its solved set, then the branches it recorded.
    ChainTrace run = parent_trace;
    const size_t added = 3 + rng.NextBelow(2);
    for (size_t i = 0; i < added; ++i) {
      RecordNext(arena, parent_model, &rng, &run);
    }
    auto trace = std::make_shared<std::vector<Constraint>>(run.branches);
    const size_t len = parent->size() + 1 + rng.NextBelow(added);
    auto state = std::make_shared<SliceState>();
    const auto t0 = std::chrono::steady_clock::now();
    SolveResult solved =
        solver.Solve(ConstraintSpan(trace->data(), len, /*negate_last=*/true), domains,
                     parent_model, delta ? parent_state.get() : nullptr,
                     delta ? state.get() : nullptr);
    ns += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    state->set_owner = trace;
    if (solved.status == SolveStatus::kSat) {
      // The child's run follows the flip: its trace starts with the set.
      parent_trace = Prefix(run, len);
      parent_trace.branches.back().want_true = !parent_trace.branches.back().want_true;
      parent = std::make_shared<std::vector<Constraint>>(parent_trace.branches);
      parent_state = state;
      parent_model = solved.model;
    }
    results->push_back(std::move(solved));
  }
  Row row;
  row.name = delta ? "frontier-delta" : "frontier-depth0";
  row.iters = pops;
  row.ns_per_solve = ns / static_cast<double>(pops);
  row.slices_solved = solver.stats().slices_solved;
  row.sat_hits = solver.stats().slice_sat_hits;
  row.inherited = solver.stats().slices_inherited;
  return row;
}

template <typename Fn>
Row Measure(const std::string& name, u64 iters, Fn&& solve_once) {
  const auto t0 = std::chrono::steady_clock::now();
  for (u64 i = 0; i < iters; ++i) {
    solve_once();
  }
  const double ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
  Row row;
  row.name = name;
  row.iters = iters;
  row.ns_per_solve = ns / static_cast<double>(iters);
  return row;
}

// The samples of one row over the repetitions, and their median.
struct Samples {
  Row row;  // Counters of the last repetition; ns_per_solve is the median.
  std::vector<double> ns;

  void Add(const Row& r) {
    row = r;
    ns.push_back(r.ns_per_solve);
  }
  double Median() const {
    std::vector<double> sorted = ns;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
  }
  double Min() const { return *std::min_element(ns.begin(), ns.end()); }
  double Max() const { return *std::max_element(ns.begin(), ns.end()); }
};

int Main(int argc, char** argv) {
  PrintHeader("Incremental solver: partition + slice-cache microbenchmark",
              "the PR 2 solving layer; no direct paper analogue");
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 5;
  const u64 iters = 200 * static_cast<u64>(BenchScale());
  auto p = MakeProblem();
  const SolverOptions options;
  std::printf("%d slices x %d vars, %zu constraints, %" PRIu64
              " solves per config, %d repetitions\n\n",
              kSlices, kVarsPerSlice, p->constraints.size(), iters, reps);

  // Frontier chains: 1x, 2x and 4x the replay-shaped prefix depth, each
  // from depth 0 and by delta, over one arena per depth (a chain interns
  // the same expressions in the same order either way).
  const u64 pops = 4000 * static_cast<u64>(BenchScale());
  constexpr size_t kDepths[] = {1, 2, 4};
  std::vector<std::unique_ptr<ExprArena>> frontier_arenas;
  for (size_t d = 0; d < std::size(kDepths); ++d) {
    frontier_arenas.push_back(std::make_unique<ExprArena>());
  }

  std::vector<Samples> rows(4);
  std::vector<Samples> frontier_rows(2 * std::size(kDepths));
  std::vector<u64> frontier_sat(std::size(kDepths), 0);
  for (int rep = 0; rep < reps; ++rep) {
    {
      Solver solver(p->arena, options);
      rows[0].Add(Measure("monolithic", iters, [&] {
        const SolveResult r = solver.Solve(p->constraints, p->domains, p->seed);
        Check(r.status == SolveStatus::kSat, "bench_solver: monolithic must solve");
      }));
    }
    {
      IncrementalSolver inc(p->arena, options, nullptr);
      Row row = Measure("partitioned", iters, [&] {
        const SolveResult r = inc.Solve(
            ConstraintSpan(p->constraints.data(), p->constraints.size()), p->domains, p->seed);
        Check(r.status == SolveStatus::kSat, "bench_solver: partitioned must solve");
      });
      row.slices_solved = inc.stats().slices_solved;
      rows[1].Add(row);
    }
    rows[2].Add(Measure("cache-cold", iters, [&] {
      // A fresh cache per solve: pays partition + key hashing + stores,
      // never hits. The honest lower bound for first-contact pendings.
      SliceCache cache;
      IncrementalSolver fresh(p->arena, options, &cache);
      const SolveResult r = fresh.Solve(
          ConstraintSpan(p->constraints.data(), p->constraints.size()), p->domains, p->seed);
      Check(r.status == SolveStatus::kSat, "bench_solver: cache-cold must solve");
    }));
    {
      SliceCache cache;
      IncrementalSolver inc(p->arena, options, &cache);
      Row row = Measure("cache-warm", iters, [&] {
        const SolveResult r = inc.Solve(
            ConstraintSpan(p->constraints.data(), p->constraints.size()), p->domains, p->seed);
        Check(r.status == SolveStatus::kSat, "bench_solver: cache-warm must solve");
      });
      row.slices_solved = inc.stats().slices_solved;
      row.sat_hits = inc.stats().slice_sat_hits;
      rows[3].Add(row);
    }
    for (size_t d = 0; d < std::size(kDepths); ++d) {
      const size_t prefix = kFrontierPrefix * kDepths[d];
      const std::string suffix = kDepths[d] == 1 ? "" : "-" + std::to_string(kDepths[d]) + "x";
      std::vector<SolveResult> from_base;
      std::vector<SolveResult> from_depth0;
      Row depth0 = FrontierChain(frontier_arenas[d].get(), /*delta=*/false, pops, prefix,
                                 &from_depth0);
      Row delta =
          FrontierChain(frontier_arenas[d].get(), /*delta=*/true, pops, prefix, &from_base);
      depth0.name += suffix;
      delta.name += suffix;
      frontier_rows[2 * d].Add(depth0);
      frontier_rows[2 * d + 1].Add(delta);
      u64 sat = 0;
      for (size_t i = 0; i < from_depth0.size(); ++i) {
        if (i >= from_base.size() || from_base[i].status != from_depth0[i].status ||
            from_base[i].model != from_depth0[i].model) {
          std::fprintf(stderr, "bench_solver: frontier%s solve %zu differs from base and depth 0\n",
                       suffix.c_str(), i);
          return 1;
        }
        sat += from_depth0[i].status == SolveStatus::kSat ? 1 : 0;
      }
      frontier_sat[d] = sat;
    }
  }

  std::printf("%-14s %14s %20s %14s %12s %12s\n", "config", "ns/solve", "range", "vs monolithic",
              "slicesolves", "sat hits");
  const double base = rows[0].Median();
  for (const Samples& row : rows) {
    std::printf("%-14s %14.0f %9.0f-%-10.0f %13.2fx %12" PRIu64 " %12" PRIu64 "\n",
                row.row.name.c_str(), row.Median(), row.Min(), row.Max(), base / row.Median(),
                row.row.slices_solved, row.row.sat_hits);
  }
  std::printf("\nfrontier chains: %" PRIu64 " pops over %d cells from roots of", pops,
              kFrontierVars);
  for (size_t d = 0; d < std::size(kDepths); ++d) {
    std::printf(" %zu (%" PRIu64 " SAT)", kFrontierPrefix * kDepths[d], frontier_sat[d]);
  }
  std::printf(" constraints; delta and depth-0 agree on every solve\n");
  std::printf("%-19s %12s %20s %12s %12s %12s %12s\n", "config", "ns/solve", "range", "vs depth 0",
              "slicesolves", "sat hits", "inherited");
  for (size_t i = 0; i < frontier_rows.size(); ++i) {
    const Samples& row = frontier_rows[i];
    const double depth0 = frontier_rows[i & ~size_t{1}].Median();
    std::printf("%-19s %12.0f %9.0f-%-10.0f %11.2fx %12" PRIu64 " %12" PRIu64 " %12" PRIu64 "\n",
                row.row.name.c_str(), row.Median(), row.Min(), row.Max(), depth0 / row.Median(),
                row.row.slices_solved, row.row.sat_hits, row.row.inherited);
  }
  const double delta_1x = frontier_rows[1].Median();
  std::printf("delta ns/pop vs 1x depth:");
  for (size_t d = 1; d < std::size(kDepths); ++d) {
    std::printf(" %zux %.2f", kDepths[d], frontier_rows[2 * d + 1].Median() / delta_1x);
  }
  std::printf("\n");

  FILE* json = std::fopen("BENCH_solver.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_solver.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"solver\",\n  \"host\": %s,\n  \"repetitions\": %d,\n"
               "  \"slices\": %d,\n  \"constraints\": %zu,\n  \"iters\": %" PRIu64
               ",\n  \"results\": [\n",
               HostStampJson().c_str(), reps, kSlices, p->constraints.size(), iters);
  for (const Samples& row : rows) {
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"ns_per_solve\": %.1f, \"ns_min\": %.1f, "
                 "\"ns_max\": %.1f, \"speedup_vs_monolithic\": %.3f, \"slices_solved\": %" PRIu64
                 ", \"sat_hits\": %" PRIu64 "},\n",
                 row.row.name.c_str(), row.Median(), row.Min(), row.Max(), base / row.Median(),
                 row.row.slices_solved, row.row.sat_hits);
  }
  // A frontier row's baseline is the depth-0 row of its depth.
  for (size_t i = 0; i < frontier_rows.size(); ++i) {
    const Samples& row = frontier_rows[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"prefix\": %zu, \"pops\": %" PRIu64
                 ", \"ns_per_solve\": %.1f, \"ns_min\": %.1f, \"ns_max\": %.1f, "
                 "\"speedup_vs_depth0\": %.3f, \"vs_delta_1x\": %.3f, \"slices_solved\": %" PRIu64
                 ", \"sat_hits\": %" PRIu64 ", \"inherited\": %" PRIu64 "}%s\n",
                 row.row.name.c_str(), kFrontierPrefix * kDepths[i / 2], row.row.iters,
                 row.Median(), row.Min(), row.Max(),
                 frontier_rows[i & ~size_t{1}].Median() / row.Median(),
                 row.Median() / delta_1x, row.row.slices_solved, row.row.sat_hits,
                 row.row.inherited, i + 1 < frontier_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_solver.json\n");
  return 0;
}

}  // namespace
}  // namespace retrace

int main(int argc, char** argv) { return retrace::Main(argc, argv); }
