// Parallel + distributed replay scheduler: wall-clock speedup over a
// shards x workers grid.
//
// Workload: the uServer crash experiments under the *dynamic (lc)* plan —
// the paper's hardest replay configuration (low-coverage dynamic analysis
// leaves the request parser unlogged, so the engine searches a wide
// pending-set frontier; Table 3 shows cells from 27s to inf). This is
// exactly the axis the multi-worker scheduler attacks: N workers explore
// the frontier concurrently, each depth-first on its own pendings, with
// donations to workers that run dry, a shared tried-set, and
// first-crash-wins cancellation. RETRACE_REPLAY_SHARDS adds the process
// dimension: each shard count in the list gets its own table, where
// "SxW" means S forked shard processes running W worker threads each,
// seeded from a partition of the coordinator's scouted frontier and
// gossiping slice-cache verdicts over the wire (src/dist/).
//
// Speedup has two sources: hardware parallelism (one interpreter per
// core) and *search diversification* — every worker of every shard
// starts from a distinct random input, so the fleet covers the input
// space the way S*W independent sequential engines would, but sharing
// frontiers and verdicts. Diversification alone can be superlinear:
// scenarios whose sequential search exhausts the budget (inf) can fall
// in seconds. On a single-core host all of the measured speedup is
// diversification. Wire overhead is reported honestly per table: total
// bytes shipped both ways and the verdicts gossiped between shards.
#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/concolic/corpus_mutate.h"

namespace retrace {
namespace {

// Worker counts per table: the historical 1/2/4/8 sweep in-process; the
// ISSUE's {1,2,4} grid once shard processes multiply the fleet.
std::vector<u32> WorkerCounts(u32 shards) {
  if (shards <= 1) {
    return {1, 2, 4, 8};
  }
  return {1, 2, 4};
}

// Default sweep: experiments 1-4 (e5 historically exceeds the cap at every
// count — target it explicitly with RETRACE_BENCH_EXPERIMENTS=5).
std::vector<int> Experiments() {
  const char* env = std::getenv("RETRACE_BENCH_EXPERIMENTS");
  if (env == nullptr) {
    return {1, 2, 3, 4};
  }
  std::vector<int> out;
  for (const char* c = env; *c != '\0'; ++c) {
    if (*c >= '1' && *c <= '5') {
      out.push_back(*c - '0');
    }
  }
  return out.empty() ? std::vector<int>{1, 2, 3, 4} : out;
}

// Median and range of one measured field over repetitions.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread SpreadOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  Spread spread;
  if (n == 0) {
    return spread;
  }
  spread.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  spread.min = values.front();
  spread.max = values.back();
  return spread;
}

// Results-file mode (`bench_parallel_replay --json [reps]`): exps 1/3/4
// (RETRACE_BENCH_EXPERIMENTS overrides) under the lc plan at four
// layouts — 1x1, 1x2, 1x4 in-process and 2 fork shards x 2 workers —
// each cell repeated `reps` (>= 3) times, layouts interleaved within a
// repetition so host drift spreads over all of them. Writes
// BENCH_parallel.json: per layout and experiment the median and range
// of wall seconds, runs, per-worker runs/s (runs / wall / workers in
// the layout), slices inherited and instructions run before the
// flipped branch, stamped with the host.
int JsonMain(int reps) {
  PrintHeader("Parallel replay results file (uServer, dynamic (lc) plan)",
              "per-worker throughput at 1x1, 1x2, 1x4 and 2x2");
  auto pipeline = BuildWorkloadOrDie("userver");
  const AnalysisResult lc =
      pipeline->RunDynamicAnalysis(UserverExploreSpecLC(), LowCoverageConfig());
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::Dynamic(lc));
  const i64 cap_ms = BenchCapMs(30'000 * static_cast<i64>(BenchScale()));

  struct Layout {
    u32 shards;
    u32 workers;
  };
  const std::vector<Layout> layouts = {{1, 1}, {1, 2}, {1, 4}, {2, 2}};
  std::vector<int> experiments = Experiments();
  if (std::getenv("RETRACE_BENCH_EXPERIMENTS") == nullptr) {
    experiments = {1, 3, 4};  // Exp 2 is inf under lc; exp 5 is the adaptive loop's.
  }
  std::vector<BugReport> reports;
  for (const int experiment : experiments) {
    const Scenario scenario = UserverScenario(experiment);
    Pipeline::UserRunOptions options;
    options.policy = scenario.policy.get();
    const auto user = pipeline->RecordUserRun(scenario.spec, plan, options).take();
    if (!user.result.Crashed()) {
      std::printf("exp %d: user run did not crash!\n", experiment);
      return 1;
    }
    reports.push_back(user.report);
  }

  struct Samples {
    std::vector<double> wall;
    std::vector<double> runs;
    std::vector<double> runs_per_worker_s;
    std::vector<double> slices_inherited;
    std::vector<double> instrs_before_flip;
    int reproduced = 0;
  };
  std::vector<Samples> cells(layouts.size() * experiments.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t e = 0; e < experiments.size(); ++e) {
      for (size_t l = 0; l < layouts.size(); ++l) {
        ReplayConfig config = DefaultReplayConfig();
        config.wall_ms = cap_ms;
        config.num_shards = layouts[l].shards;
        config.num_workers = layouts[l].workers;
        const ReplayResult replay = pipeline->Reproduce(reports[e], plan, config).take();
        const double wall =
            replay.reproduced ? replay.wall_seconds : static_cast<double>(cap_ms) / 1000.0;
        const double workers = static_cast<double>(layouts[l].shards * layouts[l].workers);
        Samples& cell = cells[l * experiments.size() + e];
        cell.wall.push_back(wall);
        cell.runs.push_back(static_cast<double>(replay.stats.runs));
        cell.runs_per_worker_s.push_back(
            wall > 0 ? static_cast<double>(replay.stats.runs) / wall / workers : 0.0);
        cell.slices_inherited.push_back(static_cast<double>(replay.stats.slices_inherited));
        cell.instrs_before_flip.push_back(static_cast<double>(replay.stats.instrs_before_flip));
        cell.reproduced += replay.reproduced ? 1 : 0;
        std::printf("rep %d exp %d %ux%u: %s %.3fs %" PRIu64 " runs, %.0f runs/s/worker\n",
                    rep + 1, experiments[e], layouts[l].shards, layouts[l].workers,
                    replay.reproduced ? "reproduced" : "inf", wall, replay.stats.runs,
                    cell.runs_per_worker_s.back());
        std::fflush(stdout);
      }
    }
  }

  const std::string host = HostStampJson();  // Before the open truncates the file.
  FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"parallel\",\n  \"host\": %s,\n", host.c_str());
  std::fprintf(json, "  \"plan\": \"dynamic (lc)\",\n  \"cap_s\": %.3f,\n  \"reps\": %d,\n",
               static_cast<double>(cap_ms) / 1000.0, reps);
  std::fprintf(json, "  \"rows\": [\n");
  auto field = [&](const char* name, const std::vector<double>& values, const char* sep) {
    const Spread spread = SpreadOf(values);
    std::fprintf(json, "\"%s\": {\"median\": %.4g, \"min\": %.4g, \"max\": %.4g}%s", name,
                 spread.median, spread.min, spread.max, sep);
  };
  for (size_t l = 0; l < layouts.size(); ++l) {
    for (size_t e = 0; e < experiments.size(); ++e) {
      const Samples& cell = cells[l * experiments.size() + e];
      std::fprintf(json, "    {\"layout\": \"%ux%u\", \"experiment\": %d, \"reproduced\": %d, ",
                   layouts[l].shards, layouts[l].workers, experiments[e], cell.reproduced);
      field("wall_s", cell.wall, ", ");
      field("runs", cell.runs, ", ");
      field("runs_per_worker_s", cell.runs_per_worker_s, ", ");
      field("slices_inherited", cell.slices_inherited, ", ");
      field("instrs_before_flip", cell.instrs_before_flip, "");
      const bool last = l + 1 == layouts.size() && e + 1 == experiments.size();
      std::fprintf(json, "}%s\n", last ? "" : ",");
    }
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_parallel.json\n");
  return 0;
}

int Main() {
  PrintHeader("Parallel replay speedup (uServer, dynamic (lc) plan)",
              "Table 3's hardest column, scaled");
  auto pipeline = BuildWorkloadOrDie("userver");
  const AnalysisResult lc =
      pipeline->RunDynamicAnalysis(UserverExploreSpecLC(), LowCoverageConfig());
  StaticAnalysisOptions opaque;
  opaque.analyze_library = false;
  const StaticAnalysisResult stat = pipeline->RunStaticAnalysis(opaque);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::Dynamic(lc));

  const i64 cap_ms = BenchCapMs(30'000 * static_cast<i64>(BenchScale()));
  // The exp-5 offensive knobs: corpus seeds come from the lc dynamic
  // analysis above — exactly the paper's "leverage the dynamic analysis"
  // move, now feeding replay instead of the plan alone.
  const bool corpus_enabled = ReplayCorpusEnabled();
  const u32 corpus_mutants = ReplayCorpusMutants();
  // Optionally fuzz the harvested models into their neighborhoods
  // (RETRACE_REPLAY_CORPUS_MUTATE=N mutants per seed).
  const std::vector<std::vector<i64>> corpus =
      corpus_mutants == 0 ? lc.corpus
                          : MutateCorpus(lc.corpus, /*seed=*/7, corpus_mutants,
                                         /*max_total=*/256);
  std::printf("budget %" PRId64 ".%03" PRId64 "s per cell; 'inf' = not reproduced within "
              "budget (RETRACE_BENCH_CAP_MS overrides)\n",
              cap_ms / 1000, cap_ms % 1000);
  std::printf("corpus mutation: %u mutants/seed (RETRACE_REPLAY_CORPUS_MUTATE)\n",
              corpus_mutants);
  std::printf("corpus seeding: %s, %zu dynamic-analysis seeds (RETRACE_REPLAY_CORPUS=1 "
              "enables)\n",
              corpus_enabled ? "on" : "off", corpus.size());
  std::printf("shard sweep: RETRACE_REPLAY_SHARDS (comma list, default 1 = in-process)\n");
  std::printf("shard transport: %s (RETRACE_REPLAY_TRANSPORT=fork|tcp; tcp = loopback\n"
              "self-spawn, the same wire path a remote retrace_shardd takes)\n",
              ReplayTransportName());

  const std::vector<int> experiments = Experiments();
  for (const u32 shards : ReplayShardsSweep()) {
    const std::vector<u32> worker_counts = WorkerCounts(shards);
    std::printf("\n--- %u shard(s) x {", shards);
    for (size_t i = 0; i < worker_counts.size(); ++i) {
      std::printf("%s%u", i == 0 ? "" : ",", worker_counts[i]);
    }
    std::printf("} worker(s) ---\n%-12s", "experiment");
    for (const u32 workers : worker_counts) {
      char head[32];
      std::snprintf(head, sizeof(head), "%ux%u", shards, workers);
      std::printf(" %14s", head);
    }
    std::printf("\n");

    std::vector<double> total_seconds(worker_counts.size(), 0.0);
    u64 total_sat_hits = 0;
    u64 total_unsat_hits = 0;
    u64 total_slices_solved = 0;
    u64 total_wire_bytes = 0;
    u64 total_verdicts_gossiped = 0;
    u64 total_corpus_runs = 0;
    u64 total_runs = 0;
    u64 total_shards_lost = 0;
    u64 total_pendings_recovered = 0;
    u64 total_heartbeats_missed = 0;
    u64 total_fallbacks = 0;
    // Per-shard aggregation over every cell of this table: process-level
    // runs, wire traffic (re-balance frames included — they ride the
    // same channels the byte counters watch) and re-balance activity.
    struct ShardAgg {
      u64 runs = 0;
      u64 seeded = 0;
      u64 wire_tx = 0;
      u64 wire_rx = 0;
      u64 verdicts_out = 0;
      u64 verdicts_in = 0;
      u64 pendings_exported = 0;
      u64 pendings_imported = 0;
      u64 rebalance_rounds = 0;
    };
    std::vector<ShardAgg> shard_agg(shards);
    for (const int experiment : experiments) {
      const Scenario scenario = UserverScenario(experiment);
      Pipeline::UserRunOptions options;
      options.policy = scenario.policy.get();
      const auto user = pipeline->RecordUserRun(scenario.spec, plan, options).take();
      if (!user.result.Crashed()) {
        std::printf("exp %d: user run did not crash!\n", experiment);
        continue;
      }
      std::printf("exp %-8d", experiment);
      for (size_t i = 0; i < worker_counts.size(); ++i) {
        ReplayConfig config = DefaultReplayConfig();
        config.wall_ms = cap_ms;
        config.num_workers = worker_counts[i];
        config.num_shards = shards;
        if (corpus_enabled) {
          config.corpus_seeds = corpus;
        }
        const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
        // Budget-capped cells charge the full cap, like the paper's inf rows.
        total_seconds[i] +=
            replay.reproduced ? replay.wall_seconds : static_cast<double>(cap_ms) / 1000.0;
        total_sat_hits += replay.stats.slice_sat_hits;
        total_unsat_hits += replay.stats.slice_unsat_hits;
        total_slices_solved += replay.stats.slices_solved;
        total_wire_bytes += replay.stats.wire_bytes_tx + replay.stats.wire_bytes_rx;
        total_verdicts_gossiped += replay.stats.verdicts_gossiped;
        total_corpus_runs += replay.stats.corpus_runs;
        total_runs += replay.stats.runs;
        total_shards_lost += replay.stats.shards_lost;
        total_pendings_recovered += replay.stats.pendings_recovered;
        total_heartbeats_missed += replay.stats.heartbeats_missed;
        total_fallbacks += replay.stats.fallback_inprocess ? 1 : 0;
        for (const ReplayShardStats& sh : replay.stats.per_shard) {
          if (sh.shard_id >= shard_agg.size()) {
            continue;
          }
          ShardAgg& agg = shard_agg[sh.shard_id];
          agg.runs += sh.runs;
          agg.seeded += sh.pendings_seeded;
          agg.wire_tx += sh.wire_bytes_tx;
          agg.wire_rx += sh.wire_bytes_rx;
          agg.verdicts_out += sh.verdicts_published;
          agg.verdicts_in += sh.verdicts_imported;
          agg.pendings_exported += sh.pendings_exported;
          agg.pendings_imported += sh.pendings_imported;
          agg.rebalance_rounds += sh.rebalance_rounds;
        }
        char cell[64];
        if (replay.reproduced) {
          std::snprintf(cell, sizeof(cell), "%.2fs/%" PRIu64 "r", replay.wall_seconds,
                        replay.stats.runs);
        } else {
          std::snprintf(cell, sizeof(cell), "inf/%" PRIu64 "r", replay.stats.runs);
        }
        std::printf(" %14s", cell);
        std::fflush(stdout);
      }
      std::printf("\n");
    }

    std::printf("%-12s", "total");
    for (const double seconds : total_seconds) {
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.2fs", seconds);
      std::printf(" %14s", cell);
    }
    std::printf("\n%-12s", "speedup");
    for (const double seconds : total_seconds) {
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.2fx",
                    seconds > 0 ? total_seconds[0] / seconds : 0.0);
      std::printf(" %14s", cell);
    }
    const u64 lookups = total_sat_hits + total_unsat_hits + total_slices_solved;
    std::printf("\nslice cache (all cells): %" PRIu64 " sat hits, %" PRIu64
                " unsat hits, %" PRIu64 " solved, hit rate %.1f%%\n",
                total_sat_hits, total_unsat_hits, total_slices_solved,
                lookups > 0 ? 100.0 * static_cast<double>(total_sat_hits + total_unsat_hits) /
                                  static_cast<double>(lookups)
                            : 0.0);
    std::printf("corpus seeding (all cells): %" PRIu64 " corpus runs (%" PRIu64
                " runs total)\n",
                total_corpus_runs, total_runs);
    if (shards > 1) {
      std::printf("wire overhead (all cells): %.1f KB shipped, %" PRIu64
                  " verdicts gossiped between shards\n",
                  static_cast<double>(total_wire_bytes) / 1024.0, total_verdicts_gossiped);
      std::printf("per-shard summary (all cells; re-balance frames ride the counted wire):\n");
      for (u32 s = 0; s < shards; ++s) {
        const ShardAgg& agg = shard_agg[s];
        std::printf("  shard %u: %" PRIu64 " runs, %" PRIu64 " seeded, %.1f KB tx / %.1f KB rx"
                    ", %" PRIu64 " verdicts out / %" PRIu64 " in, %" PRIu64 " exported / %"
                    PRIu64 " imported pendings, %" PRIu64 " rebalance rounds\n",
                    s, agg.runs, agg.seeded, static_cast<double>(agg.wire_tx) / 1024.0,
                    static_cast<double>(agg.wire_rx) / 1024.0, agg.verdicts_out,
                    agg.verdicts_in, agg.pendings_exported, agg.pendings_imported,
                    agg.rebalance_rounds);
      }
      // 0s across the board on a healthy fleet; the CI fault-injection
      // smoke leg greps this line under RETRACE_FAULT_SPEC.
      std::printf("fault recovery (all cells): %" PRIu64 " shards lost, %" PRIu64
                  " pendings recovered, %" PRIu64 " heartbeats missed, %" PRIu64
                  " in-process fallbacks\n",
                  total_shards_lost, total_pendings_recovered, total_heartbeats_missed,
                  total_fallbacks);
    }
  }

  std::printf("\nhardware threads: %u (single-core hosts measure pure search\n"
              "diversification; multi-core hosts add interpreter parallelism)\n",
              std::thread::hardware_concurrency());
  return 0;
}

}  // namespace
}  // namespace retrace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--json") == 0) {
    const int reps = argc >= 3 ? std::max(3, std::atoi(argv[2])) : 3;
    return retrace::JsonMain(reps);
  }
  return retrace::Main();
}
