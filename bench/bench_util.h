// Shared helpers for the experiment benches.
//
// Every bench regenerates one table or figure of the paper. Benches print
// the measured values next to the paper's published numbers so the
// qualitative comparison (who wins, by what factor) is visible in the raw
// output; EXPERIMENTS.md records the interpretation.
#ifndef RETRACE_BENCH_BENCH_UTIL_H_
#define RETRACE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pipeline.h"
#include "src/support/env.h"
#include "src/workloads/scenarios.h"
#include "src/workloads/workloads.h"

namespace retrace {

inline std::unique_ptr<Pipeline> BuildWorkloadOrDie(const std::string& name) {
  const WorkloadSources sources = GetWorkload(name);
  auto r = Pipeline::FromSources(sources.app, sources.libs);
  if (!r.ok()) {
    std::fprintf(stderr, "failed to build %s: %s\n", name.c_str(),
                 r.error().ToString().c_str());
    std::exit(1);
  }
  return r.take();
}

// Environment-tunable scale factor so CI runs stay fast while full runs can
// approach the paper's sizes (RETRACE_BENCH_SCALE=10 etc.). Parsed
// strictly (src/support/env.h): garbage fails loudly instead of silently
// running an unscaled bench.
inline int BenchScale() {
  return static_cast<int>(EnvKnobI64("RETRACE_BENCH_SCALE", 1, 1, 1'000'000));
}

// Per-cell replay wall budget override in milliseconds. Unset uses the
// caller's default (30 s x scale for bench_parallel_replay, 20 s x scale
// for the table benches); CI's exp-5 smoke leg sets a short cap so the
// leg exercises the stats without burning minutes per inf cell.
inline i64 BenchCapMs(i64 default_ms) {
  return EnvKnobI64("RETRACE_BENCH_CAP_MS", default_ms, 1, 86'400'000);
}

// The paper's LC (1h) / HC (2h) dynamic-analysis budgets, scaled to
// deterministic run counts. The HC configuration additionally seeds the
// exploration with the developer test suite (paper §6 suggests exactly
// this to boost coverage past byte-ladder walls).
inline AnalysisConfig LowCoverageConfig() {
  AnalysisConfig config;
  config.max_runs = 4 * static_cast<u64>(BenchScale());
  config.seed = 17;
  return config;
}

inline AnalysisConfig HighCoverageConfig() {
  AnalysisConfig config;
  config.max_runs = 64 * static_cast<u64>(BenchScale());
  config.seed = 17;
  config.extra_seed_models = UserverExploreSeedModels();
  return config;
}

// Single-value replay knobs (workers, pick, solver cache, pruning,
// shards, transport, gossip cadence) are parsed by the engine's own
// ReplayConfig::FromEnv (src/replay/replay_engine.h) — one strict,
// documented parser shared by benches, CI legs, and tools, instead of
// per-bench getenv scatter. The thin wrappers below exist for benches
// that print or branch on one knob; ReplayShardsSweep stays bench-side
// because sweeping a *list* of shard counts is a bench concept.
inline u32 ReplayWorkers() { return ReplayConfig::FromEnv().num_workers; }

inline ReplayConfig::Pick ReplayPick() { return ReplayConfig::FromEnv().pick; }

inline const char* ReplayPickName() {
  switch (ReplayPick()) {
    case ReplayConfig::Pick::kFifo: return "fifo";
    case ReplayConfig::Pick::kLogBits: return "logbits";
    case ReplayConfig::Pick::kDirection: return "direction";
    case ReplayConfig::Pick::kPortfolio: return "portfolio";
    case ReplayConfig::Pick::kDfs: break;
  }
  return "dfs";
}

inline bool SolverCacheEnabled() { return ReplayConfig::FromEnv().solver_cache; }

inline bool ReplayPruneEnabled() { return ReplayConfig::FromEnv().prune_subsumed; }

// Corpus-seeding knob: RETRACE_REPLAY_CORPUS=1 hands the dynamic
// analysis' model corpus (AnalysisResult::corpus) to the replay engine
// as ReplayConfig::corpus_seeds. Only bench_parallel_replay wires it (it
// owns the dynamic-analysis result); off by default.
inline bool ReplayCorpusEnabled() {
  return EnvKnobBool("RETRACE_REPLAY_CORPUS", false);
}

// Corpus-mutation knob: RETRACE_REPLAY_CORPUS_MUTATE=N derives N
// deterministic mutants per harvested corpus model (point / nudge /
// splice operators, src/concolic/corpus_mutate.h) before seeding the
// replay engine. 0 (default) seeds the corpus unmutated. Only read by
// benches that also wire RETRACE_REPLAY_CORPUS.
inline u32 ReplayCorpusMutants() {
  return static_cast<u32>(EnvKnobI64("RETRACE_REPLAY_CORPUS_MUTATE", 0, 0, 64));
}

// Distributed-shard knob: RETRACE_REPLAY_SHARDS is a comma-separated
// list of shard counts ("1,2,4"). bench_parallel_replay sweeps the whole
// list; the table benches (through DefaultReplayConfig) use the first
// entry. Default {1}: everything stays in-process and historical numbers
// remain comparable.
inline std::vector<u32> ReplayShardsSweep() {
  const char* env = std::getenv("RETRACE_REPLAY_SHARDS");
  std::vector<u32> out;
  if (env != nullptr) {
    int value = 0;
    bool in_number = false;
    for (const char* c = env;; ++c) {
      if (*c >= '0' && *c <= '9') {
        value = value * 10 + (*c - '0');
        in_number = true;
      } else {
        if (in_number && value > 0) {
          out.push_back(static_cast<u32>(value));
        }
        value = 0;
        in_number = false;
        if (*c == '\0') {
          break;
        }
      }
    }
  }
  if (out.empty()) {
    out.push_back(1);
  }
  return out;
}

inline u32 ReplayShards() { return ReplayConfig::FromEnv().num_shards; }

// The shards a bench search runs on. Benches search through Pipeline,
// which supplies the program sources UsesTcpShards asks for.
inline const char* ReplayTransportName() {
  ReplayConfig config = ReplayConfig::FromEnv();
  config.program.app = "(pipeline sources)";
  return UsesTcpShards(config) ? "tcp" : "fork";
}

inline int GossipIntervalMs() { return ReplayConfig::FromEnv().gossip_interval_ms; }

// The paper allots one hour of replay; scaled here.
inline ReplayConfig DefaultReplayConfig() {
  ReplayConfig config = ReplayConfig::FromEnv();
  // Budget and seed are bench policy, not env knobs: historical numbers
  // depend on them staying fixed.
  config.wall_ms = BenchCapMs(20'000 * static_cast<i64>(BenchScale()));
  config.max_runs = 50'000;
  config.seed = 31;
  return config;
}

// Models the *native* CPU overhead of branch logging. In native code one
// executed branch costs on the order of 1 ns of application work while the
// paper measures ~3 ns (17 instructions) per *logged* branch — logging a
// branch costs about kLogCostRatio times the branch itself. Interpreted
// execution amortizes the recorder to noise (every IR instruction costs
// ~100 ns), so benches report this model next to the measured time:
//   native% = 100 + 100 * kLogCostRatio * instrumented_execs / branch_execs
// Sanity check: with every branch logged this gives ~400%, matching the
// paper's all-branches uServer bar (~430%).
inline constexpr double kLogCostRatio = 3.0;

inline double ModeledNativeCpuPercent(const Pipeline::OverheadSample& sample) {
  if (sample.branch_execs == 0) {
    return 100.0;
  }
  return 100.0 + 100.0 * kLogCostRatio * static_cast<double>(sample.instrumented_execs) /
                     static_cast<double>(sample.branch_execs);
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("(reproduces %s)\n", paper_ref);
  std::printf("==============================================================\n");
}

// The host a BENCH_*.json was measured on, as a JSON object: hardware
// threads, compiler and the checkout's commit, suffixed "-dirty" when the
// tree has uncommitted changes ("unknown" outside a git checkout or
// without git on PATH).
inline std::string HostStampJson() {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::string commit = "unknown";
  const char* command = "git describe --always --dirty --abbrev=40 --exclude='*' 2>/dev/null";
  if (FILE* git = popen(command, "r")) {
    char line[64] = {};
    if (std::fgets(line, sizeof(line), git) != nullptr && std::strlen(line) >= 40) {
      commit.assign(line, std::strcspn(line, "\n"));
    }
    pclose(git);
  }
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"nproc\": %u, \"compiler\": \"%s\", \"commit\": \"%s\"}",
                std::thread::hardware_concurrency(), compiler, commit.c_str());
  return buffer;
}

// Formats a replay result like the paper's tables: seconds, or the infinity
// marker when the budget ran out.
inline std::string ReplayCell(const ReplayResult& result) {
  if (!result.reproduced) {
    return "inf";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2fs", result.wall_seconds);
  return buffer;
}

}  // namespace retrace

#endif  // RETRACE_BENCH_BENCH_UTIL_H_
