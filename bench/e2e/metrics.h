// Metric tables and statistics of the end-to-end benchmark.
//
// The two tables below are the benchmark's contract: BENCHMARK.json at
// the repository root lists the same names and units. With tracing off a
// workload reports every kEndToEnd metric; with tracing on, every
// kPerLayer metric (0 where the workload never calls into that layer).
#ifndef RETRACE_BENCH_E2E_METRICS_H_
#define RETRACE_BENCH_E2E_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace retrace::e2e {

struct MetricDef {
  const char* name;
  const char* unit;
};

// What a user of the system sees. An "op" is one bug report handed to the
// developer site (lc-search, fleet-triage), one report arrival
// (service-stream) or one user request served under instrumentation
// (record-load). Op latencies are in native runs: multiples of one
// uninstrumented run of the 200-request uServer load timed next to the op,
// which cancels the host's speed (their seconds are per-layer bench.*).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},             // Median of the run's set-up repetitions.
    {"latency_p50_x", "x"},       // Op latency in native runs, nearest-rank median.
    {"latency_p90_x", "x"},       // Op latency in native runs, nearest-rank p90.
    {"peak_rss_mb", "MB"},        // ru_maxrss of the workload process.
    {"native_cpu_pct", "%"},      // Modeled user-site CPU of the recording plan.
    {"log_bytes_per_req", "B"},   // Branch-log bytes per user request, same plan.
};

// One layer each: lang, concolic, analysis, instrument, exec, replay,
// solver, dist, service and core, plus bench: op latencies in seconds, the
// native reference run, and the trace's own health. Times are
// bench-side spans around public calls; counts come from result structs.
inline constexpr MetricDef kPerLayer[] = {
    {"lang.compile_s", "s"},
    {"concolic.analyze_s", "s"},
    {"concolic.analyze_runs", "count"},
    {"analysis.static_s", "s"},
    {"instrument.plan_s", "s"},
    {"instrument.record_s_p50", "s"},
    {"instrument.overhead_run_s_p50", "s"},
    {"instrument.slowdown", "x"},
    {"instrument.execs_per_req", "count"},
    {"instrument.record_bit_ns", "ns"},
    {"instrument.adaptive_rounds", "count"},
    {"instrument.adaptive_plan_bits", "count"},
    {"instrument.refine_s", "s"},
    {"exec.shadow_minstr_per_s", "Minstr/s"},
    {"exec.concrete_minstr_per_s", "Minstr/s"},
    {"exec.instrs_per_run", "count"},
    {"replay.reproduce_s", "s"},
    {"replay.runs_per_s", "1/s"},
    {"replay.runs_per_report", "count"},
    {"replay.on_log_rate", "ratio"},
    {"replay.pending_peak", "count"},
    {"replay.budget_exhausted", "count"},
    {"replay.aborts_concrete_mismatch", "count"},
    {"replay.aborts_log_exhausted", "count"},
    {"replay.crashes_wrong_site", "count"},
    {"replay.steals", "count"},
    {"replay.dedup_skips", "count"},
    {"replay.cancelled_runs", "count"},
    {"solver.calls_per_run", "count"},
    {"solver.slice_hit_rate", "ratio"},
    {"solver.slices_solved", "count"},
    {"solver.cache_entries", "count"},
    {"dist.job_overhead_s_p50", "s"},
    {"dist.wire_bytes_per_search", "B"},
    {"dist.harvest_runs_per_search", "count"},
    {"dist.forked_share", "ratio"},
    {"dist.verdicts_gossiped_per_search", "count"},
    {"dist.rebalance_rounds", "count"},
    {"dist.shards_lost", "count"},
    {"dist.pendings_recovered", "count"},
    {"dist.fallback_inprocess", "count"},
    {"service.cache_hit_rate", "ratio"},
    {"service.attach_rate", "ratio"},
    {"service.searches_run", "count"},
    {"service.rejected", "count"},
    {"service.search_s_p50", "s"},
    {"service.queue_wait_s_p90", "s"},
    {"service.repro_s_p99", "s"},
    {"service.gen_late_s_max", "s"},
    {"core.verify_s_p50", "s"},
    {"core.verify_failed", "count"},
    {"core.repro_rate", "ratio"},
    {"bench.latency_s_p50", "s"},
    {"bench.latency_s_p90", "s"},
    {"bench.ops_per_s", "1/s"},
    {"bench.native_run_s", "s"},
    {"bench.setup_wall_s", "s"},
    {"bench.span_coverage", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

using MetricValues = std::map<std::string, double>;

// Nearest-rank percentile: the smallest sample such that at least p% of
// all samples are at or below it. `samples` must be non-empty and
// 0 < p <= 100.
double Percentile(std::vector<double> samples, double p);

// Nearest-rank median of the `k` consecutive values centred on the one
// whose time is nearest `at`, shifted inward at either end (all of them
// when there are fewer). `times` is sorted, pairs with `values` and is
// non-empty.
double MedianNearest(const std::vector<int64_t>& times, const std::vector<double>& values,
                     int64_t at, size_t k);

// Samples strictly above the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

// The highest of p99, p90 and p50 that has at least ten samples beyond
// it, or 0 when even the median has fewer.
double TailPercentile(size_t n);

// Shortest decimal text that reads back as exactly `value`.
std::string FormatNumber(double value);

// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// with one entry per definition in `table`, in table order. Missing values
// are reported as 0.
std::string ResultLine(bool correct, unsigned long long attempted, unsigned long long failed,
                       std::span<const MetricDef> table, const MetricValues& values);

}  // namespace retrace::e2e

#endif  // RETRACE_BENCH_E2E_METRICS_H_
