// The four workloads of the end-to-end benchmark (see README.md for why
// each was chosen and which layers it loads or bypasses).
#ifndef RETRACE_BENCH_E2E_WORKLOADS_H_
#define RETRACE_BENCH_E2E_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench/e2e/metrics.h"
#include "bench/e2e/trace.h"
#include "src/support/common.h"

namespace retrace::e2e {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;  // Measurement window.
  bool trace = false;
};

struct WorkloadResult {
  u64 attempted = 0;  // Ops handed to the system.
  u64 failed = 0;     // Ops that missed: not reproduced, refused, or failed a check.
  std::vector<std::string> violations;  // Correctness-gate failures, one line each.
  size_t latency_samples = 0;  // Behind the latency percentiles.
  MetricValues end_to_end;
  MetricValues per_layer;  // Filled only when tracing.
  std::vector<Span> spans;
};

// Runs `options.workload` (lc-search, fleet-triage, service-stream or
// record-load); false when no workload has that name.
bool RunWorkload(const Options& options, WorkloadResult* out);

}  // namespace retrace::e2e

#endif  // RETRACE_BENCH_E2E_WORKLOADS_H_
