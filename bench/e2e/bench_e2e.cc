// bench_e2e: the repository's end-to-end benchmark (see README.md).
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--commit SHA]
//   bench_e2e --self-test
//
// Prints a stamp line, one "name value unit" line per metric, and as its
// last line the JSON result {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the span file goes to build-bench/traces/. Exits 1
// when a correctness check fails, 2 on bad usage or a RETRACE_* variable
// in the environment.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/e2e/generate.h"
#include "bench/e2e/metrics.h"
#include "bench/e2e/trace.h"
#include "bench/e2e/workloads.h"
#include "src/exec/engine.h"

extern char** environ;

namespace retrace::e2e {
namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

// ----- Self-test --------------------------------------------------------------

// Metric names are [A-Za-z0-9_.-]+ and start with a letter or digit.
bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

// Canonical bytes of generated inputs, for the determinism checks.
std::string Serialize(const Scenario& scenario) {
  std::string out = scenario.name;
  for (const std::string& arg : scenario.spec.argv) {
    out += "|" + arg;
  }
  for (const StreamShape& stream : scenario.spec.world.streams) {
    out += "|" + std::to_string(stream.bytes.size()) + ":";
    out.append(stream.bytes.begin(), stream.bytes.end());
  }
  return out;
}

std::string Serialize(const std::vector<Arrival>& arrivals) {
  std::string out;
  char buffer[64];
  for (const Arrival& a : arrivals) {
    std::snprintf(buffer, sizeof(buffer), "%.17g:%u;", a.due_s, a.report);
    out += buffer;
  }
  return out;
}

int g_checks = 0;
int g_failures = 0;

void Expect(bool ok, const char* what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
  }
}

void TestPercentiles() {
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) {
    ten.push_back(i);
  }
  Expect(Percentile(ten, 50) == 5, "p50 of 1..10 is 5");
  Expect(Percentile(ten, 90) == 9, "p90 of 1..10 is 9");
  Expect(Percentile(ten, 10) == 1, "p10 of 1..10 is 1");
  Expect(Percentile(ten, 100) == 10, "p100 is the maximum");
  Expect(Percentile({4.5}, 99) == 4.5, "any percentile of one sample is that sample");
  std::vector<double> many;
  for (int i = 1; i <= 300; ++i) {
    many.push_back(i);
  }
  Expect(Percentile(many, 90) == 270, "p90 of 1..300 is 270");
  // 0.07 * 100 is 7.000000000000001 in binary floating point.
  many.resize(100);
  Expect(Percentile(many, 7) == 7, "p7 of 1..100 is 7, not 8");
  const std::vector<int64_t> times = {0, 10, 20, 30, 40};
  const std::vector<double> values = {5, 1, 4, 2, 3};
  Expect(MedianNearest(times, values, 20, 3) == 2, "median of the 3 values around t=20");
  Expect(MedianNearest(times, values, 24, 3) == 2 && MedianNearest(times, values, 26, 3) == 3,
         "the window moves with the time asked for");
  Expect(MedianNearest(times, values, -5, 3) == 4 && MedianNearest(times, values, 99, 3) == 3,
         "at either end the window shifts inward");
  Expect(MedianNearest(times, values, 20, 9) == 3, "fewer values than asked: all of them");
  Expect(SamplesBeyond(300, 90) == 30, "30 of 300 samples lie beyond p90");
  Expect(TailPercentile(1000) == 99, "1000 samples support p99");
  Expect(TailPercentile(300) == 90, "300 samples support p90, not p99");
  Expect(TailPercentile(25) == 50, "25 samples support only the median");
  Expect(TailPercentile(10) == 0, "10 samples support no tail percentile");
}

void TestGenerators() {
  struct Population {
    std::string bytes;
    std::string shape;  // Stream lengths only: what a bug report ships.
    size_t longest = 0;
  };
  auto population = [](u64 seed) {
    CrashGenerator generator(seed);
    Population p;
    for (int i = 0; i < 300; ++i) {
      const Scenario s = generator.Next();
      p.bytes += Serialize(s) + "\n";
      for (const StreamShape& stream : s.spec.world.streams) {
        p.shape += std::to_string(stream.bytes.size()) + ",";
        p.longest = std::max(p.longest, stream.bytes.size());
      }
      p.shape += ";";
    }
    return p;
  };
  const Population a = population(7);
  const Population b = population(8);
  Expect(a.bytes == population(7).bytes, "same seed, byte-identical report population");
  Expect(a.bytes != b.bytes, "different seed, different report population");
  Expect(a.shape == b.shape, "different seed, same report shapes");
  Expect(a.longest < 511, "every generated request fits the server's connection buffer");

  const std::vector<Arrival> schedule = ArrivalSchedule(7, 1000, 20.0, 300);
  Expect(Serialize(schedule) == Serialize(ArrivalSchedule(7, 1000, 20.0, 300)),
         "same seed, byte-identical arrival schedule");
  Expect(Serialize(schedule) != Serialize(ArrivalSchedule(8, 1000, 20.0, 300)),
         "different seed, different arrival schedule");
  bool in_order = true;
  size_t head = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    in_order = in_order && schedule[i].due_s >= 0 && schedule[i].due_s < 20.0 &&
               schedule[i].report < 300 && (i == 0 || schedule[i].due_s >= schedule[i - 1].due_s);
    head += schedule[i].report == 0 ? 1 : 0;
  }
  Expect(in_order, "arrivals are sorted, inside the window and inside the population");
  // Zipf(s=1) over 300 members gives member 0 a share of 1/H(300) ~ 16%.
  Expect(head > 120 && head < 200, "the most popular report draws about 16% of arrivals");
}

void TestSpans() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: they
  // cover 40 ns once) and a grandchild [25,28) inside the first child; a
  // second root [200,260) whose child runs past its end.
  std::vector<Span> spans(6);
  spans[0] = {"root", 0, 100, -1, 0, 0};
  spans[1] = {"a", 10, 30, 0, 0, 0};
  spans[2] = {"b", 20, 50, 0, 0, 0};
  spans[3] = {"a.child", 25, 28, 1, 0, 0};
  spans[4] = {"other", 200, 260, -1, 0, 0};
  spans[5] = {"late", 250, 300, 4, 0, 0};
  const std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 60, "root self time excludes the union of its children");
  Expect(self[1] == 17, "a child's self time excludes its own child");
  Expect(self[2] == 30 && self[3] == 3, "leaf self time is the whole span");
  Expect(self[4] == 50, "a child running past its parent is clipped");
  Expect(CoveredNs(spans, 0, 240) == 140, "coverage unions top-level spans inside the window");

  Tracer tracer(true);
  {
    Tracer::Scope outer = tracer.Open("outer", 1);
    {
      Tracer::Scope inner = tracer.Open("inner", 1);
    }
    std::thread([&] { Tracer::Scope other = tracer.Open("other-thread", 2); }).join();
  }
  const std::vector<Span> live = tracer.spans();
  Expect(live.size() == 3 && live[0].parent == -1 && live[1].parent == 0,
         "nested scopes on one thread record their parent");
  Expect(live.size() == 3 && live[2].parent == -1 && live[2].thread != live[0].thread,
         "a span on another thread is top-level on that thread");
  bool closed = true;
  for (const Span& s : live) {
    closed = closed && s.end_ns >= s.start_ns;
  }
  Expect(closed, "every scope closed its span");
  Tracer off(false);
  { Tracer::Scope s = off.Open("nothing"); }
  Expect(off.spans().empty(), "a disabled tracer records nothing");
}

void TestMetricNames() {
  std::vector<MetricDef> all(std::begin(kEndToEnd), std::end(kEndToEnd));
  all.insert(all.end(), std::begin(kPerLayer), std::end(kPerLayer));
  std::set<std::string> names;
  bool valid = true;
  for (const MetricDef& def : all) {
    valid = valid && ValidMetricName(def.name);
    names.insert(def.name);
  }
  Expect(valid, "every metric name matches [A-Za-z0-9_.-]+");
  Expect(names.size() == all.size(), "metric names are unique");
  Expect(names.count("setup_s") == 1, "setup_s is an end-to-end metric");
  Expect(!ValidMetricName("") && !ValidMetricName("_x") && !ValidMetricName("a b") &&
             !ValidMetricName("a/b"),
         "malformed names are refused");
  const std::string line = ResultLine(true, 3, 0, kEndToEnd, {{"setup_s", 0.25}});
  const char* head = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {";
  Expect(line.rfind(head, 0) == 0 &&
             line.find("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}") != std::string::npos,
         "result line carries every key and metric");
}

int SelfTest() {
  TestPercentiles();
  TestGenerators();
  TestSpans();
  TestMetricNames();
  std::printf("self-test: %d of %d checks passed\n", g_checks - g_failures, g_checks);
  return g_failures == 0 ? 0 : 1;
}

// ----- Command line -----------------------------------------------------------

int Usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "lc-search|fleet-triage|service-stream|record-load [--seed N] [--seconds S] "
               "[--trace 0|1] [--commit SHA]\n       bench_e2e --self-test\n",
               message);
  return 2;
}

// Every search and analysis config is built in this directory; a
// RETRACE_* knob (exec engine, replay workers, ...) would silently change
// what the numbers mean.
const char* RetraceVariable() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "RETRACE_", 8) == 0) {
      return *env;
    }
  }
  return nullptr;
}

std::string Stamp(const Options& options, const std::string& commit) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
                "\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"engine\": \"%s\", \"commit\": \"%s\"}",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                FormatNumber(options.seconds).c_str(), options.trace ? 1 : 0,
                sysconf(_SC_NPROCESSORS_ONLN), kCompiler, BENCH_E2E_BUILD_TYPE,
                ExecEngineKindName(ResolveExecEngineKind(ExecEngineKind::kDefault)),
                commit.c_str());
  return buffer;
}

int Main(int argc, char** argv) {
  if (const char* variable = RetraceVariable()) {
    std::fprintf(stderr, "bench_e2e: refusing to run with %s set: the benchmark configures "
                 "every layer itself\n", variable);
    return 2;
  }
  Options options;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      return SelfTest();
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        return Usage("--seed takes a non-negative integer");
      }
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds >= 1.0 && options.seconds <= 120.0)) {
        return Usage("--seconds takes a number in [1, 120]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (arg == "--commit") {
      const bool hex = !value.empty() && value.size() <= 40 &&
                       value.find_first_not_of("0123456789abcdef") == std::string::npos;
      commit = hex ? value : "unknown";
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) {
    return Usage("--workload is required");
  }

  const std::string stamp = Stamp(options, commit);
  std::printf("# stamp %s\n", stamp.c_str());
  std::fflush(stdout);
  WorkloadResult result;
  if (!RunWorkload(options, &result)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  for (const std::string& violation : result.violations) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", options.workload.c_str(), violation.c_str());
  }
  if (options.trace) {
    const std::string dir = "build-bench/traces";
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    const std::string path =
        dir + "/" + options.workload + "-seed" + std::to_string(options.seed) + ".json";
    if (!WriteSpanFile(path, stamp, result.spans)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "bench_e2e: %zu spans written to %s\n", result.spans.size(),
                 path.c_str());
  }
  if (!options.trace) {
    const size_t n = result.latency_samples;
    std::printf("# latency samples: %zu, %zu beyond p90; highest percentile with 10 beyond: p%s\n",
                n, SamplesBeyond(n, 90), FormatNumber(TailPercentile(n)).c_str());
    std::printf("# native run (latency unit): %s s\n",
                FormatNumber(result.per_layer["bench.native_run_s"]).c_str());
  }
  const std::span<const MetricDef> table =
      options.trace ? std::span<const MetricDef>(kPerLayer) : std::span<const MetricDef>(kEndToEnd);
  const MetricValues& values = options.trace ? result.per_layer : result.end_to_end;
  for (const MetricDef& def : table) {
    const auto it = values.find(def.name);
    std::printf("%-36s %-14s %s\n", def.name,
                FormatNumber(it == values.end() ? 0.0 : it->second).c_str(), def.unit);
  }
  const bool correct = result.violations.empty() && result.failed == 0;
  std::printf("%s\n", ResultLine(correct, result.attempted, result.failed, table, values).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace retrace::e2e

int main(int argc, char** argv) { return retrace::e2e::Main(argc, argv); }
