// Seeded inputs of the end-to-end benchmark.
//
// Everything a workload feeds the system is derived here from --seed:
// uServer crash inputs (random requests ending in an externally
// delivered signal) and the service's arrival schedule. The same seed
// gives byte-identical inputs; the system under test sees only the
// generated inputs, never the seed.
#ifndef RETRACE_BENCH_E2E_GENERATE_H_
#define RETRACE_BENCH_E2E_GENERATE_H_

#include <string>
#include <vector>

#include "src/support/rng.h"
#include "src/workloads/scenarios.h"

namespace retrace::e2e {

// An endless, deterministic stream of uServer crash scenarios: 1-2
// connections, each a GET, HEAD or POST with a random path, query,
// cookie and body, then the crash signal after the last request.
//
// The stream's shape (connection counts, methods, which parts each
// request has, every token's length) comes from a fixed seed; only the
// token bytes come from `seed`. A bug report ships the shape and never
// the bytes, so every seed yields the same mix of report sizes and
// structures while the bytes, and with them the branch logs the searches
// must match, change.
class CrashGenerator {
 public:
  explicit CrashGenerator(u64 seed) : shape_(kShapeSeed), content_(seed) {}
  Scenario Next();

 private:
  static constexpr u64 kShapeSeed = 0x5ca1ab1e;

  std::string Request();
  std::string Token(size_t min_len, size_t max_len);

  Rng shape_;
  Rng content_;
  u64 count_ = 0;
};

// One report arrival at the service: `due_s` after the stream starts,
// carrying population member `report`.
struct Arrival {
  double due_s = 0.0;
  u32 report = 0;
};

// `count` arrivals of a Poisson process conditioned on `count` events in
// [0, seconds) (sorted uniform due times), each drawing its report from
// a Zipf(s=1) law over `population` members: member k has weight 1/(k+1).
std::vector<Arrival> ArrivalSchedule(u64 seed, size_t count, double seconds, size_t population);

}  // namespace retrace::e2e

#endif  // RETRACE_BENCH_E2E_GENERATE_H_
