#include "bench/e2e/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace retrace::e2e {

namespace {

// 1-based nearest rank of the p-th percentile among n samples. The small
// epsilon keeps p*n that is an exact integer in decimal (0.9 * 300) from
// rounding up through binary representation error.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1), samples.end());
  return samples[rank - 1];
}

double MedianNearest(const std::vector<int64_t>& times, const std::vector<double>& values,
                     int64_t at, size_t k) {
  const size_t n = times.size();
  k = std::min(k, n);
  size_t centre = static_cast<size_t>(std::lower_bound(times.begin(), times.end(), at) -
                                      times.begin());
  if (centre == n || (centre > 0 && at - times[centre - 1] < times[centre] - at)) {
    --centre;
  }
  const size_t first = std::min(centre > k / 2 ? centre - k / 2 : 0, n - k);
  return Percentile(std::vector<double>(values.begin() + static_cast<long>(first),
                                        values.begin() + static_cast<long>(first + k)),
                    50);
}

size_t SamplesBeyond(size_t n, double p) { return n == 0 ? 0 : n - NearestRank(n, p); }

double TailPercentile(size_t n) {
  for (double p : {99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) {
      return p;
    }
  }
  return 0.0;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string ResultLine(bool correct, unsigned long long attempted, unsigned long long failed,
                       std::span<const MetricDef> table, const MetricValues& values) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < table.size(); ++i) {
    const auto it = values.find(table[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    line += i == 0 ? "" : ", ";
    line += "\"" + std::string(table[i].name) + "\": {\"value\": " + FormatNumber(value) +
            ", \"unit\": \"" + table[i].unit + "\"}";
  }
  line += "}}";
  return line;
}

}  // namespace retrace::e2e
