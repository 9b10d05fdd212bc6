#include "bench/e2e/generate.h"

#include <algorithm>

namespace retrace::e2e {

namespace {

double UnitInterval(Rng* rng) { return static_cast<double>(rng->Next() >> 11) * 0x1.0p-53; }

}  // namespace

std::string CrashGenerator::Token(size_t min_len, size_t max_len) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  const size_t len = static_cast<size_t>(
      shape_.NextInRange(static_cast<i64>(min_len), static_cast<i64>(max_len)));
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out += kAlphabet[content_.NextBelow(sizeof(kAlphabet) - 1)];
  }
  return out;
}

// At most ~400 bytes, inside the server's 511-byte per-connection buffer,
// and free of the bytes (' ', '?', '&', '\r') that would change how the
// parser splits a token: every request parses and is answered, so the
// only crash is the signal at the end.
std::string CrashGenerator::Request() {
  static constexpr const char* kMethods[] = {"GET", "HEAD", "POST"};
  const std::string method = kMethods[shape_.NextBelow(3)];
  std::string path;
  switch (shape_.NextBelow(5)) {
    case 0: path = "/"; break;
    case 1: path = "/about"; break;
    case 2: path = "/static/" + Token(1, 24); break;
    case 3: path = "/secret"; break;
    default: path = "/" + Token(1, 16); break;
  }
  if (shape_.NextBelow(2) == 0) {
    const u64 params = 1 + shape_.NextBelow(4);
    for (u64 i = 0; i < params; ++i) {
      path += (i == 0 ? "?" : "&") + Token(1, 10) + "=" + Token(1, 10);
    }
  }
  std::string request = method + " " + path + " HTTP/1.0\r\nHost: " + Token(1, 20) +
                        ".example.org\r\n";
  if (shape_.NextBelow(2) == 0) {
    request += "Cookie: " + Token(1, 8) + "=" + Token(4, 40) + "\r\n";
  }
  if (method == "POST") {
    const std::string body = Token(0, 120);
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  } else {
    request += "\r\n";
  }
  return request;
}

Scenario CrashGenerator::Next() {
  Scenario s;
  s.name = "gen-" + std::to_string(count_++);
  s.spec.argv = {"userver", "8080"};
  WorldShape& world = s.spec.world;
  world.listen_fd = 3;
  world.max_concurrent_conns = 1;
  const u64 conns = 1 + shape_.NextBelow(2);
  for (u64 c = 0; c < conns; ++c) {
    const std::string request = Request();
    StreamShape stream;
    stream.name = "conn";
    stream.bytes.assign(request.begin(), request.end());
    stream.length = static_cast<i64>(stream.bytes.size());
    world.connection_streams.push_back(static_cast<i32>(world.streams.size()));
    world.streams.push_back(std::move(stream));
  }
  // As in the paper's experiments (src/workloads/scenarios.cc): each
  // connection takes an accept and a read iteration, so the signal at
  // poll 4*conns+4 lands after every request has been answered.
  s.policy = std::make_shared<SignalAfterPolicy>(static_cast<int>(4 * conns + 4));
  return s;
}

std::vector<Arrival> ArrivalSchedule(u64 seed, size_t count, double seconds, size_t population) {
  Rng rng(seed);
  std::vector<double> cdf(population);
  double total = 0.0;
  for (size_t k = 0; k < population; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  std::vector<Arrival> arrivals(count);
  for (Arrival& a : arrivals) {
    a.due_s = UnitInterval(&rng) * seconds;
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& x, const Arrival& y) { return x.due_s < y.due_s; });
  for (Arrival& a : arrivals) {
    const double u = UnitInterval(&rng) * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    a.report = static_cast<u32>(std::min<size_t>(static_cast<size_t>(it - cdf.begin()),
                                                 population - 1));
  }
  return arrivals;
}

}  // namespace retrace::e2e
