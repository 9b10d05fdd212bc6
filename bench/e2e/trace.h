// Outside-in span trace of the end-to-end benchmark.
//
// Spans are recorded only from benchmark code, around calls into a
// layer's public functions (Pipeline::*, ReplayService::Submit,
// CellRunner::Run, ...): the library itself is not instrumented. A span
// has a name (the per-layer metric prefix, e.g. "replay.reproduce"),
// start and end on the steady clock, the span that encloses it on the
// same thread, and a request id shared by the spans of one op. Spans stay
// in memory and are written as JSON once the workload has ended.
//
// A disabled tracer records nothing: Open() then costs one branch, so the
// untraced run that yields the end-to-end metrics pays no probe cost.
#ifndef RETRACE_BENCH_E2E_TRACE_H_
#define RETRACE_BENCH_E2E_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace retrace::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // -1 while open.
  int32_t parent = -1;  // Index of the enclosing span on the same thread.
  int32_t thread = 0;
  uint64_t req = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Closes its span on destruction. Scopes on one thread must nest.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->Close(index_);
      }
    }

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int32_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    int32_t index_;
  };

  // `name` must outlive the tracer (a string literal).
  [[nodiscard]] Scope Open(const char* name, uint64_t req = 0) {
    return enabled_ ? Scope(this, Begin(name, req)) : Scope(nullptr, -1);
  }

  // Copy of the spans recorded so far (open spans have end_ns == -1).
  std::vector<Span> spans() const;

 private:
  int32_t Begin(const char* name, uint64_t req);
  void Close(int32_t index);

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Per-span self time: the span's duration minus the part of it that its
// child spans cover (overlapping children are counted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Nanoseconds of [from, to) covered by the union of top-level spans.
int64_t CoveredNs(const std::vector<Span>& spans, int64_t from, int64_t to);

// Sum and list of durations (seconds) of the spans named `name`.
double TotalSeconds(const std::vector<Span>& spans, const char* name);
std::vector<double> DurationsSeconds(const std::vector<Span>& spans, const char* name);

// Measured cost of one Open/close pair on this host, in nanoseconds: the
// charge the benchmark books against its own probes.
double ProbeCostNs();

// The span file: {"stamp": <stamp_json>, "spans": [...]} with each span's
// self time. False when the file cannot be written.
bool WriteSpanFile(const std::string& path, const std::string& stamp_json,
                   const std::vector<Span>& spans);

}  // namespace retrace::e2e

#endif  // RETRACE_BENCH_E2E_TRACE_H_
