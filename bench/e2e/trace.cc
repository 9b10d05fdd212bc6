#include "bench/e2e/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <utility>

namespace retrace::e2e {

namespace {

// Open spans of the calling thread, innermost last. Tagged with their
// tracer so two tracers alive at once never adopt each other's spans.
thread_local std::vector<std::pair<const Tracer*, int32_t>> t_open;

int32_t ThreadId() {
  static std::atomic<int32_t> next{0};
  thread_local const int32_t id = next.fetch_add(1);
  return id;
}

// Length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) {
      continue;
    }
    if (!open || start > cur_end) {
      total += open ? cur_end - cur_start : 0;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  return total + (open ? cur_end - cur_start : 0);
}

}  // namespace

int32_t Tracer::Begin(const char* name, uint64_t req) {
  Span span;
  span.name = name;
  span.end_ns = -1;
  span.thread = ThreadId();
  span.req = req;
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this) {
      span.parent = it->second;
      break;
    }
  }
  int32_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int32_t>(spans_.size());
    span.start_ns = NowNs();
    spans_.push_back(span);
  }
  t_open.emplace_back(this, index);
  return index;
}

void Tracer::Close(int32_t index) {
  const int64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = end;
  }
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this && it->second == index) {
      t_open.erase(std::next(it).base());
      break;
    }
  }
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    for (auto& [start, end] : children[i]) {
      start = std::max(start, spans[i].start_ns);
      end = std::min(end, spans[i].end_ns);
    }
    self[i] = spans[i].duration_ns() - UnionLength(std::move(children[i]));
  }
  return self;
}

int64_t CoveredNs(const std::vector<Span>& spans, int64_t from, int64_t to) {
  std::vector<std::pair<int64_t, int64_t>> top;
  for (const Span& span : spans) {
    if (span.parent < 0) {
      top.emplace_back(std::max(span.start_ns, from), std::min(span.end_ns, to));
    }
  }
  return UnionLength(std::move(top));
}

double TotalSeconds(const std::vector<Span>& spans, const char* name) {
  double total = 0.0;
  for (double d : DurationsSeconds(spans, name)) {
    total += d;
  }
  return total;
}

std::vector<double> DurationsSeconds(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.duration_ns()) * 1e-9);
    }
  }
  return out;
}

double ProbeCostNs() {
  constexpr int kProbes = 20000;
  Tracer tracer(true);
  const int64_t start = NowNs();
  for (int i = 0; i < kProbes; ++i) {
    Tracer::Scope outer = tracer.Open("probe", static_cast<uint64_t>(i));
  }
  return static_cast<double>(NowNs() - start) / kProbes;
}

bool WriteSpanFile(const std::string& path, const std::string& stamp_json,
                   const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const std::vector<int64_t> self = SelfTimes(spans);
  std::fprintf(file, "{\"stamp\": %s,\n \"spans\": [", stamp_json.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld, \"parent\": %d, \"thread\": %d, \"req\": %llu}",
                 i == 0 ? "" : ",", i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(self[i]), s.parent,
                 s.thread, static_cast<unsigned long long>(s.req));
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace retrace::e2e
