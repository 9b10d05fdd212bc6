#include "src/dist/fault.h"

namespace retrace {

namespace {

// Parses a base-10 u64 from [p, end); advances p past the digits.
// Returns false when no digit is present or the value overflows.
bool ParseU64(const char*& p, const char* end, u64* out) {
  if (p == end || *p < '0' || *p > '9') return false;
  u64 v = 0;
  while (p != end && *p >= '0' && *p <= '9') {
    u64 digit = static_cast<u64>(*p - '0');
    if (v > (~0ull - digit) / 10) return false;
    v = v * 10 + digit;
    ++p;
  }
  *out = v;
  return true;
}

bool ConsumeWord(const char*& p, const char* end, const char* word) {
  const char* q = p;
  while (*word != '\0') {
    if (q == end || *q != *word) return false;
    ++q;
    ++word;
  }
  p = q;
  return true;
}

bool Fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

std::vector<FaultAction> FaultSpec::ForShard(u32 shard) const {
  std::vector<FaultAction> out;
  for (const Clause& c : clauses) {
    if (c.shard == kFaultAllShards || c.shard == static_cast<i32>(shard)) {
      out.push_back(c.action);
    }
  }
  return out;
}

bool ParseFaultSpec(const std::string& text, FaultSpec* out, std::string* error) {
  out->clauses.clear();
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    size_t stop = comma == std::string::npos ? text.size() : comma;
    // Tolerate surrounding whitespace so shell-quoted lists read well.
    size_t begin = pos;
    while (begin < stop && (text[begin] == ' ' || text[begin] == '\t')) ++begin;
    size_t finish = stop;
    while (finish > begin && (text[finish - 1] == ' ' || text[finish - 1] == '\t')) --finish;
    pos = stop + 1;
    if (begin == finish) {
      if (text.empty()) break;  // "" is the explicit no-faults spec.
      return Fail(error, "empty fault clause");
    }

    const char* p = text.data() + begin;
    const char* end = text.data() + finish;
    FaultSpec::Clause clause;

    if (ConsumeWord(p, end, "all")) {
      clause.shard = kFaultAllShards;
    } else if (ConsumeWord(p, end, "shard")) {
      u64 id = 0;
      if (!ParseU64(p, end, &id) || id > 0x7fffffff) {
        return Fail(error, "bad shard id in fault clause");
      }
      clause.shard = static_cast<i32>(id);
    } else {
      return Fail(error, "fault target must be 'all' or 'shard<N>'");
    }
    if (p == end || *p != ':') return Fail(error, "expected ':' after fault target");
    ++p;

    if (ConsumeWord(p, end, "drop")) {
      clause.action.kind = FaultAction::Kind::kDrop;
    } else if (ConsumeWord(p, end, "delay")) {
      clause.action.kind = FaultAction::Kind::kDelay;
    } else if (ConsumeWord(p, end, "dup")) {
      clause.action.kind = FaultAction::Kind::kDup;
    } else if (ConsumeWord(p, end, "corrupt")) {
      clause.action.kind = FaultAction::Kind::kCorrupt;
    } else if (ConsumeWord(p, end, "close")) {
      clause.action.kind = FaultAction::Kind::kClose;
    } else if (ConsumeWord(p, end, "hang")) {
      clause.action.kind = FaultAction::Kind::kHang;
    } else {
      return Fail(error, "unknown fault action (want drop|delay|dup|corrupt|close|hang)");
    }

    if (p != end && *p == '@') {
      ++p;
      if (!ConsumeWord(p, end, "frame")) return Fail(error, "expected 'frame<N>' after '@'");
      u64 n = 0;
      if (!ParseU64(p, end, &n) || n == 0) return Fail(error, "frame number must be >= 1");
      clause.action.at_frame = n;
    } else if (p != end && *p == '%') {
      ++p;
      u64 pct = 0;
      if (!ParseU64(p, end, &pct) || pct == 0 || pct > 100) {
        return Fail(error, "percent must be in 1..100");
      }
      clause.action.percent = static_cast<u32>(pct);
    } else {
      return Fail(error, "fault action needs a trigger: '@frame<N>' or '%<P>'");
    }
    if (p != end) return Fail(error, "trailing garbage in fault clause");

    out->clauses.push_back(clause);
    if (comma == std::string::npos) break;
  }
  if (!text.empty() && out->clauses.empty()) return Fail(error, "empty fault spec clause list");
  return true;
}

// ---------------------------------------------------------------------------
// FaultInjectingChannel
// ---------------------------------------------------------------------------

FaultInjectingChannel::FaultInjectingChannel(std::unique_ptr<WireChannel> inner,
                                             std::vector<FaultAction> actions, u64 seed)
    // Base fd -1: the decorator never does I/O itself, so the base dtor
    // must not own (and close) anything.
    : WireChannel(-1), inner_(std::move(inner)), actions_(std::move(actions)), rng_(seed) {}

void FaultInjectingChannel::DropInner() {
  if (inner_ == nullptr) return;
  tx_snapshot_ = inner_->tx_bytes();
  rx_snapshot_ = inner_->rx_bytes();
  dropped_snapshot_ = inner_->dropped_frames();
  inner_.reset();  // Closes the real fd — the shard sees EOF.
}

bool FaultInjectingChannel::Send(WireMsg type, const std::vector<u8>& payload) {
  if (closed_) return false;
  if (muted_) return true;  // Swallowed: a hung peer never acks anyway.
  return inner_->Send(type, payload);
}

bool FaultInjectingChannel::Queue(WireMsg type, const std::vector<u8>& payload, bool droppable) {
  if (closed_) return false;
  if (muted_) return true;
  return inner_->Queue(type, payload, droppable);
}

const FaultAction* FaultInjectingChannel::Match(u64 frame_index) {
  const FaultAction* hit = nullptr;
  for (const FaultAction& a : actions_) {
    // Percent clauses burn one draw per frame whether or not an earlier
    // clause already matched, so one clause's trigger never shifts
    // another's schedule.
    bool fires = false;
    if (a.at_frame > 0) {
      fires = frame_index == a.at_frame;
    } else if (a.percent > 0) {
      fires = rng_.NextBelow(100) < a.percent;
    }
    if (fires && hit == nullptr) hit = &a;
  }
  return hit;
}

WireChannel::RecvStatus FaultInjectingChannel::Poll(int timeout_ms, std::vector<WireFrame>* out,
                                                    int wake_fd) {
  if (closed_) return RecvStatus::kClosed;

  std::vector<WireFrame> fresh;
  RecvStatus status = RecvStatus::kOk;
  if (inner_ != nullptr) {
    status = inner_->Poll(timeout_ms, &fresh, wake_fd);
  }

  // Delayed frames re-enter ahead of this batch: they were received
  // first, and order within the channel is part of the protocol.
  std::vector<WireFrame> incoming = std::move(delayed_);
  delayed_.clear();
  for (WireFrame& f : fresh) incoming.push_back(std::move(f));

  for (WireFrame& frame : incoming) {
    ++frames_seen_;
    const FaultAction* hit = Match(frames_seen_);
    if (muted_) continue;  // Hung: read and discard everything.
    if (hit == nullptr) {
      out->push_back(std::move(frame));
      continue;
    }
    switch (hit->kind) {
      case FaultAction::Kind::kClose:
        closed_ = true;
        DropInner();
        // Frames before the trigger were already appended — the
        // coordinator sees a clean prefix, then loss.
        return RecvStatus::kClosed;
      case FaultAction::Kind::kHang:
        muted_ = true;  // This frame and everything after vanishes.
        break;
      case FaultAction::Kind::kDrop:
        break;
      case FaultAction::Kind::kDup:
        out->push_back(frame);
        out->push_back(std::move(frame));
        break;
      case FaultAction::Kind::kDelay:
        delayed_.push_back(std::move(frame));
        break;
      case FaultAction::Kind::kCorrupt:
        if (frame.payload.empty()) break;  // Nothing to flip: drop it.
        frame.payload[frame.payload.size() / 2] ^= 0x20;
        out->push_back(std::move(frame));
        break;
    }
  }

  if (muted_) {
    // A hung process holds its socket open; even if the real peer dies
    // underneath, the coordinator must not get a free EOF signal — the
    // heartbeat deadline is the only detector a hang leaves working.
    if (status != RecvStatus::kOk) DropInner();
    return RecvStatus::kOk;
  }
  return status;
}

u64 FaultInjectingChannel::tx_bytes() const {
  return inner_ != nullptr ? inner_->tx_bytes() : tx_snapshot_;
}
u64 FaultInjectingChannel::rx_bytes() const {
  return inner_ != nullptr ? inner_->rx_bytes() : rx_snapshot_;
}
u64 FaultInjectingChannel::dropped_frames() const {
  return inner_ != nullptr ? inner_->dropped_frames() : dropped_snapshot_;
}
int FaultInjectingChannel::fd() const { return inner_ != nullptr ? inner_->fd() : -1; }

// ---------------------------------------------------------------------------
// FaultInjectingTransport
// ---------------------------------------------------------------------------

FaultInjectingTransport::FaultInjectingTransport(std::unique_ptr<Transport> inner, FaultSpec spec,
                                                 u64 seed)
    : inner_(std::move(inner)), spec_(std::move(spec)), seed_(seed) {}

std::vector<std::unique_ptr<WireChannel>> FaultInjectingTransport::Start(u32 num_shards) {
  std::vector<std::unique_ptr<WireChannel>> chans = inner_->Start(num_shards);
  for (u32 s = 0; s < chans.size(); ++s) {
    if (chans[s] == nullptr) continue;
    std::vector<FaultAction> actions = spec_.ForShard(s);
    if (actions.empty()) continue;
    // Per-slot rng stream: the same spec + seed fires identically run
    // over run, independent of fleet size.
    u64 slot_seed = seed_ ^ (0x9e3779b97f4a7c15ull * (static_cast<u64>(s) + 1));
    chans[s] = std::make_unique<FaultInjectingChannel>(std::move(chans[s]), std::move(actions),
                                                       slot_seed);
  }
  return chans;
}

void FaultInjectingTransport::Kill() { inner_->Kill(); }
void FaultInjectingTransport::KillSlot(u32 slot) { inner_->KillSlot(slot); }
void FaultInjectingTransport::Reap() { inner_->Reap(); }

}  // namespace retrace
