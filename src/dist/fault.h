// Deterministic fault injection for the distributed replay scheduler.
//
// Every recovery path in src/dist/ (heartbeat death, mid-search frontier
// re-deal, in-process fallback) exists because shards fail — and none of
// it is testable unless a failure can be staged on demand, repeatably.
// This layer decorates the coordinator side of a transport: a
// FaultInjectingChannel wraps a shard's WireChannel and, driven by a
// parsed ReplayConfig::fault_spec / RETRACE_FAULT_SPEC schedule, drops,
// delays, duplicates or corrupts frames, or closes / mutes the channel
// outright. Spec grammar (comma-separated clauses):
//
//   <target>:<action><trigger>
//   target  := all | shard<N>          (coordinator slot id)
//   action  := drop | delay | dup | corrupt | close | hang
//   trigger := @frame<N>               (the Nth frame received, N >= 1)
//            | %<P>                    (each frame with prob. P%, 1-100)
//
// e.g. "shard1:close@frame20,shard2:hang@frame5,all:corrupt%1".
//
// Semantics — all faults key on *incoming* frames (shard -> coordinator),
// counted in arrival order after reassembly, so a schedule is
// deterministic given the frame stream (probabilistic clauses draw from
// a splitmix64 stream seeded by ReplayConfig::seed and the slot id):
//
//   drop     the triggering frame is discarded.
//   delay    the triggering frame is held until the next Poll().
//   dup      the triggering frame is delivered twice.
//   corrupt  one payload byte of the triggering frame is flipped
//            (empty payloads are dropped instead). Real on-the-wire
//            corruption dies at the frame digest and kills the stream —
//            that is `close` territory; this corrupts *post-digest*, so
//            it exercises every payload decoder's hostile-input path
//            while the stream stays trusted.
//   close    from the triggering frame on, the channel reports kClosed
//            and the real fd closes (the shard process sees EOF) — a
//            crashed shard, as the coordinator experiences one.
//   hang     from the triggering frame on, the channel goes mute both
//            ways: incoming frames are read and discarded, outgoing
//            sends pretend success. A hung or partitioned shard — the
//            failure only a heartbeat deadline can detect.
//
// When several clauses trigger on the same frame, the first one in spec
// order applies. The decorator lives coordinator-side only: shards never
// see it, and fault_spec never ships in a job.
#ifndef RETRACE_DIST_FAULT_H_
#define RETRACE_DIST_FAULT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dist/transport.h"
#include "src/dist/wire.h"
#include "src/support/rng.h"

namespace retrace {

/// Target sentinel: the clause applies to every shard slot.
inline constexpr i32 kFaultAllShards = -1;

struct FaultAction {
  enum class Kind : u8 { kDrop, kDelay, kDup, kCorrupt, kClose, kHang };
  Kind kind = Kind::kDrop;
  // Exactly one trigger is set by the parser.
  u64 at_frame = 0;  // > 0: fires on the Nth incoming frame.
  u32 percent = 0;   // > 0: fires per frame with this probability (%).
};

/// A parsed fault schedule: ordered clauses, each targeting one shard
/// slot or every slot.
struct FaultSpec {
  struct Clause {
    i32 shard = kFaultAllShards;
    FaultAction action;
  };
  std::vector<Clause> clauses;

  bool empty() const { return clauses.empty(); }
  /// The actions that apply to shard slot `shard`, in spec order.
  std::vector<FaultAction> ForShard(u32 shard) const;
};

/// Strict parser for the grammar above. Empty text parses to an empty
/// spec. On failure returns false and (optionally) a human-readable
/// reason in `error`; `out` is left unspecified.
bool ParseFaultSpec(const std::string& text, FaultSpec* out, std::string* error = nullptr);

/// \brief Coordinator-side decorator that applies a fault schedule to
/// one shard's channel. Owns the wrapped channel; same thread-safety
/// contract as WireChannel (none).
class FaultInjectingChannel : public WireChannel {
 public:
  FaultInjectingChannel(std::unique_ptr<WireChannel> inner, std::vector<FaultAction> actions,
                        u64 seed);

  bool Send(WireMsg type, const std::vector<u8>& payload) override;
  bool Queue(WireMsg type, const std::vector<u8>& payload, bool droppable) override;
  RecvStatus Poll(int timeout_ms, std::vector<WireFrame>* out, int wake_fd = -1) override;

  u64 tx_bytes() const override;
  u64 rx_bytes() const override;
  u64 dropped_frames() const override;
  int fd() const override;

 private:
  // First action triggering on incoming frame number `frame_index`, or
  // null. Probabilistic triggers draw from rng_ (one draw per
  // percent-clause per frame, so schedules replay bit-identically).
  const FaultAction* Match(u64 frame_index);
  void DropInner();

  std::unique_ptr<WireChannel> inner_;
  std::vector<FaultAction> actions_;
  Rng rng_;
  u64 frames_seen_ = 0;
  bool closed_ = false;
  bool muted_ = false;
  std::vector<WireFrame> delayed_;
  // Counter snapshots so the honest wire report survives DropInner().
  u64 tx_snapshot_ = 0;
  u64 rx_snapshot_ = 0;
  u64 dropped_snapshot_ = 0;
};

/// \brief Transport decorator: starts the inner transport, then wraps
/// every channel whose slot the spec targets. Kill/KillSlot/Reap forward
/// — the real child processes are the inner transport's to manage.
class FaultInjectingTransport : public Transport {
 public:
  FaultInjectingTransport(std::unique_ptr<Transport> inner, FaultSpec spec, u64 seed);

  std::vector<std::unique_ptr<WireChannel>> Start(u32 num_shards) override;
  void Kill() override;
  void KillSlot(u32 slot) override;
  void Reap() override;

 private:
  std::unique_ptr<Transport> inner_;
  FaultSpec spec_;
  u64 seed_;
};

}  // namespace retrace

#endif  // RETRACE_DIST_FAULT_H_
