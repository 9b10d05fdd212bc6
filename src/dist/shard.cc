#include "src/dist/shard.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/solver/incremental.h"

namespace retrace {
namespace {

// Re-balance tuning. The watermark is per-worker: once fewer than ~2
// pendings per worker remain, a drained stack is imminent and the shard
// asks the fleet for work. A request takes at most kRebalanceBatch
// pooled entries from the donor, whose workers refill the pool when it
// runs short (FrontierPort::Export); after kMaxEmptyResponses
// consecutive empty (or timed-out) answers the shard stops holding its
// frontier open and lets normal termination proceed — re-arming if work
// ever reappears. After
// an empty answer the next request waits kRebalanceRetryMs: long enough
// for a donor's workers to reach their next pop and donate, and a tight
// request loop takes CPU from the searching workers.
constexpr u32 kRebalanceBatch = 16;
constexpr int kMaxEmptyResponses = 2;
constexpr i64 kRebalanceRetryMs = 2;

i64 NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One-shot "the search finished" latch the gossip pump polls next to its
// channel. Without it a pump blocked in a gossip-interval poll learns of
// the search's end only when the interval runs out. If the eventfd
// cannot be created, fd() is -1 and the pump falls back to waking on
// its cadence alone.
class DoneSignal {
 public:
  DoneSignal() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}
  DoneSignal(const DoneSignal&) = delete;
  DoneSignal& operator=(const DoneSignal&) = delete;
  ~DoneSignal() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  // Never cleared: the fd stays readable, which is what a latch means.
  void Set() {
    if (fd_ >= 0) {
      const u64 one = 1;
      [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
    }
  }
  int fd() const { return fd_; }

 private:
  int fd_;
};

// Ships every verdict journaled since the last drain. Returns the number
// of verdicts published (0 when there was nothing to send).
u64 PublishVerdicts(SliceCache* cache, WireChannel* chan) {
  WireVerdicts delta;
  cache->DrainJournal(&delta.sat, &delta.unsat);
  if (delta.sat.empty() && delta.unsat.empty()) {
    return 0;
  }
  WireWriter w;
  EncodeVerdicts(delta, &w);
  if (!chan->Send(WireMsg::kVerdicts, w.buf())) {
    return 0;
  }
  return delta.sat.size() + delta.unsat.size();
}

// Merges a gossiped verdict batch; returns how many verdicts it carried.
u64 MergeVerdicts(const WireFrame& frame, SliceCache* cache) {
  WireVerdicts verdicts;
  if (!DecodePayload(frame.payload, DecodeVerdicts, &verdicts)) {
    return 0;  // Digest-checked upstream; a decode failure is a peer bug.
  }
  const u64 n = verdicts.sat.size() + verdicts.unsat.size();
  for (SliceCache::SatEntry& entry : verdicts.sat) {
    cache->MergeSat(entry.key, std::move(entry.model));
  }
  for (const SliceCache::UnsatEntry& entry : verdicts.unsat) {
    cache->MergeUnsat(entry.key, entry.check);
  }
  return n;
}

// Answers a relayed kWorkRequest: sends pooled frontier entries (or an
// honest "nothing to spare yet") back to the coordinator, which routes
// them to the starved requester.
void AnswerWorkRequest(const WireFrame& frame, FrontierPort* port, WireChannel* chan) {
  WireWorkRequest request;
  WirePendingExport batch;
  if (DecodePayload(frame.payload, DecodeWorkRequest, &request)) {
    // Echo the requester's identity and sequence so the answer can be
    // matched against (exactly) the request it serves.
    batch.requester_shard_id = request.shard_id;
    batch.seq = request.seq;
    port->Export(std::min(request.want, kRebalanceBatch), &batch.pendings);
  }
  // Respond even when empty (or the request was malformed): the
  // requester's give-up counter depends on hearing an answer.
  WireWriter w;
  EncodePendingExport(batch, &w);
  chan->Send(WireMsg::kPendingExport, w.buf());
}

}  // namespace

ShardRunStatus RunShardOn(WireChannel& chan, const IrModule& module,
                          const InstrumentationPlan& plan, const BugReport& report,
                          const ReplayConfig& config, u32 expected_shard_id,
                          std::vector<WireFrame> preread, SliceCache* external_cache) {
  // ----- Handshake: hello, seed frontier, start. -----
  // Frames that legitimately follow kStart in the same read batch (a
  // verdict another shard proved before we finished starting, an early
  // stop, or re-balance traffic from an already-searching peer) are
  // carried over to the search phase, not treated as a protocol
  // violation.
  WireHello hello;
  bool have_hello = false;
  bool started = false;
  bool stopped_early = false;
  std::vector<PortablePending> seed_frontier;
  std::vector<WireFrame> carried_over;
  std::unordered_map<u64, std::vector<std::shared_ptr<const PortableTrace>>> trace_dedup;
  // Handshake silence deadline is fixed, not the configured heartbeat
  // timeout: the coordinator handshakes a TCP fleet serially, so a slow
  // peer ahead of us must not read as coordinator death.
  i64 handshake_silence_deadline = NowMs() + 60'000;
  while (!started) {
    // Frames the caller pre-read (bundled behind kJobBegin) come first;
    // only then does the channel get polled, preserving stream order.
    std::vector<WireFrame> frames = std::move(preread);
    preread.clear();
    if (frames.empty()) {
      if (NowMs() >= handshake_silence_deadline) {
        return ShardRunStatus::kCoordinatorLost;
      }
      const WireChannel::RecvStatus status = chan.Poll(1000, &frames);
      if (status == WireChannel::RecvStatus::kClosed) {
        return ShardRunStatus::kCoordinatorLost;
      }
      if (status != WireChannel::RecvStatus::kOk) {
        return ShardRunStatus::kProtocolError;  // Corrupt or version skew.
      }
    }
    if (!frames.empty()) {
      handshake_silence_deadline = NowMs() + 60'000;
    }
    for (WireFrame& frame : frames) {
      if (started) {
        carried_over.push_back(std::move(frame));
        continue;
      }
      switch (frame.type) {
        case WireMsg::kHello: {
          if (!DecodePayload(frame.payload, DecodeHello, &hello) ||
              (expected_shard_id != kAnyShardId && hello.shard_id != expected_shard_id)) {
            return ShardRunStatus::kProtocolError;
          }
          have_hello = true;
          break;
        }
        case WireMsg::kPending: {
          PortablePending pending;
          if (!DecodePayload(frame.payload, DecodePending, &pending)) {
            return ShardRunStatus::kProtocolError;
          }
          // Sibling pendings of one scouted run arrive as separate frames
          // but described the same trace before encoding; re-share a
          // structurally identical snapshot so the workers' per-trace
          // import memo works as well here as it does in-process. Equal
          // fingerprints alone are not trusted — the nodes are compared.
          const u64 fp = FingerprintConstraints(*pending.trace,
                                                pending.trace->constraints.size(),
                                                /*negate_last=*/false);
          bool shared = false;
          for (const auto& seen : trace_dedup[fp]) {
            if (seen->nodes == pending.trace->nodes &&
                seen->constraints == pending.trace->constraints) {
              pending.trace = seen;
              shared = true;
              break;
            }
          }
          if (!shared) {
            trace_dedup[fp].push_back(pending.trace);
          }
          seed_frontier.push_back(std::move(pending));
          break;
        }
        case WireMsg::kStart:
          started = true;
          break;
        case WireMsg::kStop:
          stopped_early = true;  // Race won elsewhere before we started.
          started = true;
          break;
        case WireMsg::kHeartbeat:
          break;  // Pure liveness; the deadline reset above consumed it.
        default:
          return ShardRunStatus::kProtocolError;
      }
    }
  }
  if (stopped_early) {
    return ShardRunStatus::kOk;
  }
  if (!have_hello || seed_frontier.size() != hello.pending_count) {
    return ShardRunStatus::kProtocolError;
  }

  // ----- Search, with the gossip pump on this thread. -----
  // The cache is externally owned for ServeShardJobs (cross-job
  // warmth), private otherwise; either way gossip journaling is on, and
  // a job with solver_cache off runs cache-less regardless.
  std::unique_ptr<SliceCache> owned_cache;
  SliceCache* cache = nullptr;
  if (config.solver_cache) {
    if (external_cache != nullptr) {
      cache = external_cache;
    } else {
      owned_cache = std::make_unique<SliceCache>(config.slice_cache_capacity);
      owned_cache->EnableJournal();
      cache = owned_cache.get();
    }
  }
  ReplayEngine engine(module, plan, report);
  FrontierPort port;
  ShardContext ctx;
  ctx.seed_frontier = std::move(seed_frontier);
  const u64 pendings_seeded = hello.pending_count;
  ctx.cache = cache;
  ctx.port = &port;
  // Distinct rng streams per shard: worker w of shard s draws from stream
  // s * 1024 + w + 1, so no two workers in the fleet share an initial
  // input — and none repeats the coordinator's scout (stream 0), whose
  // subtree already shipped as the seed frontier.
  ctx.rng_stream = static_cast<u64>(hello.shard_id) * 1024 + 1;
  // Corpus-seed partition key: shard s runs seeds with index
  // % num_shards == s, so the fleet covers the corpus without repeats.
  ctx.shard_id = hello.shard_id;
  ctx.num_shards = std::max(1u, hello.num_shards);

  // Re-balancing only makes sense with peers to trade with. Arm the
  // frontier hold *before* the search starts: a shard seeded with
  // nothing would otherwise drain, declare termination and exit in the
  // gap before the pump's first watermark check.
  const bool rebalance = hello.num_shards > 1;
  const u32 workers = ResolveReplayWorkers(config.num_workers);
  const size_t low_watermark = 2 * static_cast<size_t>(workers);
  if (rebalance) {
    port.HoldOpen();
  }

  ReplayResult result;
  std::atomic<bool> done{false};
  DoneSignal done_signal;
  std::thread search([&] {
    result = engine.ReproduceShard(config, &ctx);
    done.store(true, std::memory_order_release);
    done_signal.Set();
  });

  // The pump wakes on a frame, on the search's end, or when the next
  // timed duty (publish, heartbeat, paced work request) falls due —
  // never on a fixed nap.
  const int pump_ms = std::clamp(config.gossip_interval_ms, 1, 1000);
  const i64 response_timeout_ms = std::max<i64>(250, 10 * pump_ms);
  // Empty answers in the fleet's first moments mean "not ready", not
  // "nothing to spare": peers may still be handshaking or pre-attach
  // (their Export sees no frontier yet). Until this grace passes, empty
  // answers re-request without burning a give-up strike — otherwise a
  // zero-seeded shard could strike out against donors that were merely
  // slow to boot and idle away the whole search.
  const i64 strikes_armed_at_ms = NowMs() + 500;
  u64 verdicts_published = 0;
  u64 verdicts_imported = 0;
  u64 rebalance_rounds = 0;
  u64 rebalance_seq = 0;
  bool request_outstanding = false;
  i64 request_sent_ms = 0;
  i64 next_request_ms = 0;
  int empty_responses = 0;
  bool cancelled = false;
  bool channel_ok = true;
  // Liveness bookkeeping. Any received frame proves the coordinator
  // lives; our own kHeartbeat rides the same pump so the coordinator's
  // deadline sees us even when no verdict has been proved for a while.
  bool coordinator_lost = false;
  i64 last_heard_ms = NowMs();
  u64 heartbeat_seq = 0;
  i64 next_heartbeat_ms =
      config.heartbeat_interval_ms > 0 ? NowMs() + config.heartbeat_interval_ms : 0;
  // Carves that could not enter the frontier (search already over):
  // returned to the coordinator before kResult so the work stays in the
  // fleet instead of dying with this shard.
  std::vector<PortablePending> orphaned_imports;

  auto handle_frame = [&](const WireFrame& frame) {
    switch (frame.type) {
      case WireMsg::kStop:
        cancelled = true;
        port.Cancel();
        break;
      case WireMsg::kHeartbeat:
        break;  // Pure liveness; arrival already reset the deadline.
      case WireMsg::kVerdicts:
        if (cache != nullptr) {
          verdicts_imported += MergeVerdicts(frame, cache);
        }
        break;
      case WireMsg::kWorkRequest:
        // A starved peer, via the coordinator: we are the donor.
        AnswerWorkRequest(frame, &port, &chan);
        break;
      case WireMsg::kPendingExport: {
        WirePendingExport batch;
        if (!DecodePayload(frame.payload, DecodePendingExport, &batch)) {
          break;  // Digest-checked upstream; a decode failure is a peer bug.
        }
        // Only the echo of the request we are actually waiting on drives
        // the give-up state machine: a stale answer to a timed-out
        // request (or a returned carve relayed our way) must not clear
        // the outstanding flag or count as an empty strike.
        const bool matches_outstanding = request_outstanding &&
                                         batch.requester_shard_id == hello.shard_id &&
                                         batch.seq == rebalance_seq;
        if (matches_outstanding) {
          request_outstanding = false;
          if (!batch.pendings.empty()) {
            empty_responses = 0;
          } else {
            next_request_ms = NowMs() + kRebalanceRetryMs;
            if (NowMs() >= strikes_armed_at_ms) {
              ++empty_responses;
            }
          }
        }
        // Work is imported no matter whose answer it was — dropping
        // re-balanced pendings is never right. (The handle is copied in:
        // a failed Import must still own the pending to return it.)
        for (PortablePending& pending : batch.pendings) {
          if (!port.Import(PortablePending(pending))) {
            orphaned_imports.push_back(std::move(pending));
          }
        }
        break;
      }
      default:
        break;  // Unknown relay traffic is a peer bug, not ours to die on.
    }
  };

  // Frames that arrived bundled with the handshake are served first.
  for (const WireFrame& frame : carried_over) {
    handle_frame(frame);
  }
  carried_over.clear();
  while (channel_ok && !done.load(std::memory_order_acquire)) {
    const i64 now = NowMs();
    i64 wake_ms = now + pump_ms;
    if (config.heartbeat_interval_ms > 0) {
      wake_ms = std::min(wake_ms, next_heartbeat_ms);
    }
    if (next_request_ms > now) {
      wake_ms = std::min(wake_ms, next_request_ms);  // A paced request falls due.
    }
    std::vector<WireFrame> frames;
    const WireChannel::RecvStatus status = chan.Poll(
        static_cast<int>(std::max<i64>(0, wake_ms - now)), &frames, done_signal.fd());
    if (status != WireChannel::RecvStatus::kOk) {
      channel_ok = false;
      coordinator_lost = status == WireChannel::RecvStatus::kClosed;
      continue;
    }
    if (!frames.empty()) {
      last_heard_ms = NowMs();
    } else if (config.heartbeat_timeout_ms > 0 &&
               NowMs() - last_heard_ms > config.heartbeat_timeout_ms) {
      // The coordinator went silent past the deadline — hung, partitioned
      // or dead without the socket noticing. Same wind-down as a closed
      // channel, so a `--listen` daemon is never orphaned searching for
      // a fleet that no longer exists.
      channel_ok = false;
      coordinator_lost = true;
      continue;
    }
    for (const WireFrame& frame : frames) {
      handle_frame(frame);
    }
    if (cache != nullptr) {
      verdicts_published += PublishVerdicts(cache, &chan);
    }
    if (config.heartbeat_interval_ms > 0 && NowMs() >= next_heartbeat_ms) {
      WireWriter w;
      EncodeHeartbeat(WireHeartbeat{heartbeat_seq++}, &w);
      if (!chan.Send(WireMsg::kHeartbeat, w.buf())) {
        channel_ok = false;
        coordinator_lost = true;
        continue;
      }
      next_heartbeat_ms = NowMs() + config.heartbeat_interval_ms;
    }
    // ----- Re-balance state machine (requester side). -----
    if (rebalance && !cancelled) {
      const size_t frontier_size = port.size();
      if (frontier_size >= low_watermark) {
        empty_responses = 0;  // Work came back (ours or imported): re-arm.
      }
      if (request_outstanding && NowMs() - request_sent_ms > response_timeout_ms) {
        request_outstanding = false;  // Donor died or relay lost: count as empty.
        if (NowMs() >= strikes_armed_at_ms) {
          ++empty_responses;
        }
      }
      if (!request_outstanding) {
        if (empty_responses >= kMaxEmptyResponses) {
          // The fleet has nothing for us right now. Stop holding the
          // frontier open so a genuinely finished search can terminate;
          // the counter re-arms above if work reappears.
          port.ReleaseHold();
        } else if (frontier_size < low_watermark && NowMs() >= next_request_ms) {
          port.HoldOpen();
          ++rebalance_seq;
          WireWriter w;
          EncodeWorkRequest(
              WireWorkRequest{hello.shard_id, kRebalanceBatch, frontier_size, rebalance_seq},
              &w);
          if (chan.Send(WireMsg::kWorkRequest, w.buf())) {
            request_outstanding = true;
            request_sent_ms = NowMs();
            ++rebalance_rounds;
          } else {
            channel_ok = false;
          }
        }
      }
    }
  }
  if (!channel_ok) {
    // Coordinator is gone: searching on is pointless (nobody can hear
    // the answer) — cancel and wait for the workers to wind down.
    port.Cancel();
  }
  search.join();

  if (!channel_ok) {
    return coordinator_lost ? ShardRunStatus::kCoordinatorLost : ShardRunStatus::kProtocolError;
  }
  // Drain frames that raced against the search's end: late work
  // requests get an (empty — the frontier is gone) answer so peers'
  // give-up counters stay live, and re-balanced batches that can no
  // longer enter the frontier join the orphan list.
  {
    std::vector<WireFrame> tail;
    chan.Poll(0, &tail);
    for (const WireFrame& frame : tail) {
      if (frame.type == WireMsg::kWorkRequest || frame.type == WireMsg::kPendingExport) {
        handle_frame(frame);
      }
    }
  }
  // Return carves this shard could not use to the coordinator, which
  // re-routes them to a live peer — real pendings a donor removed from
  // its frontier must not die with us. The echo names us (seq 0), so no
  // receiver mistakes the batch for its own outstanding answer.
  if (!orphaned_imports.empty()) {
    WirePendingExport returned;
    returned.requester_shard_id = hello.shard_id;
    returned.seq = 0;
    returned.pendings = std::move(orphaned_imports);
    WireWriter w;
    EncodePendingExport(returned, &w);
    chan.Send(WireMsg::kPendingExport, w.buf());
  }
  // Final flush so a verdict proved in the last pump interval still
  // reaches slower shards, then the result.
  if (cache != nullptr) {
    verdicts_published += PublishVerdicts(cache, &chan);
  }
  result.stats.rebalance_rounds = rebalance_rounds;
  WireShardResult shard_result;
  shard_result.result = std::move(result);
  shard_result.verdicts_published = verdicts_published;
  shard_result.verdicts_imported = verdicts_imported;
  shard_result.pendings_seeded = pendings_seeded;
  WireWriter w;
  EncodeShardResult(shard_result, &w);
  if (!chan.Send(WireMsg::kResult, w.buf())) {
    return ShardRunStatus::kCoordinatorLost;
  }
  return ShardRunStatus::kOk;
}

namespace {

// The shard loop behind both ServeShardJobs forms. `inherited` is the
// fork child's module; null means rebuild each job's module from the
// sources it ships.
ShardRunStatus ServeJobs(WireChannel& chan, const IrModule* inherited, u32 expected_shard_id,
                         u32 worker_override) {
  // Persists across jobs: the whole point of a standing shard. Sized by
  // the first cache-enabled job (later capacity changes are ignored —
  // resizing a warm cache would throw away exactly the warmth a
  // duplicate-cluster report came back for).
  std::unique_ptr<SliceCache> cache;
  u64 jobs_served = 0;
  std::vector<WireFrame> frames;
  for (;;) {
    if (frames.empty()) {
      // Between jobs a shard waits indefinitely; the fleet owns the
      // lifecycle and ends it with kJobEnd or by closing the channel.
      const WireChannel::RecvStatus status = chan.Poll(1000, &frames);
      if (status == WireChannel::RecvStatus::kClosed) {
        // A vanished coordinator after at least one served job is an
        // abrupt-but-survivable teardown; before any job it is a failure.
        return jobs_served > 0 ? ShardRunStatus::kOk : ShardRunStatus::kCoordinatorLost;
      }
      if (status != WireChannel::RecvStatus::kOk) {
        return ShardRunStatus::kProtocolError;
      }
      continue;
    }
    WireFrame frame = std::move(frames.front());
    frames.erase(frames.begin());
    switch (frame.type) {
      case WireMsg::kJobEnd:
        return ShardRunStatus::kOk;
      case WireMsg::kHeartbeat:
      case WireMsg::kVerdicts:
      case WireMsg::kStop:
      case WireMsg::kPendingExport:
        // Tail relay traffic from a job that ended for us but not for
        // the fleet (slower peers still gossiping). Nothing to do with
        // it between jobs.
        continue;
      case WireMsg::kWorkRequest: {
        // Honest "nothing to spare" so a starved peer's give-up counter
        // keeps moving even when the donor the relay picked is idle.
        WireWorkRequest request;
        WirePendingExport batch;
        if (DecodePayload(frame.payload, DecodeWorkRequest, &request)) {
          batch.requester_shard_id = request.shard_id;
          batch.seq = request.seq;
        }
        WireWriter w;
        EncodePendingExport(batch, &w);
        chan.Send(WireMsg::kPendingExport, w.buf());
        continue;
      }
      case WireMsg::kJobBegin:
        break;  // A job — handled below.
      default:
        return ShardRunStatus::kProtocolError;
    }
    WireJobBegin begin;
    {
      if (!DecodePayload(frame.payload, DecodeJobBegin, &begin)) {
        return ShardRunStatus::kProtocolError;
      }
    }
    WireJob& job = begin.job;
    if (worker_override > 0) {
      job.config.num_workers = worker_override;
    }
    const IrModule* module = inherited;
    std::unique_ptr<Pipeline> pipeline;
    if (module == nullptr) {
      if (job.config.program.app.empty()) {
        return ShardRunStatus::kProtocolError;
      }
      auto built = Pipeline::FromSources(job.config.program.app, job.config.program.libs);
      if (!built.ok()) {
        return ShardRunStatus::kProtocolError;  // Source skew between builds.
      }
      pipeline = built.take();
      module = &pipeline->module();
    }
    SliceCache* job_cache = nullptr;
    if (job.config.solver_cache) {
      if (cache == nullptr) {
        cache = std::make_unique<SliceCache>(job.config.slice_cache_capacity);
        cache->EnableJournal();
      }
      job_cache = cache.get();
    }
    // Frames pipelined behind kJobBegin (kPending/kHello/kStart) are
    // handed through so nothing already parsed is lost.
    const ShardRunStatus status = RunShardOn(chan, *module, job.plan, job.report, job.config,
                                             expected_shard_id, std::move(frames), job_cache);
    frames.clear();
    if (status != ShardRunStatus::kOk) {
      return status;
    }
    ++jobs_served;
  }
}

}  // namespace

ShardRunStatus ServeShardJobs(int fd, const std::string& ident, u32 worker_override,
                              const std::string& token) {
  WireChannel chan(fd);
  WireWriter join_writer;
  EncodeJoin(WireJoin{ident, worker_override, token}, &join_writer);
  if (!chan.Send(WireMsg::kJoin, join_writer.buf())) {
    return ShardRunStatus::kCoordinatorLost;
  }
  return ServeJobs(chan, nullptr, kAnyShardId, worker_override);
}

ShardRunStatus ServeShardJobs(int fd, const IrModule& module, u32 slot) {
  WireChannel chan(fd);
  return ServeJobs(chan, &module, slot, 0);
}

}  // namespace retrace
