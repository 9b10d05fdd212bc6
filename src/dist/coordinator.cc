#include "src/dist/coordinator.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <utility>
#include <vector>

#include "src/dist/fleet.h"
#include "src/dist/wire.h"

namespace retrace {
namespace {

// Grace period past the configured wall budget before the coordinator
// hard-kills shards that stopped responding.
constexpr i64 kKillGraceMs = 30'000;

// Recovered pendings re-inject in batches of this many per
// kPendingExport frame — small enough to interleave with gossip, far
// under the decoder's kMaxWorkRequestWant ceiling.
constexpr u32 kRecoverBatch = 64;

i64 NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ShardProc {
  WireChannel* chan = nullptr;  // Fleet-owned; nulled before FinishJob.
  bool done = false;
  bool have_result = false;
  bool lost = false;           // Died, hung or broke before delivering kResult.
  u64 heartbeats_missed = 0;   // 1 when the heartbeat deadline declared it dead.
  u64 recovered_from = 0;      // Pendings re-injected after this shard's death.
  i64 last_heard_ms = 0;       // Any received frame counts as liveness.
  u64 wire_tx = 0;             // This job's bytes: the channel's counters at
  u64 wire_rx = 0;             // attach, then their growth at job end.
  WireShardResult res;
};

// One entry of the per-shard pending-ownership ledger: a pending the
// coordinator believes shard `holder` is responsible for, keyed by the
// same constraint fingerprint the shards' dedup uses. The ledger is the
// recovery source of truth: seeded partitions and every re-balance
// carve move through it, a clean kResult clears it, and a death
// re-injects whatever is still unaccounted (at-least-once — a copy the
// receiving search already tried dies in its per-pop `tried` dedup,
// which every shared-frontier search in RunSearch runs).
struct LedgerEntry {
  u64 fp = 0;
  PortablePending pending;
};

u64 PendingFingerprint(const PortablePending& p) {
  return FingerprintConstraints(*p.trace, p.len, p.negate_last);
}

// Counts the verdicts in a batch without decoding it (no allocations on
// the relay hot path — the payload is forwarded verbatim anyway).
u64 CountVerdicts(const WireFrame& frame) {
  WireReader r(frame.payload.data(), frame.payload.size());
  u32 sat_count = 0;
  if (!r.U32(&sat_count) || !r.FitsCount(sat_count, 8 + 4)) {
    return 0;
  }
  for (u32 i = 0; i < sat_count; ++i) {
    u64 key = 0;
    u32 model_count = 0;
    if (!r.U64(&key) || !r.U32(&model_count) || !r.Skip(static_cast<size_t>(model_count) * 12)) {
      return 0;
    }
  }
  u32 unsat_count = 0;
  if (!r.U32(&unsat_count) || !r.FitsCount(unsat_count, 16)) {
    return 0;
  }
  return static_cast<u64>(sat_count) + unsat_count;
}

}  // namespace

ReplayResult RunDistributedJob(const IrModule& module, const InstrumentationPlan& plan,
                               const BugReport& report, const ReplayConfig& config,
                               ShardFleet& fleet) {
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed_seconds = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  const u32 num_shards = fleet.num_shards();

  // ----- 1. Scout: grow (or finish) the frontier in-process. -----
  // A short one-worker DFS with a cache of its own, no corpus seeds. It
  // stops once the frontier is wide enough to deal out.
  ReplayEngine scout(module, plan, report);
  ReplayConfig scout_cfg = config;
  scout_cfg.num_shards = 1;
  scout_cfg.pick = ReplayConfig::Pick::kDfs;
  scout_cfg.corpus_seeds.clear();
  scout_cfg.max_runs = std::min<u64>(std::max<u64>(4, 2 * num_shards), config.max_runs);
  std::vector<PortablePending> frontier;
  ReplayResult result = scout.Scout(scout_cfg, /*target_frontier=*/4 * num_shards, &frontier);
  result.stats.harvest_runs = result.stats.runs;
  if (result.reproduced || result.stats.runs >= config.max_runs || frontier.empty()) {
    // Solved it, exhausted the run cap, or there is nothing to shard
    // (frontier drained — the search space is smaller than the scout).
    result.budget_exhausted = !result.reproduced;
    result.wall_seconds = elapsed_seconds();
    return result;
  }
  // Shards re-aggregate their own per-worker view; the scout's counters
  // stay in the aggregate, labelled by harvest_runs.
  result.stats.per_worker.clear();

  // ----- 2. Partition: deepest-first, dealt round-robin. -----
  std::stable_sort(frontier.begin(), frontier.end(),
                   [](const PortablePending& a, const PortablePending& b) {
                     return a.priority > b.priority;
                   });
  std::vector<std::vector<PortablePending>> parts(num_shards);
  for (size_t i = 0; i < frontier.size(); ++i) {
    parts[i % num_shards].push_back(std::move(frontier[i]));
  }

  // Per-shard budget: the remaining run cap and step budget divided
  // evenly; the wall clock is global, minus what the scout spent.
  ReplayConfig shard_cfg = config;
  shard_cfg.num_shards = 1;
  // Clamp the corpus to what the job codec accepts, or every shard
  // would reject the job at decode.
  if (shard_cfg.corpus_seeds.size() > kMaxJobCorpusSeeds) {
    std::fprintf(stderr, "[dist] corpus_seeds clamped from %zu to %u (wire job ceiling)\n",
                 shard_cfg.corpus_seeds.size(), kMaxJobCorpusSeeds);
    shard_cfg.corpus_seeds.resize(kMaxJobCorpusSeeds);
  }
  u64 corpus_cells = 0;
  for (size_t i = 0; i < shard_cfg.corpus_seeds.size();) {
    const size_t cells = shard_cfg.corpus_seeds[i].size();
    if (cells > kMaxJobCorpusCells || corpus_cells + cells > kMaxJobCorpusTotalCells) {
      std::fprintf(stderr,
                   "[dist] corpus seed %zu dropped: %zu cells over the wire ceiling "
                   "(per-seed or total)\n",
                   i, cells);
      shard_cfg.corpus_seeds.erase(shard_cfg.corpus_seeds.begin() +
                                   static_cast<std::ptrdiff_t>(i));
    } else {
      corpus_cells += cells;
      ++i;
    }
  }
  shard_cfg.max_runs = std::max<u64>(1, (config.max_runs - result.stats.runs) / num_shards);
  shard_cfg.total_steps = std::max<u64>(1, config.total_steps / num_shards);
  if (config.wall_ms > 0) {
    shard_cfg.wall_ms =
        std::max<i64>(1, config.wall_ms - static_cast<i64>(elapsed_seconds() * 1000.0));
  }

  // ----- 3. Attach the job to the shard fleet. -----
  std::vector<ShardFleet::JobChannel> channels = fleet.AttachJob(shard_cfg, plan, report);
  channels.resize(num_shards);
  std::vector<ShardProc> procs(num_shards);
  for (u32 s = 0; s < num_shards; ++s) {
    procs[s].wire_tx = channels[s].tx_before;
    procs[s].wire_rx = channels[s].rx_before;
    if (channels[s].chan != nullptr) {
      procs[s].chan = channels[s].chan;
    } else {
      procs[s].done = true;
    }
  }

  // A shard that failed to spawn must not silently orphan its frontier
  // partition (the reproducing input may live only in that subtree):
  // re-deal dead shards' entries round-robin over the live ones.
  std::vector<u32> live;
  for (u32 s = 0; s < num_shards; ++s) {
    if (!procs[s].done && procs[s].chan != nullptr) {
      live.push_back(s);
    }
  }
  if (live.empty()) {
    // The whole fleet failed to spawn: the scout's result is all we have.
    fleet.FinishJob(std::vector<bool>(num_shards, false));
    result.budget_exhausted = !result.reproduced;
    result.wall_seconds = elapsed_seconds();
    return result;
  }
  if (live.size() < num_shards) {
    size_t deal = 0;
    for (u32 s = 0; s < num_shards; ++s) {
      if (procs[s].chan != nullptr && !procs[s].done) {
        continue;
      }
      for (PortablePending& pending : parts[s]) {
        parts[live[deal++ % live.size()]].push_back(std::move(pending));
      }
      parts[s].clear();
    }
  }

  // Handshake, pendings first: shards buffer kPending frames in any
  // order and only reconcile the count against kHello at kStart, so the
  // coordinator can still re-deal a partition whose shard breaks during
  // the sends — the same no-orphaned-subtree invariant as above, for
  // failures detected after fork. All coordinator traffic is queued
  // non-blocking (flushed on every Poll), so the relay loop below can
  // never stall in a write while a shard stalls writing to us.
  // Sweeps converge: a sweep only repeats after a send failure, and each
  // failure permanently removes one shard from the rotation.
  std::vector<u64> pendings_queued(num_shards, 0);
  for (bool redealt = true; redealt;) {
    redealt = false;
    for (const u32 s : live) {
      if (procs[s].done) {
        continue;
      }
      WireChannel& chan = *procs[s].chan;
      while (pendings_queued[s] < parts[s].size()) {
        WireWriter w;
        EncodePending(parts[s][pendings_queued[s]], &w);
        if (!chan.Queue(WireMsg::kPending, w.buf(), /*droppable=*/false)) {
          procs[s].done = true;
          procs[s].lost = true;
          // The whole partition re-deals round-robin to the shards still
          // standing, prefix included: frames queued into a channel that
          // broke mid-sweep were never delivered (the shard dies without
          // kHello/kStart, so nothing here can run twice).
          std::vector<u32> targets;
          for (const u32 other : live) {
            if (other != s && !procs[other].done) {
              targets.push_back(other);
            }
          }
          for (size_t j = 0, deal = 0; j < parts[s].size() && !targets.empty(); ++j, ++deal) {
            parts[targets[deal % targets.size()]].push_back(std::move(parts[s][j]));
            redealt = true;
          }
          parts[s].clear();
          pendings_queued[s] = 0;
          break;
        }
        ++pendings_queued[s];
      }
    }
  }
  for (const u32 s : live) {
    if (procs[s].done) {
      continue;
    }
    WireChannel& chan = *procs[s].chan;
    WireWriter hello;
    EncodeHello(WireHello{s, num_shards, static_cast<u32>(pendings_queued[s])}, &hello);
    if (!chan.Queue(WireMsg::kHello, hello.buf(), /*droppable=*/false) ||
        !chan.Queue(WireMsg::kStart, {}, /*droppable=*/false)) {
      procs[s].done = true;
      procs[s].lost = true;  // Its ledger recovers below, pre-relay.
    }
  }

  // ----- Ownership ledger: what each shard must answer for. -----
  // Seeded from the final partition (parts[s] still holds exactly what
  // was queued to s after every re-deal above); re-balance carves move
  // entries between shards as the relay routes them, a clean kResult
  // clears a shard's column, and a death re-injects the remainder.
  std::vector<std::vector<LedgerEntry>> ledger(num_shards);
  for (u32 s = 0; s < num_shards; ++s) {
    ledger[s].reserve(parts[s].size());
    for (PortablePending& pending : parts[s]) {
      ledger[s].push_back(LedgerEntry{PendingFingerprint(pending), std::move(pending)});
    }
    parts[s].clear();
  }

  // ----- 4. Relay loop: gossip verdicts, route re-balance traffic,
  // watch for the first crash. -----
  bool have_winner = false;
  u32 winner = 0;
  u64 verdicts_gossiped = 0;
  // Ledger entries whose every possible home is dead: the in-process
  // fallback search (step 6) runs these if nobody reproduced the crash.
  std::vector<PortablePending> orphan_pool;
  auto broadcast_stop = [&](u32 except) {
    for (u32 s = 0; s < num_shards; ++s) {
      if (s != except && !procs[s].done && procs[s].chan != nullptr) {
        procs[s].chan->Queue(WireMsg::kStop, {}, /*droppable=*/false);
      }
    }
  };

  // Re-balance routing: a starved shard's kWorkRequest is forwarded to a
  // donor (round-robin over the other live shards); the donor's
  // kPendingExport answer routes back to whoever asked it first
  // (per-donor FIFO — a donor answers requests in arrival order). The
  // FIFO records the request's sequence number so answers the
  // coordinator fabricates on a dead donor's behalf still carry the
  // echo the requester's state machine matches on.
  struct PendingRequest {
    u32 requester = 0;
    u64 seq = 0;
  };
  std::vector<std::deque<PendingRequest>> donor_queue(num_shards);
  u32 donor_rr = 0;
  auto send_empty_export = [&](const PendingRequest& request) {
    if (procs[request.requester].done || procs[request.requester].chan == nullptr) {
      return;
    }
    WirePendingExport empty;
    empty.requester_shard_id = request.requester;
    empty.seq = request.seq;
    WireWriter w;
    EncodePendingExport(empty, &w);
    // Liveness, not best-effort: the requester's give-up counter waits
    // on hearing an answer.
    procs[request.requester].chan->Queue(WireMsg::kPendingExport, w.buf(),
                                         /*droppable=*/false);
  };
  // Moves ownership of every pending a routed kPendingExport carries
  // from `from`'s ledger column to `to`'s, so recovery always re-injects
  // from the column of the shard that actually held the work. A pending
  // the `from` column does not know (work the shard discovered itself
  // and is now exporting) starts being tracked at the receiver — the
  // first moment the coordinator can know it exists.
  auto transfer_ledger = [&](u32 from, u32 to, const WireFrame& frame) {
    WirePendingExport batch;
    if (!DecodePayload(frame.payload, DecodePendingExport, &batch)) {
      return;  // Digest-checked upstream; tracked best-effort.
    }
    for (PortablePending& pending : batch.pendings) {
      const u64 fp = PendingFingerprint(pending);
      bool moved = false;
      for (size_t i = 0; i < ledger[from].size(); ++i) {
        if (ledger[from][i].fp == fp) {
          ledger[to].push_back(std::move(ledger[from][i]));
          ledger[from].erase(ledger[from].begin() + static_cast<std::ptrdiff_t>(i));
          moved = true;
          break;
        }
      }
      if (!moved) {
        ledger[to].push_back(LedgerEntry{fp, std::move(pending)});
      }
    }
  };
  auto route_work_request = [&](u32 requester, const WireFrame& frame) {
    WireWorkRequest request;
    if (!DecodePayload(frame.payload, DecodeWorkRequest, &request)) {
      return;  // Digest-checked upstream; a malformed request is a peer bug.
    }
    const PendingRequest pending{requester, request.seq};
    for (u32 step = 0; step < num_shards; ++step) {
      const u32 donor = (donor_rr + step) % num_shards;
      if (donor == requester || procs[donor].done || procs[donor].chan == nullptr) {
        continue;
      }
      donor_rr = donor + 1;
      donor_queue[donor].push_back(pending);
      procs[donor].chan->Queue(WireMsg::kWorkRequest, frame.payload, /*droppable=*/false);
      return;
    }
    send_empty_export(pending);  // Nobody left to donate.
  };
  // A shard that finishes (or dies) while peers wait on it as a donor
  // must not leave them hanging: answer on its behalf.
  auto flush_donor_queue = [&](u32 donor) {
    for (const PendingRequest& request : donor_queue[donor]) {
      send_empty_export(request);
    }
    donor_queue[donor].clear();
  };
  // Re-homes a batch of real pendings whose addressee is gone: any live
  // shard's pump imports unsolicited batches. Only when nobody at all
  // is left does the carve die (the fleet is ending anyway).
  auto reroute_export = [&](u32 from, const WireFrame& frame) {
    for (u32 step = 0; step < num_shards; ++step) {
      const u32 target = (donor_rr + step) % num_shards;
      if (target == from || procs[target].done || procs[target].chan == nullptr) {
        continue;
      }
      donor_rr = target + 1;
      procs[target].chan->Queue(WireMsg::kPendingExport, frame.payload, /*droppable=*/false);
      transfer_ledger(from, target, frame);
      return;
    }
    // No peer left: hand it back to the sender if it still searches
    // (e.g. a donor whose requester died in a 2-shard fleet).
    if (!procs[from].done && procs[from].chan != nullptr) {
      procs[from].chan->Queue(WireMsg::kPendingExport, frame.payload, /*droppable=*/false);
    }
  };
  // Reads just enough of a kPendingExport payload to tell whether it
  // carries any pendings (re-routing empty answers would be noise).
  auto export_carries_work = [](const WireFrame& frame) {
    WireReader r(frame.payload.data(), frame.payload.size());
    u32 requester = 0;
    u64 seq = 0;
    u32 count = 0;
    return r.U32(&requester) && r.U64(&seq) && r.U32(&count) && count > 0;
  };
  // Re-injects a dead shard's unaccounted ledger column into the live
  // fleet as unsolicited kPendingExport batches (seq 0 — matches no
  // requester's outstanding answer; the pumps import unsolicited work
  // unconditionally). At-least-once by design: a pending the receiver
  // already tried dies in its search's per-pop `tried` dedup, one only
  // the dead shard ran costs one re-run, and the one pending that held
  // the reproducing input is guaranteed a new home. With nobody live the
  // column moves to the orphan pool for the in-process fallback.
  auto recover_ledger = [&](u32 dead) {
    if (ledger[dead].empty()) {
      return;
    }
    std::vector<u32> targets;
    for (u32 t = 0; t < num_shards; ++t) {
      if (t != dead && !procs[t].done && procs[t].chan != nullptr) {
        targets.push_back(t);
      }
    }
    const u64 column = ledger[dead].size();
    if (targets.empty()) {
      for (LedgerEntry& entry : ledger[dead]) {
        orphan_pool.push_back(std::move(entry.pending));
      }
      ledger[dead].clear();
      procs[dead].recovered_from += column;
      return;
    }
    size_t rr = 0;
    size_t i = 0;
    while (i < ledger[dead].size()) {
      const u32 target = targets[rr++ % targets.size()];
      WirePendingExport batch;
      batch.requester_shard_id = target;
      batch.seq = 0;
      const size_t end = std::min(i + kRecoverBatch, ledger[dead].size());
      for (size_t j = i; j < end; ++j) {
        batch.pendings.push_back(ledger[dead][j].pending);
      }
      WireWriter w;
      EncodePendingExport(batch, &w);
      procs[target].chan->Queue(WireMsg::kPendingExport, w.buf(), /*droppable=*/false);
      for (size_t j = i; j < end; ++j) {
        ledger[target].push_back(std::move(ledger[dead][j]));
      }
      i = end;
    }
    ledger[dead].clear();
    procs[dead].recovered_from += column;
    std::fprintf(stderr, "[dist] shard %u lost: re-injected %llu pending(s) into %zu survivor(s)\n",
                 dead, static_cast<unsigned long long>(column), targets.size());
  };
  // Single exit for every way a shard dies mid-search (closed channel,
  // corrupt stream, missed heartbeat deadline): stop talking to it,
  // recover what it owned, and answer requests waiting on it as a donor.
  auto declare_lost = [&](u32 s, bool heartbeat_death) {
    ShardProc& proc = procs[s];
    if (proc.done) {
      return;
    }
    proc.done = true;
    proc.lost = true;
    if (heartbeat_death) {
      proc.heartbeats_missed = 1;
      std::fprintf(stderr, "[dist] shard %u missed its heartbeat deadline (%d ms): declared dead\n",
                   s, config.heartbeat_timeout_ms);
    }
    if (!have_winner) {
      recover_ledger(s);
    } else {
      ledger[s].clear();  // Race already won; nothing left worth re-running.
    }
    flush_donor_queue(s);
  };

  // Shards that broke while the handshake was still queueing never reach
  // the relay loop's loss path: recover their columns before the search.
  for (u32 s = 0; s < num_shards; ++s) {
    if (procs[s].lost) {
      recover_ledger(s);
    }
  }

  const i64 kill_after_ms = config.wall_ms > 0 ? config.wall_ms + kKillGraceMs : -1;
  // Liveness: the coordinator rides its own kHeartbeat down every
  // channel on this cadence, and any frame a shard sends resets that
  // shard's silence clock. The clocks start now — transport Start() can
  // legitimately spend seconds handshaking a TCP fleet.
  u64 heartbeat_seq = 0;
  i64 next_heartbeat_ms =
      config.heartbeat_interval_ms > 0 ? NowMs() + config.heartbeat_interval_ms : 0;
  const i64 relay_start_ms = NowMs();
  for (ShardProc& proc : procs) {
    proc.last_heard_ms = relay_start_ms;
  }
  std::vector<struct pollfd> pfds;
  for (;;) {
    // One poll() over every open channel (not a per-channel timeout, so
    // relay latency stays flat in the shard count), then a non-blocking
    // drain+flush per channel.
    pfds.clear();
    for (u32 s = 0; s < num_shards; ++s) {
      if (!procs[s].done && procs[s].chan != nullptr) {
        struct pollfd pfd = {};
        pfd.fd = procs[s].chan->fd();
        pfd.events = POLLIN;
        pfds.push_back(pfd);
      }
    }
    if (!pfds.empty()) {
      ::poll(pfds.data(), pfds.size(), 10);
    }
    // Heartbeats ride the relay cadence, droppable: a channel backlogged
    // enough to shed one is moving real frames, which proves the same
    // thing a heartbeat would.
    if (config.heartbeat_interval_ms > 0 && NowMs() >= next_heartbeat_ms) {
      WireWriter hb;
      EncodeHeartbeat(WireHeartbeat{heartbeat_seq++}, &hb);
      for (u32 s = 0; s < num_shards; ++s) {
        if (!procs[s].done && procs[s].chan != nullptr) {
          procs[s].chan->Queue(WireMsg::kHeartbeat, hb.buf(), /*droppable=*/true);
        }
      }
      next_heartbeat_ms = NowMs() + config.heartbeat_interval_ms;
    }
    bool any_open = false;
    for (u32 s = 0; s < num_shards; ++s) {
      ShardProc& proc = procs[s];
      if (proc.done || proc.chan == nullptr) {
        continue;
      }
      any_open = true;
      std::vector<WireFrame> frames;
      const WireChannel::RecvStatus status = proc.chan->Poll(0, &frames);
      if (!frames.empty()) {
        proc.last_heard_ms = NowMs();
      }
      for (const WireFrame& frame : frames) {
        if (frame.type == WireMsg::kVerdicts) {
          verdicts_gossiped += CountVerdicts(frame);
          for (u32 peer = 0; peer < num_shards; ++peer) {
            if (peer != s && !procs[peer].done && procs[peer].chan != nullptr) {
              // Best-effort: a relay dropped under backpressure only
              // costs that peer a re-prove.
              procs[peer].chan->Queue(WireMsg::kVerdicts, frame.payload, /*droppable=*/true);
            }
          }
        } else if (frame.type == WireMsg::kWorkRequest) {
          route_work_request(s, frame);
        } else if (frame.type == WireMsg::kPendingExport) {
          if (!donor_queue[s].empty()) {
            // Donor answered: forward verbatim to the requester at the
            // head of this donor's FIFO. A requester that finished
            // while the answer was in flight — common when a frontier
            // drains moments before its crash lands — must not take
            // the carve down with it: re-home real pendings to any
            // live shard (pumps import unsolicited batches).
            const PendingRequest request = donor_queue[s].front();
            donor_queue[s].pop_front();
            if (!procs[request.requester].done &&
                procs[request.requester].chan != nullptr) {
              procs[request.requester].chan->Queue(WireMsg::kPendingExport, frame.payload,
                                                   /*droppable=*/false);
              transfer_ledger(s, request.requester, frame);
            } else if (export_carries_work(frame)) {
              reroute_export(s, frame);
            }
          } else if (export_carries_work(frame)) {
            // Unsolicited: a finishing shard returned a carve it could
            // no longer use. Keep the work in the fleet.
            reroute_export(s, frame);
          }
        } else if (frame.type == WireMsg::kResult) {
          if (DecodePayload(frame.payload, DecodeShardResult, &proc.res)) {
            proc.have_result = true;
            if (proc.res.result.reproduced && !have_winner) {
              have_winner = true;
              winner = s;
              broadcast_stop(s);
            }
          }
          proc.done = true;
          // A delivered result accounts for everything the shard owned.
          ledger[s].clear();
        }
      }
      if (!proc.done && status != WireChannel::RecvStatus::kOk) {
        declare_lost(s, /*heartbeat_death=*/false);  // Died or untrustworthy.
      }
      if (proc.done) {
        flush_donor_queue(s);
      }
    }
    // Silence past the deadline is death the socket cannot report: a
    // shard wedged mid-run (or muted by fault injection) holds its fd
    // open forever.
    if (config.heartbeat_timeout_ms > 0) {
      const i64 now = NowMs();
      for (u32 s = 0; s < num_shards; ++s) {
        if (!procs[s].done && procs[s].chan != nullptr &&
            now - procs[s].last_heard_ms > config.heartbeat_timeout_ms) {
          declare_lost(s, /*heartbeat_death=*/true);
        }
      }
    }
    if (!any_open) {
      break;
    }
    if (kill_after_ms > 0 && elapsed_seconds() * 1000.0 > static_cast<double>(kill_after_ms)) {
      fleet.KillAll();
      for (ShardProc& proc : procs) {
        if (!proc.done && proc.chan != nullptr) {
          proc.lost = true;  // Wall-overrun stragglers, killed unheard.
        }
        proc.done = true;
      }
      break;
    }
  }
  // Return the channels to the fleet: take this job's share of the byte
  // counters first (the fleet destroys the channels of lost slots and
  // keeps the survivors for the next job) and tell it which slots broke
  // so it can kill/retire them.
  std::vector<bool> lost_slots(num_shards, false);
  for (u32 s = 0; s < num_shards; ++s) {
    lost_slots[s] = procs[s].lost;
    if (procs[s].chan != nullptr) {
      procs[s].wire_tx = procs[s].chan->tx_bytes() - procs[s].wire_tx;
      procs[s].wire_rx = procs[s].chan->rx_bytes() - procs[s].wire_rx;
      procs[s].chan = nullptr;
    }
  }
  fleet.FinishJob(lost_slots);

  // ----- 5. Shard-aware aggregation. -----
  for (u32 s = 0; s < num_shards; ++s) {
    const ShardProc& proc = procs[s];
    ReplayShardStats shard_stats;
    shard_stats.shard_id = s;
    shard_stats.lost = proc.lost;
    shard_stats.heartbeats_missed = proc.heartbeats_missed;
    shard_stats.pendings_recovered = proc.recovered_from;
    if (proc.lost) {
      result.stats.shards_lost += 1;
      if (!proc.have_result) {
        // The shard never reported; the coordinator's send-side count is
        // the honest value for what it was seeded with.
        shard_stats.pendings_seeded = pendings_queued[s];
      }
    }
    result.stats.pendings_recovered += proc.recovered_from;
    result.stats.heartbeats_missed += proc.heartbeats_missed;
    shard_stats.wire_bytes_tx = proc.wire_tx;
    shard_stats.wire_bytes_rx = proc.wire_rx;
    result.stats.wire_bytes_tx += shard_stats.wire_bytes_tx;
    result.stats.wire_bytes_rx += shard_stats.wire_bytes_rx;
    if (proc.have_result) {
      const ReplayStats& ss = proc.res.result.stats;
      shard_stats.reproduced = proc.res.result.reproduced;
      shard_stats.runs = ss.runs;
      shard_stats.solver_calls = ss.solver_calls;
      shard_stats.pendings_seeded = proc.res.pendings_seeded;
      shard_stats.verdicts_published = proc.res.verdicts_published;
      shard_stats.verdicts_imported = proc.res.verdicts_imported;
      shard_stats.pendings_exported = ss.pendings_exported;
      shard_stats.pendings_imported = ss.pendings_imported;
      shard_stats.rebalance_rounds = ss.rebalance_rounds;
      shard_stats.wall_seconds = proc.res.result.wall_seconds;
      result.stats.runs += ss.runs;
      result.stats.solver_calls += ss.solver_calls;
      result.stats.aborts_forced_direction += ss.aborts_forced_direction;
      result.stats.aborts_concrete_mismatch += ss.aborts_concrete_mismatch;
      result.stats.aborts_log_exhausted += ss.aborts_log_exhausted;
      result.stats.crashes_wrong_site += ss.crashes_wrong_site;
      result.stats.steals += ss.steals;
      result.stats.dedup_skips += ss.dedup_skips;
      result.stats.cancelled_runs += ss.cancelled_runs;
      result.stats.slices_solved += ss.slices_solved;
      result.stats.slice_sat_hits += ss.slice_sat_hits;
      result.stats.slice_unsat_hits += ss.slice_unsat_hits;
      result.stats.slice_evictions += ss.slice_evictions;
      result.stats.pendings_exported += ss.pendings_exported;
      result.stats.pendings_imported += ss.pendings_imported;
      result.stats.rebalance_rounds += ss.rebalance_rounds;
      result.stats.corpus_runs += ss.corpus_runs;
      result.stats.resumed_runs += ss.resumed_runs;
      result.stats.resumed_at_branch += ss.resumed_at_branch;
      result.stats.instrs_skipped += ss.instrs_skipped;
      result.stats.instrs_before_flip += ss.instrs_before_flip;
      result.stats.slices_inherited += ss.slices_inherited;
      result.stats.solves_from_base += ss.solves_from_base;
      result.stats.failure_profile.Merge(ss.failure_profile);
      result.stats.pending_peak = std::max(result.stats.pending_peak, ss.pending_peak);
      result.stats.per_worker.insert(result.stats.per_worker.end(), ss.per_worker.begin(),
                                     ss.per_worker.end());
    }
    result.stats.per_shard.push_back(shard_stats);
  }
  result.stats.verdicts_gossiped = verdicts_gossiped;
  if (have_winner) {
    const ReplayResult& won = procs[winner].res.result;
    result.reproduced = true;
    result.witness_argv = won.witness_argv;
    result.witness_cells = won.witness_cells;
    result.crash = won.crash;
  }

  // ----- 6. In-process fallback: the whole fleet died with work
  // outstanding. -----
  // The orphan pool holds every pending that could not be re-homed —
  // possibly including the one subtree that reproduces the crash.
  // Spending the remaining wall budget searching it in-process beats
  // reporting exhaustion because the infrastructure failed.
  if (!have_winner && !result.reproduced && !orphan_pool.empty()) {
    std::fprintf(stderr,
                 "[dist] whole fleet lost: falling back to in-process search over %zu "
                 "orphaned pending(s)\n",
                 orphan_pool.size());
    ReplayConfig fb_cfg = config;
    fb_cfg.num_shards = 1;
    fb_cfg.max_runs =
        config.max_runs > result.stats.runs ? config.max_runs - result.stats.runs : 1;
    if (config.wall_ms > 0) {
      fb_cfg.wall_ms =
          std::max<i64>(1, config.wall_ms - static_cast<i64>(elapsed_seconds() * 1000.0));
    }
    ShardContext fb_ctx;
    fb_ctx.seed_frontier = std::move(orphan_pool);
    // One stream past every fleet member's range: the fallback must not
    // redraw any dead shard's exact inputs.
    fb_ctx.rng_stream = static_cast<u64>(num_shards) * 1024 + 1;
    fb_ctx.shard_id = 0;
    fb_ctx.num_shards = 1;
    ReplayResult fb = scout.ReproduceShard(fb_cfg, &fb_ctx);
    result.stats.fallback_inprocess = true;
    result.stats.runs += fb.stats.runs;
    result.stats.solver_calls += fb.stats.solver_calls;
    result.stats.aborts_forced_direction += fb.stats.aborts_forced_direction;
    result.stats.aborts_concrete_mismatch += fb.stats.aborts_concrete_mismatch;
    result.stats.aborts_log_exhausted += fb.stats.aborts_log_exhausted;
    result.stats.crashes_wrong_site += fb.stats.crashes_wrong_site;
    result.stats.dedup_skips += fb.stats.dedup_skips;
    result.stats.cancelled_runs += fb.stats.cancelled_runs;
    result.stats.slices_solved += fb.stats.slices_solved;
    result.stats.slice_sat_hits += fb.stats.slice_sat_hits;
    result.stats.slice_unsat_hits += fb.stats.slice_unsat_hits;
    result.stats.corpus_runs += fb.stats.corpus_runs;
    result.stats.resumed_runs += fb.stats.resumed_runs;
    result.stats.resumed_at_branch += fb.stats.resumed_at_branch;
    result.stats.instrs_skipped += fb.stats.instrs_skipped;
    result.stats.instrs_before_flip += fb.stats.instrs_before_flip;
    result.stats.slices_inherited += fb.stats.slices_inherited;
    result.stats.solves_from_base += fb.stats.solves_from_base;
    result.stats.failure_profile.Merge(fb.stats.failure_profile);
    if (fb.reproduced) {
      result.reproduced = true;
      result.witness_argv = fb.witness_argv;
      result.witness_cells = fb.witness_cells;
      result.crash = fb.crash;
    }
  }

  result.budget_exhausted = !result.reproduced;
  result.wall_seconds = elapsed_seconds();
  return result;
}

}  // namespace retrace
