// Wire-format tests for the distributed replay scheduler: the search
// codecs (hello, pendings, pending exports, slice verdicts, shard
// results, work requests, joins and the kJobBegin job payload), framing
// (truncation, digest, magic, version, bounded retention) and channel
// reset delivery.
// Table machinery and sample values live in tests/dist_wire_testutil.h;
// the failure-profile and plan-metadata codecs are tested in
// dist_wire_v4_test.cc, heartbeats and failure stats in
// dist_wire_v5_test.cc, the standing-fleet job exchange and the service
// ingest codecs in dist_wire_v7_test.cc.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/dist/wire.h"
#include "src/support/rng.h"
#include "tests/dist_wire_testutil.h"

namespace retrace {
namespace {

// ----- Valid payloads -----

std::vector<Sample> ValidPayloads() {
  ExprArena arena;
  WirePendingExport batch;
  batch.requester_shard_id = 5;
  batch.seq = 12;
  batch.pendings = {MakePending(&arena, 5), MakePending(&arena, 6)};
  WireVerdicts verdicts;
  verdicts.sat.push_back(SliceCache::SatEntry{0xdeadbeefull, {{0, 42}, {3, -1}}});
  verdicts.sat.push_back(SliceCache::SatEntry{0x1234ull, {}});
  verdicts.unsat.push_back(SliceCache::UnsatEntry{77, 78});
  return {
      Row("hello", WireHello{1, 4, 9}, EncodeHello, DecodeHello),
      Row("pending", MakePending(&arena, 42), EncodePending, DecodePending),
      Row("pending_export", batch, EncodePendingExport, DecodePendingExport),
      Row("pending_export_empty", WirePendingExport{3, 99, {}}, EncodePendingExport,
          DecodePendingExport),
      Row("verdicts", verdicts, EncodeVerdicts, DecodeVerdicts),
      Row("shard_result", MakeShardResult(), EncodeShardResult, DecodeShardResult),
      Row("work_request", WireWorkRequest{3, 16, 421, 99}, EncodeWorkRequest, DecodeWorkRequest),
      Row("join", WireJoin{"host-a/4242", 8, "fleet-secret"}, EncodeJoin, DecodeJoin),
      Row("job_begin", Begin(42, MakeJob()), EncodeJobBegin, DecodeJobBegin),
  };
}

TEST(DistWireTest, EveryCodecRoundTripsByteExactly) {
  for (const Sample& row : ValidPayloads()) {
    ExpectRoundTrip(row);
  }
}

TEST(DistWireTest, EveryCodecRejectsEveryTruncatedPrefix) {
  for (const Sample& row : ValidPayloads()) {
    ExpectEveryPrefixRefused(row);
  }
}

// Randomized expression DAGs and export batches survive encode -> decode
// -> encode with identical bytes, and a decoded trace fingerprints
// identically (the cross-shard dedup invariant).
TEST(DistWireTest, RandomizedPayloadsRoundTripByteExactly) {
  Rng rng(1234);
  for (int iter = 0; iter < 50; ++iter) {
    ExprArena arena;
    std::vector<ExprRef> pool;
    for (int i = 0; i < 4; ++i) {
      pool.push_back(arena.MkVar(i));
      pool.push_back(arena.MkConst(static_cast<i64>(rng.Next() % 1000) - 500));
    }
    for (int i = 0; i < 12; ++i) {
      const ExprOp op = static_cast<ExprOp>(
          static_cast<u8>(ExprOp::kAdd) +
          rng.Next() % (static_cast<u8>(ExprOp::kGe) - static_cast<u8>(ExprOp::kAdd) + 1));
      pool.push_back(arena.MkBin(op, pool[rng.Next() % pool.size()],
                                 pool[rng.Next() % pool.size()]));
    }
    std::vector<Constraint> constraints;
    for (int i = 0; i < 3; ++i) {
      constraints.push_back(
          Constraint{pool[pool.size() - 1 - static_cast<size_t>(i)], (rng.Next() & 1) != 0});
    }
    PortablePending pending;
    pending.trace = std::make_shared<const PortableTrace>(ExportTrace(arena, constraints));
    pending.len = 1 + rng.Next() % constraints.size();
    pending.negate_last = (rng.Next() & 1) != 0;
    std::vector<i64> seed;
    std::vector<Interval> domains;
    for (int i = 0; i < 5; ++i) {
      seed.push_back(static_cast<i64>(rng.Next()));
      const i64 lo = static_cast<i64>(rng.Next() % 100);
      domains.push_back(Interval{lo, lo + static_cast<i64>(rng.Next() % 100)});
    }
    pending.seed = std::make_shared<const std::vector<i64>>(std::move(seed));
    pending.domains = std::make_shared<const std::vector<Interval>>(std::move(domains));
    pending.priority = rng.Next();
    ExpectRoundTrip(Row("random_pending", pending, EncodePending, DecodePending));
    const std::vector<u8> payload = Encode(EncodePending, pending);
    WireReader r(payload.data(), payload.size());
    PortablePending decoded;
    ASSERT_TRUE(DecodePending(&r, &decoded)) << "iter " << iter;
    EXPECT_EQ(FingerprintConstraints(*decoded.trace, decoded.len, decoded.negate_last),
              FingerprintConstraints(*pending.trace, pending.len, pending.negate_last))
        << "iter " << iter;
  }
  for (int iter = 0; iter < 20; ++iter) {
    ExprArena arena;
    WirePendingExport batch;
    batch.requester_shard_id = static_cast<u32>(rng.Next() % 64);
    batch.seq = rng.Next();
    const size_t count = rng.Next() % 5;  // Empty batches are legal answers.
    for (size_t i = 0; i < count; ++i) {
      batch.pendings.push_back(MakePending(&arena, rng.Next() % 1000));
    }
    ExpectRoundTrip(Row("random_export", batch, EncodePendingExport, DecodePendingExport));
  }
}

// ----- Hostile payloads -----

std::vector<HostileCase> HostilePayloads() {
  std::vector<HostileCase> cases;
  const auto pending = DecoderOf(DecodePending);
  {
    // One node whose child points at itself (children must strictly
    // precede their parent).
    WireWriter w;
    w.U32(1);  // node count
    w.U8(static_cast<u8>(ExprOp::kNeg));
    w.I32(0);  // a = 0, but this IS node 0.
    w.I32(-1);
    w.I64(0);
    w.U32(0);  // constraints
    w.U64(0);  // len
    w.U8(0);   // negate_last
    w.U32(0);  // seed
    w.U32(0);  // domains
    w.U64(0);  // priority
    cases.push_back({"pending_non_topological_trace", w.Take(), pending});
  }
  {
    // A forged variable id must not reach the solver: model vectors size
    // to max_var + 1, so a 2^30 id would be a multi-GB allocation.
    WireWriter w;
    w.U32(1);  // One node: kVar with an id far past the seed/domain sizes.
    w.U8(static_cast<u8>(ExprOp::kVar));
    w.I32(-1);
    w.I32(-1);
    w.I64(1 << 30);
    w.U32(1);  // One constraint over it.
    w.I32(0);
    w.U8(1);
    w.U64(1);  // len
    w.U8(0);   // negate_last
    w.U32(2);  // seed: two cells.
    w.I64(0);
    w.I64(0);
    w.U32(2);  // domains: two cells.
    w.I64(0);
    w.I64(255);
    w.I64(0);
    w.I64(255);
    w.U64(0);  // priority
    cases.push_back({"pending_var_id_beyond_snapshots", w.Take(), pending});
  }
  {
    WireWriter w;
    w.U32(0x7fffffff);  // Claims ~2B entries in a 4-byte payload.
    cases.push_back({"pending_absurd_node_count", w.buf(), pending});
    cases.push_back({"verdicts_absurd_count", w.buf(), DecoderOf(DecodeVerdicts)});
  }
  // A zero ask and an absurd ask are both refused — a donor must never
  // carve its whole frontier because of one forged frame.
  for (const u32 want : {0u, kMaxWorkRequestWant + 1, 0xffffffffu}) {
    cases.push_back({"work_request_want_" + std::to_string(want),
                     Encode(EncodeWorkRequest, WireWorkRequest{0, want, 0}),
                     DecoderOf(DecodeWorkRequest)});
  }
  {
    WireWriter absurd;
    absurd.U32(0);           // requester
    absurd.U64(0);           // seq
    absurd.U32(0x7fffffff);  // Claims ~2B pendings in a 4-byte tail.
    cases.push_back({"export_absurd_count", absurd.Take(), DecoderOf(DecodePendingExport)});
    // Over the per-frame export cap, even if the payload were big enough.
    WireWriter capped;
    capped.U32(0);
    capped.U64(0);
    capped.U32(kMaxWorkRequestWant + 1);
    for (u32 i = 0; i < (kMaxWorkRequestWant + 1) * 33; ++i) {
      capped.U8(0);
    }
    cases.push_back({"export_over_cap", capped.Take(), DecoderOf(DecodePendingExport)});
  }
  {
    // A v9 shard result: its stats payload lacks the four v10 counters,
    // in the aggregate and in each worker entry. Cut them out of the
    // current encoding by their distinct sample values.
    std::vector<u8> payload = Encode(EncodeShardResult, MakeShardResult());
    const ReplayStats& stats = MakeShardResult().result.stats;
    for (const u64 first : {stats.resumed_runs, stats.per_worker[0].resumed_runs,
                            stats.per_worker[1].resumed_runs}) {
      WireWriter counters;
      for (u64 v = first; v < first + 4; ++v) {
        counters.U64(v);
      }
      const auto at = std::search(payload.begin(), payload.end(), counters.buf().begin(),
                                  counters.buf().end());
      EXPECT_NE(at, payload.end());
      if (at != payload.end()) {
        payload.erase(at, at + static_cast<std::ptrdiff_t>(counters.buf().size()));
      }
    }
    cases.push_back({"shard_result_v9_stats", payload, DecoderOf(DecodeShardResult)});
  }
  {
    // A v10 shard result: its stats carry pendings_pruned before and
    // promotions after corpus_runs, in the aggregate and in each worker
    // entry, and two five-entry per-discipline arrays after the fallback
    // flag. Splice them into the current encoding, found by the distinct
    // sample values around them.
    std::vector<u8> payload = Encode(EncodeShardResult, MakeShardResult());
    const WireShardResult sample = MakeShardResult();
    const ReplayStats& stats = sample.result.stats;
    // Inserts `count` u64 fields after the first `offset` bytes of the
    // byte run `around`.
    auto splice = [&payload](const std::vector<u8>& around, size_t offset, size_t count) {
      const auto at = std::search(payload.begin(), payload.end(), around.begin(), around.end());
      EXPECT_NE(at, payload.end());
      if (at != payload.end()) {
        payload.insert(at + static_cast<std::ptrdiff_t>(offset), count * 8, u8{0x5a});
      }
    };
    auto pair = [](u64 a, u64 b) {
      WireWriter w;
      w.U64(a);
      w.U64(b);
      return w.Take();
    };
    for (const ReplayWorkerStats& w : stats.per_worker) {
      splice(pair(w.slice_unsat_hits, w.corpus_runs), 8, 1);
      splice(pair(w.corpus_runs, w.resumed_runs), 8, 1);
    }
    splice(pair(stats.rebalance_rounds, stats.corpus_runs), 8, 1);
    splice(pair(stats.corpus_runs, stats.resumed_runs), 8, 1);
    WireWriter flag;
    flag.U64(stats.heartbeats_missed);
    flag.U8(stats.fallback_inprocess ? 1 : 0);
    splice(flag.Take(), 9, 10);
    cases.push_back({"shard_result_v10_stats", payload, DecoderOf(DecodeShardResult)});
  }
  {
    // A v11 shard result: its stats payload lacks the two v12 counters,
    // in the aggregate and in each worker entry. Cut them out of the
    // current encoding by their distinct sample values.
    std::vector<u8> payload = Encode(EncodeShardResult, MakeShardResult());
    const ReplayStats& stats = MakeShardResult().result.stats;
    for (const auto& [branch, flip] :
         {std::pair{stats.resumed_at_branch, stats.instrs_before_flip},
          std::pair{stats.per_worker[0].resumed_at_branch, stats.per_worker[0].instrs_before_flip},
          std::pair{stats.per_worker[1].resumed_at_branch,
                    stats.per_worker[1].instrs_before_flip}}) {
      WireWriter counters;
      counters.U64(branch);
      counters.U64(flip);
      const auto at = std::search(payload.begin(), payload.end(), counters.buf().begin(),
                                  counters.buf().end());
      EXPECT_NE(at, payload.end());
      if (at != payload.end()) {
        payload.erase(at, at + static_cast<std::ptrdiff_t>(counters.buf().size()));
      }
    }
    cases.push_back({"shard_result_v11_stats", payload, DecoderOf(DecodeShardResult)});
  }
  {
    // A v10 pending: the current layout plus its trailing direction score.
    ExprArena arena;
    std::vector<u8> payload = Encode(EncodePending, MakePending(&arena, 42));
    WireWriter direction;
    direction.U64(7);
    payload.insert(payload.end(), direction.buf().begin(), direction.buf().end());
    cases.push_back({"pending_v10_direction_score", payload, pending});
  }
  cases.push_back({"join_hostile_ident",
                   Encode(EncodeJoin, WireJoin{std::string(100'000, 'x'), 8, ""}),
                   DecoderOf(DecodeJoin)});
  // Forged enum values.
  // 2-4 were the log-bits, direction and portfolio picks until v11.
  for (const u8 pick : {2, 3, 4, 9}) {
    cases.push_back(ForgedJob("job_pick_" + std::to_string(pick), [pick](WireJob* job) {
      job->config.pick = static_cast<ReplayConfig::Pick>(pick);
    }));
  }
  cases.push_back(ForgedJob("job_syscall_kind", [](WireJob* job) {
    job->report.syscall_log[0].kind = static_cast<Builtin>(200);
  }));
  // A forged stream length would size the shard's input-cell layout.
  cases.push_back(ForgedJob("job_stream_length", [](WireJob* job) {
    job->report.shape.world.streams[0].length = i64{1} << 40;
  }));
  // A file table naming a stream that does not exist.
  cases.push_back(ForgedJob("job_file_stream",
                            [](WireJob* job) { job->report.shape.world.files[0].second = 7; }));
  // More corpus seeds than any real job ships.
  cases.push_back(ForgedJob("job_corpus_seed_count", [](WireJob* job) {
    job->config.corpus_seeds.assign(2000, std::vector<i64>{});
  }));
  {
    // A v12 job config: the solve_batch field between the slice-cache
    // capacity and the gossip interval. Splice it back into the current
    // encoding, found by the sample values around it.
    const WireJob job = MakeJob();
    std::vector<u8> payload = Encode(EncodeJobBegin, Begin(3, job));
    WireWriter around;
    around.U64(job.config.slice_cache_capacity);
    around.I32(job.config.gossip_interval_ms);
    const auto at = std::search(payload.begin(), payload.end(), around.buf().begin(),
                                around.buf().end());
    EXPECT_NE(at, payload.end());
    if (at != payload.end()) {
      WireWriter batch;
      batch.U32(5);
      payload.insert(at + 8, batch.buf().begin(), batch.buf().end());
    }
    cases.push_back({"job_config_v12_solve_batch", payload, DecoderOf(DecodeJobBegin)});
  }
  {
    // One absurd corpus model (memory bomb) with a plausible seed count:
    // find the encoded cell count (u32 1, then the lone i64 cell 7) and
    // inflate it past the per-seed cap.
    WireJob job = MakeJob();
    job.config.corpus_seeds = {std::vector<i64>(1, 7)};
    std::vector<u8> payload = Encode(EncodeJobBegin, Begin(3, job));
    const u8 needle[] = {1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0};
    const auto at = std::search(payload.begin(), payload.end(), std::begin(needle),
                                std::end(needle));
    EXPECT_NE(at, payload.end());
    if (at != payload.end()) {
      at[3] = 0x7f;  // count = 0x7f000001 > 1 << 20.
    }
    cases.push_back({"job_corpus_cell_count", payload, DecoderOf(DecodeJobBegin)});
  }
  return cases;
}

TEST(DistWireTest, EveryDecoderRefusesHostilePayloads) {
  for (const HostileCase& c : HostilePayloads()) {
    ExpectRefused(c);
  }
}

// ----- Framing -----

std::vector<u8> OneFrame(WireMsg type, const std::vector<u8>& payload) {
  std::vector<u8> bytes;
  AppendFrame(type, payload, &bytes);
  return bytes;
}

TEST(DistWireTest, FrameParserYieldsCompleteFrames) {
  const std::vector<u8> payload{1, 2, 3, 4, 5};
  std::vector<u8> stream = OneFrame(WireMsg::kVerdicts, payload);
  AppendFrame(WireMsg::kStop, {}, &stream);
  const std::vector<u8> beat = Encode(EncodeHeartbeat, WireHeartbeat{9});
  AppendFrame(WireMsg::kHeartbeat, beat, &stream);

  FrameParser parser;
  parser.Append(stream.data(), stream.size());
  WireFrame frame;
  ASSERT_EQ(parser.Next(&frame), FrameStatus::kFrame);
  EXPECT_EQ(frame.type, WireMsg::kVerdicts);
  EXPECT_EQ(frame.payload, payload);
  ASSERT_EQ(parser.Next(&frame), FrameStatus::kFrame);
  EXPECT_EQ(frame.type, WireMsg::kStop);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_EQ(parser.Next(&frame), FrameStatus::kFrame);
  EXPECT_EQ(frame.type, WireMsg::kHeartbeat);
  EXPECT_EQ(frame.payload, beat);
  EXPECT_EQ(parser.Next(&frame), FrameStatus::kNeedMore);
}

// A long-lived channel holds only what it has not parsed: thousands of
// frames through one parser, fed in chunks that end mid-frame, never
// leave the parser holding a whole frame's worth of bytes once drained.
TEST(DistWireTest, FrameParserRetainsLessThanOneFrame) {
  const std::vector<u8> one = OneFrame(WireMsg::kVerdicts, std::vector<u8>(300, 7));
  std::vector<u8> stream;
  for (int i = 0; i < 4000; ++i) {
    stream.insert(stream.end(), one.begin(), one.end());
  }
  const size_t chunk = one.size() * 3 / 2;
  FrameParser parser;
  WireFrame frame;
  size_t frames = 0;
  for (size_t at = 0; at < stream.size(); at += chunk) {
    parser.Append(stream.data() + at, std::min(chunk, stream.size() - at));
    FrameStatus status;
    while ((status = parser.Next(&frame)) == FrameStatus::kFrame) {
      ++frames;
    }
    ASSERT_EQ(status, FrameStatus::kNeedMore);
    ASSERT_LT(parser.retained_bytes(), one.size()) << "after " << frames << " frames";
  }
  EXPECT_EQ(frames, 4000u);
  EXPECT_EQ(parser.retained_bytes(), 0u);
}

// Every strict prefix of a frame is "need more", never corrupt and never
// a frame: a shard reading a slow socket must simply wait.
TEST(DistWireTest, TruncatedFramesAreNeverAccepted) {
  for (const std::vector<u8>& stream :
       {OneFrame(WireMsg::kPending, {9, 8, 7, 6, 5, 4, 3, 2, 1}),
        OneFrame(WireMsg::kHeartbeat, Encode(EncodeHeartbeat, WireHeartbeat{12345}))}) {
    for (size_t cut = 0; cut < stream.size(); ++cut) {
      FrameParser parser;
      parser.Append(stream.data(), cut);
      WireFrame frame;
      EXPECT_EQ(parser.Next(&frame), FrameStatus::kNeedMore) << "cut " << cut;
    }
  }
}

// One flipped payload bit dies at the digest, before any decoder runs —
// for every message, relay and result frames included. Sticky: the
// stream is not trusted to resynchronize.
TEST(DistWireTest, CorruptPayloadIsRejectedByDigest) {
  const struct {
    WireMsg type;
    std::vector<u8> payload;
    size_t flip_from_end;
    u8 mask;
  } frames[] = {
      {WireMsg::kVerdicts, {10, 20, 30, 40}, 1, 0x01},
      {WireMsg::kWorkRequest, Encode(EncodeWorkRequest, WireWorkRequest{2, 8, 17}), 1, 0x40},
      {WireMsg::kResult, Encode(EncodeShardResult, MakeShardResult()), 9, 0x10},
  };
  for (const auto& f : frames) {
    std::vector<u8> stream = OneFrame(f.type, f.payload);
    stream[stream.size() - f.flip_from_end] ^= f.mask;
    FrameParser parser;
    parser.Append(stream.data(), stream.size());
    WireFrame frame;
    EXPECT_EQ(parser.Next(&frame), FrameStatus::kCorrupt) << static_cast<int>(f.type);
    EXPECT_EQ(parser.Next(&frame), FrameStatus::kCorrupt) << static_cast<int>(f.type);
  }
}

TEST(DistWireTest, BadMagicIsRejected) {
  std::vector<u8> stream = OneFrame(WireMsg::kStop, {});
  stream[0] ^= 0xff;
  FrameParser parser;
  parser.Append(stream.data(), stream.size());
  WireFrame frame;
  EXPECT_EQ(parser.Next(&frame), FrameStatus::kCorrupt);
}

TEST(DistWireTest, VersionMismatchIsRefused) {
  std::vector<u8> stream = OneFrame(WireMsg::kHello, {1, 2, 3});
  // Bytes 4..5 carry the version (little-endian, after the u32 magic).
  stream[4] = static_cast<u8>((kWireVersion + 1) & 0xff);
  stream[5] = static_cast<u8>(((kWireVersion + 1) >> 8) & 0xff);
  FrameParser parser;
  parser.Append(stream.data(), stream.size());
  WireFrame frame;
  EXPECT_EQ(parser.Next(&frame), FrameStatus::kVersionMismatch);
  EXPECT_EQ(parser.Next(&frame), FrameStatus::kVersionMismatch);
}

// A Linux AF_UNIX peer that closes with unread data in its own receive
// buffer leaves the reader its last bytes, then ECONNRESET. Poll must
// deliver the frames that arrived ahead of the reset before reporting
// the channel closed: a shard exiting with unread heartbeats still
// delivers its kResult.
TEST(DistWireTest, PollDeliversFramesAheadOfAConnectionReset) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  WireChannel near(fds[0]);
  {
    WireChannel far(fds[1]);
    ASSERT_TRUE(near.Send(WireMsg::kHeartbeat, {}));  // Never read by `far`.
    ASSERT_TRUE(far.Send(WireMsg::kResult, {1, 2, 3}));
  }  // `far` closes its end with the heartbeat unread.

  std::vector<WireFrame> frames;
  WireChannel::RecvStatus status = WireChannel::RecvStatus::kOk;
  for (int i = 0; i < 20 && status == WireChannel::RecvStatus::kOk; ++i) {
    status = near.Poll(50, &frames);
  }
  EXPECT_EQ(status, WireChannel::RecvStatus::kClosed);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, WireMsg::kResult);
  EXPECT_EQ(frames[0].payload, (std::vector<u8>{1, 2, 3}));
}

}  // namespace
}  // namespace retrace
