// Wire-format tests for the distributed replay scheduler: byte-exact
// round trips for every payload codec, truncated/corrupt-frame
// rejection, and version-mismatch refusal.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <vector>

#include "src/dist/wire.h"
#include "src/support/rng.h"

namespace retrace {
namespace {

PortablePending MakePending(ExprArena* arena, u64 salt) {
  const ExprRef x = arena->MkVar(static_cast<i32>(salt % 5));
  const ExprRef y = arena->MkVar(static_cast<i32>(salt % 5) + 1);
  const ExprRef sum = arena->MkBin(ExprOp::kAdd, x, y);
  const ExprRef cmp = arena->MkBin(ExprOp::kGt, sum, arena->MkConst(static_cast<i64>(salt)));
  const ExprRef odd = arena->MkBin(ExprOp::kAnd, x, arena->MkConst(1));
  std::vector<Constraint> constraints{{cmp, true}, {odd, (salt & 1) != 0}};

  PortablePending pending;
  pending.trace = std::make_shared<const PortableTrace>(ExportTrace(*arena, constraints));
  pending.len = 2;
  pending.negate_last = (salt & 2) != 0;
  // Cover every variable id the trace can mention (ids run to salt%5+1):
  // decode validates var ids against the snapshot sizes.
  pending.seed = std::make_shared<const std::vector<i64>>(
      std::vector<i64>{static_cast<i64>(salt), -7, 300, 4, 5, 6, 7, 8});
  pending.domains = std::make_shared<const std::vector<Interval>>(std::vector<Interval>{
      {0, 255}, {-128, 127}, {0, static_cast<i64>(salt % 100)}, {0, 9}, {0, 9}, {0, 9},
      {0, 9}, {0, 9}});
  pending.priority = salt * 31;
  pending.dir_score = salt * 7 + 1;
  return pending;
}

std::vector<u8> EncodePendingPayload(const PortablePending& pending) {
  WireWriter w;
  EncodePending(pending, &w);
  return w.Take();
}

TEST(DistWireTest, PendingRoundTripsByteExactly) {
  ExprArena arena;
  const PortablePending original = MakePending(&arena, 42);
  const std::vector<u8> payload = EncodePendingPayload(original);

  WireReader r(payload.data(), payload.size());
  PortablePending decoded;
  ASSERT_TRUE(DecodePending(&r, &decoded));
  EXPECT_EQ(r.remaining(), 0u);

  EXPECT_EQ(decoded.trace->nodes, original.trace->nodes);
  EXPECT_EQ(decoded.trace->constraints, original.trace->constraints);
  EXPECT_EQ(decoded.len, original.len);
  EXPECT_EQ(decoded.negate_last, original.negate_last);
  EXPECT_EQ(*decoded.seed, *original.seed);
  EXPECT_EQ(*decoded.domains, *original.domains);
  EXPECT_EQ(decoded.priority, original.priority);
  EXPECT_EQ(decoded.dir_score, original.dir_score);

  // Re-encoding the decoded pending reproduces the exact bytes.
  EXPECT_EQ(EncodePendingPayload(decoded), payload);
}

// Property-style sweep: randomized expression DAGs survive encode ->
// decode -> encode with identical bytes, and the decoded trace
// fingerprints identically (the cross-shard dedup invariant).
TEST(DistWireTest, PendingRoundTripProperty) {
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
      const ExprRef a = pool[rng.Next() % pool.size()];
      const ExprRef b = pool[rng.Next() % pool.size()];
      pool.push_back(arena.MkBin(op, a, b));
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
    for (int i = 0; i < 5; ++i) {
      seed.push_back(static_cast<i64>(rng.Next()));
    }
    pending.seed = std::make_shared<const std::vector<i64>>(std::move(seed));
    std::vector<Interval> domains;
    for (int i = 0; i < 5; ++i) {
      const i64 lo = static_cast<i64>(rng.Next() % 100);
      domains.push_back(Interval{lo, lo + static_cast<i64>(rng.Next() % 100)});
    }
    pending.domains = std::make_shared<const std::vector<Interval>>(std::move(domains));
    pending.priority = rng.Next();

    const std::vector<u8> payload = EncodePendingPayload(pending);
    WireReader r(payload.data(), payload.size());
    PortablePending decoded;
    ASSERT_TRUE(DecodePending(&r, &decoded)) << "iter " << iter;
    EXPECT_EQ(EncodePendingPayload(decoded), payload) << "iter " << iter;
    EXPECT_EQ(FingerprintConstraints(*decoded.trace, decoded.len, decoded.negate_last),
              FingerprintConstraints(*pending.trace, pending.len, pending.negate_last))
        << "iter " << iter;
  }
}

TEST(DistWireTest, VerdictsRoundTrip) {
  WireVerdicts verdicts;
  verdicts.sat.push_back(SliceCache::SatEntry{0xdeadbeefull, {{0, 42}, {3, -1}}});
  verdicts.sat.push_back(SliceCache::SatEntry{0x1234ull, {}});
  verdicts.unsat.push_back(SliceCache::UnsatEntry{77, 78});

  WireWriter w;
  EncodeVerdicts(verdicts, &w);
  WireReader r(w.buf().data(), w.buf().size());
  WireVerdicts decoded;
  ASSERT_TRUE(DecodeVerdicts(&r, &decoded));
  ASSERT_EQ(decoded.sat.size(), 2u);
  EXPECT_EQ(decoded.sat[0].key, 0xdeadbeefull);
  EXPECT_EQ(decoded.sat[0].model,
            (SliceCache::SliceModel{{0, 42}, {3, -1}}));
  EXPECT_TRUE(decoded.sat[1].model.empty());
  ASSERT_EQ(decoded.unsat.size(), 1u);
  EXPECT_EQ(decoded.unsat[0].key, 77u);
  EXPECT_EQ(decoded.unsat[0].check, 78u);
}

TEST(DistWireTest, ShardResultRoundTrip) {
  WireShardResult shard;
  shard.result.reproduced = true;
  shard.result.budget_exhausted = false;
  shard.result.wall_seconds = 1.5;
  shard.result.witness_argv = {"prog", "k9", "7"};
  shard.result.witness_cells = {107, 57, 0};
  shard.result.crash.kind = CrashSite::Kind::kExplicit;
  shard.result.crash.func = 3;
  shard.result.crash.loc = SourceLoc{1, 12, 7};
  shard.result.crash.code = 13;
  shard.result.stats.runs = 99;
  shard.result.stats.slice_sat_hits = 1234;
  shard.result.stats.slice_evictions = 5;
  ReplayWorkerStats worker;
  worker.runs = 50;
  worker.dedup_skips = 4;
  worker.pendings_pruned = 6;
  worker.corpus_runs = 3;
  worker.promotions = 1;
  shard.result.stats.per_worker = {worker, worker};
  shard.result.stats.pendings_exported = 21;
  shard.result.stats.pendings_imported = 22;
  shard.result.stats.rebalance_rounds = 23;
  shard.result.stats.pendings_pruned = 31;
  shard.result.stats.corpus_runs = 17;
  shard.result.stats.promotions = 2;
  shard.result.stats.discipline_runs = {11, 12, 13, 14, 15};
  shard.result.stats.discipline_on_log = {1, 2, 3, 4, 5};
  shard.verdicts_published = 7;
  shard.verdicts_imported = 11;
  shard.pendings_seeded = 3;

  WireWriter w;
  EncodeShardResult(shard, &w);
  WireReader r(w.buf().data(), w.buf().size());
  WireShardResult decoded;
  ASSERT_TRUE(DecodeShardResult(&r, &decoded));
  EXPECT_TRUE(decoded.result.reproduced);
  EXPECT_EQ(decoded.result.witness_argv, shard.result.witness_argv);
  EXPECT_EQ(decoded.result.witness_cells, shard.result.witness_cells);
  EXPECT_TRUE(decoded.result.crash.SameSite(shard.result.crash));
  EXPECT_EQ(decoded.result.crash.code, 13);
  EXPECT_DOUBLE_EQ(decoded.result.wall_seconds, 1.5);
  EXPECT_EQ(decoded.result.stats.runs, 99u);
  EXPECT_EQ(decoded.result.stats.slice_sat_hits, 1234u);
  EXPECT_EQ(decoded.result.stats.slice_evictions, 5u);
  ASSERT_EQ(decoded.result.stats.per_worker.size(), 2u);
  EXPECT_EQ(decoded.result.stats.per_worker[1].runs, 50u);
  EXPECT_EQ(decoded.result.stats.per_worker[1].dedup_skips, 4u);
  EXPECT_EQ(decoded.result.stats.per_worker[1].pendings_pruned, 6u);
  EXPECT_EQ(decoded.result.stats.per_worker[1].corpus_runs, 3u);
  EXPECT_EQ(decoded.result.stats.per_worker[1].promotions, 1u);
  EXPECT_EQ(decoded.result.stats.pendings_exported, 21u);
  EXPECT_EQ(decoded.result.stats.pendings_imported, 22u);
  EXPECT_EQ(decoded.result.stats.rebalance_rounds, 23u);
  EXPECT_EQ(decoded.result.stats.pendings_pruned, 31u);
  EXPECT_EQ(decoded.result.stats.corpus_runs, 17u);
  EXPECT_EQ(decoded.result.stats.promotions, 2u);
  EXPECT_EQ(decoded.result.stats.discipline_runs, shard.result.stats.discipline_runs);
  EXPECT_EQ(decoded.result.stats.discipline_on_log, shard.result.stats.discipline_on_log);
  EXPECT_EQ(decoded.verdicts_published, 7u);
  EXPECT_EQ(decoded.verdicts_imported, 11u);
  EXPECT_EQ(decoded.pendings_seeded, 3u);
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

  FrameParser parser;
  parser.Append(stream.data(), stream.size());
  WireFrame frame;
  ASSERT_EQ(parser.Next(&frame), FrameStatus::kFrame);
  EXPECT_EQ(frame.type, WireMsg::kVerdicts);
  EXPECT_EQ(frame.payload, payload);
  ASSERT_EQ(parser.Next(&frame), FrameStatus::kFrame);
  EXPECT_EQ(frame.type, WireMsg::kStop);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(parser.Next(&frame), FrameStatus::kNeedMore);
}

// Every strict prefix of a frame is "need more", never corrupt and never
// a frame: a shard reading a slow socket must simply wait.
TEST(DistWireTest, TruncatedFramesAreNeverAccepted) {
  const std::vector<u8> stream = OneFrame(WireMsg::kPending, {9, 8, 7, 6, 5, 4, 3, 2, 1});
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    FrameParser parser;
    parser.Append(stream.data(), cut);
    WireFrame frame;
    EXPECT_EQ(parser.Next(&frame), FrameStatus::kNeedMore) << "cut " << cut;
  }
}

TEST(DistWireTest, CorruptPayloadIsRejectedByDigest) {
  const std::vector<u8> payload{10, 20, 30, 40};
  std::vector<u8> stream = OneFrame(WireMsg::kVerdicts, payload);
  stream.back() ^= 0x01;  // Flip one payload bit.

  FrameParser parser;
  parser.Append(stream.data(), stream.size());
  WireFrame frame;
  EXPECT_EQ(parser.Next(&frame), FrameStatus::kCorrupt);
  // Sticky: the stream is not trusted to resynchronize.
  EXPECT_EQ(parser.Next(&frame), FrameStatus::kCorrupt);
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

// Corrupt *payloads* that pass framing (e.g. a buggy peer rather than a
// damaged stream) must still be rejected by the bounds-checked decoders.
TEST(DistWireTest, DecoderRejectsNonTopologicalTrace) {
  WireWriter w;
  // One node whose child points at itself (must strictly precede).
  w.U32(1);                   // node count
  w.U8(static_cast<u8>(ExprOp::kNeg));
  w.I32(0);                   // a = 0, but this IS node 0 -> invalid.
  w.I32(-1);
  w.I64(0);
  w.U32(0);                   // constraints
  w.U64(0);                   // len
  w.U8(0);                    // negate_last
  w.U32(0);                   // seed
  w.U32(0);                   // domains
  w.U64(0);                   // priority
  WireReader r(w.buf().data(), w.buf().size());
  PortablePending decoded;
  EXPECT_FALSE(DecodePending(&r, &decoded));
}

// A digest-valid frame with a forged variable id must not reach the
// solver: model vectors size to max_var + 1, so a 2^30 id would be a
// multi-GB allocation in the consuming shard.
TEST(DistWireTest, DecoderRejectsVariableIdsBeyondSnapshots) {
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
  WireReader r(w.buf().data(), w.buf().size());
  PortablePending decoded;
  EXPECT_FALSE(DecodePending(&r, &decoded));
}

TEST(DistWireTest, DecoderRejectsAbsurdCounts) {
  WireWriter w;
  w.U32(0x7fffffff);  // Claims ~2B nodes in a 4-byte payload.
  WireReader r(w.buf().data(), w.buf().size());
  PortablePending decoded;
  EXPECT_FALSE(DecodePending(&r, &decoded));

  WireWriter w2;
  w2.U32(0x7fffffff);
  WireReader r2(w2.buf().data(), w2.buf().size());
  WireVerdicts verdicts;
  EXPECT_FALSE(DecodeVerdicts(&r2, &verdicts));
}

TEST(DistWireTest, DecoderRejectsTruncatedPayload) {
  ExprArena arena;
  const std::vector<u8> payload = EncodePendingPayload(MakePending(&arena, 9));
  for (const size_t cut : {payload.size() - 1, payload.size() / 2, size_t{3}}) {
    WireReader r(payload.data(), cut);
    PortablePending decoded;
    EXPECT_FALSE(DecodePending(&r, &decoded)) << "cut " << cut;
  }
}

// ----- Re-balance messages (kWorkRequest / kPendingExport) -----

TEST(DistWireTest, WorkRequestRoundTripsByteExactly) {
  const WireWorkRequest original{3, 16, 421, 99};
  WireWriter w;
  EncodeWorkRequest(original, &w);
  const std::vector<u8> payload = w.Take();

  WireReader r(payload.data(), payload.size());
  WireWorkRequest decoded;
  ASSERT_TRUE(DecodeWorkRequest(&r, &decoded));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(decoded.shard_id, 3u);
  EXPECT_EQ(decoded.want, 16u);
  EXPECT_EQ(decoded.frontier_size, 421u);
  EXPECT_EQ(decoded.seq, 99u);

  WireWriter w2;
  EncodeWorkRequest(decoded, &w2);
  EXPECT_EQ(w2.buf(), payload);
}

TEST(DistWireTest, WorkRequestRejectsHostileWantAndTruncation) {
  // A zero ask and an absurd ask are both refused — a donor must never
  // carve its whole frontier because of one forged frame.
  for (const u32 want : {0u, kMaxWorkRequestWant + 1, 0xffffffffu}) {
    WireWriter w;
    EncodeWorkRequest(WireWorkRequest{0, want, 0}, &w);
    WireReader r(w.buf().data(), w.buf().size());
    WireWorkRequest decoded;
    EXPECT_FALSE(DecodeWorkRequest(&r, &decoded)) << "want " << want;
  }
  WireWriter w;
  EncodeWorkRequest(WireWorkRequest{1, 8, 99}, &w);
  for (size_t cut = 0; cut < w.buf().size(); ++cut) {
    WireReader r(w.buf().data(), cut);
    WireWorkRequest decoded;
    EXPECT_FALSE(DecodeWorkRequest(&r, &decoded)) << "cut " << cut;
  }
}

TEST(DistWireTest, PendingExportRoundTripsByteExactlyAndRandomized) {
  Rng rng(777);
  for (int iter = 0; iter < 20; ++iter) {
    ExprArena arena;
    WirePendingExport batch;
    batch.requester_shard_id = static_cast<u32>(rng.Next() % 64);
    batch.seq = rng.Next();
    const size_t count = rng.Next() % 5;  // Empty batches are legal answers.
    for (size_t i = 0; i < count; ++i) {
      batch.pendings.push_back(MakePending(&arena, rng.Next() % 1000));
    }
    WireWriter w;
    EncodePendingExport(batch, &w);
    const std::vector<u8> payload = w.Take();

    WireReader r(payload.data(), payload.size());
    WirePendingExport decoded;
    ASSERT_TRUE(DecodePendingExport(&r, &decoded)) << "iter " << iter;
    EXPECT_EQ(r.remaining(), 0u) << "iter " << iter;
    EXPECT_EQ(decoded.requester_shard_id, batch.requester_shard_id) << "iter " << iter;
    EXPECT_EQ(decoded.seq, batch.seq) << "iter " << iter;
    ASSERT_EQ(decoded.pendings.size(), batch.pendings.size()) << "iter " << iter;
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(FingerprintConstraints(*decoded.pendings[i].trace, decoded.pendings[i].len,
                                       decoded.pendings[i].negate_last),
                FingerprintConstraints(*batch.pendings[i].trace, batch.pendings[i].len,
                                       batch.pendings[i].negate_last))
          << "iter " << iter << " pending " << i;
    }
    WireWriter w2;
    EncodePendingExport(decoded, &w2);
    EXPECT_EQ(w2.buf(), payload) << "iter " << iter;
  }
}

TEST(DistWireTest, PendingExportRejectsTruncationAndAbsurdCounts) {
  ExprArena arena;
  WirePendingExport batch;
  batch.pendings.push_back(MakePending(&arena, 5));
  batch.pendings.push_back(MakePending(&arena, 6));
  WireWriter w;
  EncodePendingExport(batch, &w);
  for (size_t cut = 0; cut < w.buf().size(); ++cut) {
    WireReader r(w.buf().data(), cut);
    WirePendingExport decoded;
    EXPECT_FALSE(DecodePendingExport(&r, &decoded)) << "cut " << cut;
  }

  WireWriter absurd;
  absurd.U32(0);           // requester
  absurd.U64(0);           // seq
  absurd.U32(0x7fffffff);  // Claims ~2B pendings in a 4-byte tail.
  WireReader r(absurd.buf().data(), absurd.buf().size());
  WirePendingExport decoded;
  EXPECT_FALSE(DecodePendingExport(&r, &decoded));

  // Over the per-frame export cap, even if the payload were big enough.
  WireWriter capped;
  capped.U32(0);
  capped.U64(0);
  capped.U32(kMaxWorkRequestWant + 1);
  for (u32 i = 0; i < (kMaxWorkRequestWant + 1) * 33; ++i) {
    capped.U8(0);
  }
  WireReader r2(capped.buf().data(), capped.buf().size());
  EXPECT_FALSE(DecodePendingExport(&r2, &decoded));
}

TEST(DistWireTest, ReBalanceFramesAreDigestChecked) {
  // Same framing rigor as every other message: one flipped payload bit
  // is rejected before any re-balance decoding runs.
  WireWriter w;
  EncodeWorkRequest(WireWorkRequest{2, 8, 17}, &w);
  std::vector<u8> stream = OneFrame(WireMsg::kWorkRequest, w.buf());
  stream.back() ^= 0x40;
  FrameParser parser;
  parser.Append(stream.data(), stream.size());
  WireFrame frame;
  EXPECT_EQ(parser.Next(&frame), FrameStatus::kCorrupt);
}

// ----- TCP handshake messages (kJoin / kJob) -----

TEST(DistWireTest, JoinRoundTripsAndRejectsHostileIdent) {
  WireJoin join;
  join.ident = "host-a/4242";
  join.num_workers = 8;
  WireWriter w;
  EncodeJoin(join, &w);
  WireReader r(w.buf().data(), w.buf().size());
  WireJoin decoded;
  ASSERT_TRUE(DecodeJoin(&r, &decoded));
  EXPECT_EQ(decoded.ident, join.ident);
  EXPECT_EQ(decoded.num_workers, 8u);

  WireJoin hostile;
  hostile.ident = std::string(100'000, 'x');
  WireWriter w2;
  EncodeJoin(hostile, &w2);
  WireReader r2(w2.buf().data(), w2.buf().size());
  EXPECT_FALSE(DecodeJoin(&r2, &decoded));
}

WireJob MakeJob() {
  WireJob job;
  job.config.max_runs = 777;
  job.config.wall_ms = 1234;
  job.config.total_steps = 999;
  job.config.max_steps_per_run = 88;
  job.config.solver.max_steps = 555;
  job.config.solver.max_enumeration = 66;
  job.config.seed = 0xabcdef;
  job.config.use_syscall_log = true;
  job.config.pick = ReplayConfig::Pick::kLogBits;
  job.config.num_workers = 3;
  job.config.solver_cache = false;
  job.config.slice_cache_capacity = 99;
  job.config.solve_batch = 5;
  job.config.gossip_interval_ms = 7;
  job.config.prune_subsumed = true;
  job.config.corpus_seeds = {{65, 66, 67, 13}, {}, {120}};
  job.config.program.app = "int main() { return 0; }";
  job.config.program.libs = {"int helper() { return 1; }"};
  job.plan.method = InstrumentMethod::kDynamic;
  job.plan.branches = DenseBitset(10);
  job.plan.branches.Set(1);
  job.plan.branches.Set(3);
  job.plan.branches.Set(9);
  job.report.method = InstrumentMethod::kDynamic;
  for (int i = 0; i < 13; ++i) {
    job.report.branch_log.PushBit((i % 3) == 0);
  }
  job.report.has_syscall_log = true;
  job.report.syscall_log = {{Builtin::kRead, 13}, {Builtin::kPollSignal, 1}};
  job.report.crash.kind = CrashSite::Kind::kExplicit;
  job.report.crash.func = 2;
  job.report.crash.loc = SourceLoc{0, 5, 3};
  job.report.crash.code = 7;
  job.report.shape.argv = {"prog", "k9", "7"};
  job.report.shape.argv_public = {false, true};
  StreamShape stream;
  stream.name = "stdin";
  stream.length = 13;
  stream.chunk = -1;
  job.report.shape.world.streams.push_back(stream);
  job.report.shape.world.files.emplace_back("/tmp/x", 0);
  job.report.shape.world.stdin_stream = 0;
  job.report.shape.world.connection_streams = {0};
  job.report.shape.world.max_concurrent_conns = 2;
  job.report.shape.world.listen_fd = -1;
  return job;
}

std::vector<u8> EncodeJobPayload(const WireJob& job) {
  WireWriter w;
  EncodeJob(job, &w);
  return w.Take();
}

TEST(DistWireTest, JobRoundTripsByteExactly) {
  const WireJob job = MakeJob();
  const std::vector<u8> payload = EncodeJobPayload(job);

  WireReader r(payload.data(), payload.size());
  WireJob decoded;
  ASSERT_TRUE(DecodeJob(&r, &decoded));
  EXPECT_EQ(r.remaining(), 0u);

  EXPECT_EQ(decoded.config.max_runs, 777u);
  EXPECT_EQ(decoded.config.wall_ms, 1234);
  EXPECT_EQ(decoded.config.total_steps, 999u);
  EXPECT_EQ(decoded.config.max_steps_per_run, 88u);
  EXPECT_EQ(decoded.config.solver.max_steps, 555u);
  EXPECT_EQ(decoded.config.solver.max_enumeration, 66u);
  EXPECT_EQ(decoded.config.seed, 0xabcdefu);
  EXPECT_TRUE(decoded.config.use_syscall_log);
  EXPECT_EQ(decoded.config.pick, ReplayConfig::Pick::kLogBits);
  EXPECT_EQ(decoded.config.num_workers, 3u);
  EXPECT_FALSE(decoded.config.solver_cache);
  EXPECT_EQ(decoded.config.slice_cache_capacity, 99u);
  EXPECT_EQ(decoded.config.solve_batch, 5u);
  EXPECT_EQ(decoded.config.gossip_interval_ms, 7);
  EXPECT_TRUE(decoded.config.prune_subsumed);
  EXPECT_EQ(decoded.config.corpus_seeds, job.config.corpus_seeds);
  // A shipped job never nests transports or shard counts.
  EXPECT_EQ(decoded.config.num_shards, 1u);
  EXPECT_EQ(decoded.config.transport, ReplayTransport::kFork);
  EXPECT_EQ(decoded.config.program.app, job.config.program.app);
  ASSERT_EQ(decoded.config.program.libs.size(), 1u);
  EXPECT_EQ(decoded.config.program.libs[0], job.config.program.libs[0]);

  EXPECT_EQ(decoded.plan.method, InstrumentMethod::kDynamic);
  EXPECT_EQ(decoded.plan.branches, job.plan.branches);

  EXPECT_EQ(decoded.report.method, InstrumentMethod::kDynamic);
  EXPECT_EQ(decoded.report.branch_log, job.report.branch_log);
  ASSERT_TRUE(decoded.report.has_syscall_log);
  ASSERT_EQ(decoded.report.syscall_log.size(), 2u);
  EXPECT_EQ(decoded.report.syscall_log[0].kind, Builtin::kRead);
  EXPECT_EQ(decoded.report.syscall_log[0].value, 13);
  EXPECT_TRUE(decoded.report.crash.SameSite(job.report.crash));
  EXPECT_EQ(decoded.report.shape.argv, job.report.shape.argv);
  EXPECT_EQ(decoded.report.shape.argv_public, job.report.shape.argv_public);
  ASSERT_EQ(decoded.report.shape.world.streams.size(), 1u);
  EXPECT_EQ(decoded.report.shape.world.streams[0].name, "stdin");
  EXPECT_EQ(decoded.report.shape.world.streams[0].length, 13);
  EXPECT_EQ(decoded.report.shape.world.files, job.report.shape.world.files);
  EXPECT_EQ(decoded.report.shape.world.stdin_stream, 0);
  EXPECT_EQ(decoded.report.shape.world.connection_streams,
            job.report.shape.world.connection_streams);
  EXPECT_EQ(decoded.report.shape.world.max_concurrent_conns, 2);
  EXPECT_EQ(decoded.report.shape.world.listen_fd, -1);

  EXPECT_EQ(EncodeJobPayload(decoded), payload);
}

TEST(DistWireTest, JobDecodeRejectsTruncationEverywhere) {
  // Every strict prefix must fail cleanly — a listening retrace_shardd
  // feeds this decoder bytes from the network.
  const std::vector<u8> payload = EncodeJobPayload(MakeJob());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WireReader r(payload.data(), cut);
    WireJob decoded;
    EXPECT_FALSE(DecodeJob(&r, &decoded)) << "cut " << cut;
  }
}

TEST(DistWireTest, JobDecodeRejectsHostilePayloads) {
  // Forged enum values.
  {
    WireJob job = MakeJob();
    job.config.pick = static_cast<ReplayConfig::Pick>(9);
    const std::vector<u8> payload = EncodeJobPayload(job);
    WireReader r(payload.data(), payload.size());
    WireJob decoded;
    EXPECT_FALSE(DecodeJob(&r, &decoded));
  }
  {
    WireJob job = MakeJob();
    job.plan.method = static_cast<InstrumentMethod>(11);
    const std::vector<u8> payload = EncodeJobPayload(job);
    WireReader r(payload.data(), payload.size());
    WireJob decoded;
    EXPECT_FALSE(DecodeJob(&r, &decoded));
  }
  {
    WireJob job = MakeJob();
    job.report.syscall_log[0].kind = static_cast<Builtin>(200);
    const std::vector<u8> payload = EncodeJobPayload(job);
    WireReader r(payload.data(), payload.size());
    WireJob decoded;
    EXPECT_FALSE(DecodeJob(&r, &decoded));
  }
  // A forged stream length would size the consuming shard's input-cell
  // layout: refuse memory bombs.
  {
    WireJob job = MakeJob();
    job.report.shape.world.streams[0].length = i64{1} << 40;
    const std::vector<u8> payload = EncodeJobPayload(job);
    WireReader r(payload.data(), payload.size());
    WireJob decoded;
    EXPECT_FALSE(DecodeJob(&r, &decoded));
  }
  // A file table naming a stream that does not exist.
  {
    WireJob job = MakeJob();
    job.report.shape.world.files[0].second = 7;
    const std::vector<u8> payload = EncodeJobPayload(job);
    WireReader r(payload.data(), payload.size());
    WireJob decoded;
    EXPECT_FALSE(DecodeJob(&r, &decoded));
  }
  // More corpus seeds than any real job ships (forged count): refused
  // before any allocation.
  {
    WireJob job = MakeJob();
    job.config.corpus_seeds.assign(2000, std::vector<i64>{});
    const std::vector<u8> payload = EncodeJobPayload(job);
    WireReader r(payload.data(), payload.size());
    WireJob decoded;
    EXPECT_FALSE(DecodeJob(&r, &decoded));
  }
  // A single absurd corpus model (memory bomb): refused by the per-seed
  // cell cap even when the seed count is plausible.
  {
    WireJob job = MakeJob();
    job.config.corpus_seeds = {std::vector<i64>(1, 7)};
    std::vector<u8> payload = EncodeJobPayload(job);
    // Find the encoded cell count (u32 value 1 followed by the lone i64
    // cell value 7, little-endian) and inflate it past the cap.
    const u8 needle[] = {1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0};
    bool patched = false;
    for (size_t i = 0; i + sizeof(needle) <= payload.size(); ++i) {
      if (std::equal(needle, needle + sizeof(needle), payload.begin() + i)) {
        payload[i + 3] = 0x7f;  // count = 0x7f000001 > 1 << 20.
        patched = true;
        break;
      }
    }
    ASSERT_TRUE(patched);
    WireReader r(payload.data(), payload.size());
    WireJob decoded;
    EXPECT_FALSE(DecodeJob(&r, &decoded));
  }
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
