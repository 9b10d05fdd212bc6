// Chaos suite for the distributed replay scheduler's failure-handling
// layer (src/dist/fault.h + the coordinator's recovery machinery):
//
//   - FaultSpec grammar: every action/trigger form parses, garbage is
//     refused with a reason.
//   - FaultInjectingChannel semantics, frame by frame over a socketpair:
//     drop, dup, delay, corrupt, close, hang.
//   - End-to-end under seeded fault schedules (fork and TCP transports):
//     a shard killed at its first frame mid-search must not cost the
//     reproduction — its seeded partition re-injects into the survivor
//     (ledger recovery), and the stats say so honestly; a hung shard is
//     only detectable by the heartbeat deadline; whole-fleet death falls
//     back to an in-process search; a corrupt-frame storm may cost the
//     answer but never the process.
//   - Transport::Reap() must stay bounded when a child is wedged
//     (WNOHANG grace, then SIGKILL escalation).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/dist/fault.h"
#include "src/dist/transport.h"
#include "src/dist/wire.h"
#include "tests/testutil.h"

namespace retrace {
namespace {

i64 NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wide-enough search space that the scout actually ships pending sets
// to both shards (same scenario as dist_replay_test.cc).
constexpr const char* kDeepGuardedCrash = R"(
int main(int argc, char **argv) {
  if (argc < 3) { return 1; }
  int hits = 0;
  if (argv[1][0] == 'a') { hits = hits + 1; }
  if (argv[1][1] == 'b') { hits = hits + 1; }
  if (argv[1][2] == 'c') { hits = hits + 1; }
  if (argv[2][0] > 'm') { hits = hits + 1; }
  if (hits == 4) { crash(7); }
  return 0;
}
)";

// The same crash behind a ~100k-iteration spin. Every run, the scout's
// included, then costs over ten milliseconds, far more than the few
// milliseconds a shard takes to send its first frame, so a shard
// killed at frame 1 dies mid-search with a wide margin. With the fast
// program the survivor could win first, and after a win the
// coordinator clears a lost shard's ledger on purpose instead of
// recovering it, which left pendings_recovered at 0.
constexpr const char* kSlowDeepGuardedCrash = R"(
int main(int argc, char **argv) {
  if (argc < 3) { return 1; }
  int spin = 0;
  while (spin < 100000) { spin = spin + 1; }
  int hits = 0;
  if (argv[1][0] == 'a') { hits = hits + 1; }
  if (argv[1][1] == 'b') { hits = hits + 1; }
  if (argv[1][2] == 'c') { hits = hits + 1; }
  if (argv[2][0] > 'm') { hits = hits + 1; }
  if (hits == 4) { crash(7); }
  return 0;
}
)";

std::unique_ptr<Pipeline> MustBuild(std::string_view app) {
  auto r = Pipeline::FromSources(app, {});
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().ToString());
  return r.take();
}

InputSpec DeepGuardedCrashInput() {
  InputSpec spec;
  spec.argv = {"prog", "abc", "z"};
  spec.world.listen_fd = -1;
  return spec;
}

// ----- FaultSpec grammar. -----

TEST(FaultSpecTest, ParsesEveryActionAndTriggerForm) {
  FaultSpec spec;
  std::string err;
  ASSERT_TRUE(ParseFaultSpec(
      "shard1:close@frame20, shard2:hang@frame5, all:corrupt%1, shard0:drop@frame1, "
      "all:delay%100, shard63:dup@frame999",
      &spec, &err))
      << err;
  ASSERT_EQ(spec.clauses.size(), 6u);
  EXPECT_EQ(spec.clauses[0].shard, 1);
  EXPECT_EQ(spec.clauses[0].action.kind, FaultAction::Kind::kClose);
  EXPECT_EQ(spec.clauses[0].action.at_frame, 20u);
  EXPECT_EQ(spec.clauses[0].action.percent, 0u);
  EXPECT_EQ(spec.clauses[1].action.kind, FaultAction::Kind::kHang);
  EXPECT_EQ(spec.clauses[2].shard, kFaultAllShards);
  EXPECT_EQ(spec.clauses[2].action.kind, FaultAction::Kind::kCorrupt);
  EXPECT_EQ(spec.clauses[2].action.percent, 1u);
  EXPECT_EQ(spec.clauses[3].action.kind, FaultAction::Kind::kDrop);
  EXPECT_EQ(spec.clauses[4].action.kind, FaultAction::Kind::kDelay);
  EXPECT_EQ(spec.clauses[4].action.percent, 100u);
  EXPECT_EQ(spec.clauses[5].shard, 63);
  EXPECT_EQ(spec.clauses[5].action.at_frame, 999u);

  // ForShard: 'all' clauses apply everywhere, shardN only to N.
  EXPECT_EQ(spec.ForShard(1).size(), 3u);   // close@20, corrupt%1, delay%100.
  EXPECT_EQ(spec.ForShard(7).size(), 2u);   // The two 'all' clauses.
  EXPECT_EQ(spec.ForShard(63).size(), 3u);

  // The empty spec is the explicit no-faults schedule.
  ASSERT_TRUE(ParseFaultSpec("", &spec, &err));
  EXPECT_TRUE(spec.empty());
}

TEST(FaultSpecTest, RefusesGarbage) {
  const char* bad[] = {
      "shard1",                    // No action.
      "shard1:close",              // No trigger.
      "shard1:explode@frame1",     // Unknown action.
      "worker1:close@frame1",      // Unknown target.
      "shard:close@frame1",        // Target without an id.
      "shard1:close@frame0",       // Frames are 1-based.
      "shard1:close@frames1",      // Misspelled trigger.
      "shard1:corrupt%0",          // Percent below range.
      "shard1:corrupt%101",        // Percent above range.
      "shard1:close@frame1,",      // Trailing empty clause.
      "shard1:close@frame1 x",     // Trailing garbage.
      ",",                         // Only separators.
      "all:close@frame99999999999999999999",  // Overflow.
  };
  for (const char* text : bad) {
    FaultSpec spec;
    std::string err;
    EXPECT_FALSE(ParseFaultSpec(text, &spec, &err)) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

// ----- FaultInjectingChannel semantics, frame by frame. -----

// Harness: a socketpair with the near end wrapped in the decorator and
// the far end a plain channel the test writes through.
struct ChannelPair {
  std::unique_ptr<FaultInjectingChannel> near;
  std::unique_ptr<WireChannel> far;
};

ChannelPair MakePair(std::vector<FaultAction> actions) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ChannelPair pair;
  pair.near = std::make_unique<FaultInjectingChannel>(std::make_unique<WireChannel>(fds[0]),
                                                      std::move(actions), /*seed=*/7);
  pair.far = std::make_unique<WireChannel>(fds[1]);
  return pair;
}

// A payload whose identity survives the trip: one heartbeat seq.
std::vector<u8> BeatPayload(u64 seq) {
  WireWriter w;
  EncodeHeartbeat(WireHeartbeat{seq}, &w);
  return w.buf();
}

u64 BeatSeq(const WireFrame& frame) {
  WireReader r(frame.payload.data(), frame.payload.size());
  WireHeartbeat beat;
  EXPECT_TRUE(DecodeHeartbeat(&r, &beat));
  return beat.seq;
}

TEST(FaultChannelTest, DropDiscardsExactlyTheTriggeringFrame) {
  ChannelPair pair = MakePair({FaultAction{FaultAction::Kind::kDrop, 2, 0}});
  for (u64 seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(pair.far->Send(WireMsg::kHeartbeat, BeatPayload(seq)));
  }
  std::vector<WireFrame> got;
  ASSERT_EQ(pair.near->Poll(200, &got), WireChannel::RecvStatus::kOk);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(BeatSeq(got[0]), 1u);
  EXPECT_EQ(BeatSeq(got[1]), 3u);
}

TEST(FaultChannelTest, DupDeliversTheTriggeringFrameTwice) {
  ChannelPair pair = MakePair({FaultAction{FaultAction::Kind::kDup, 2, 0}});
  for (u64 seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(pair.far->Send(WireMsg::kHeartbeat, BeatPayload(seq)));
  }
  std::vector<WireFrame> got;
  ASSERT_EQ(pair.near->Poll(200, &got), WireChannel::RecvStatus::kOk);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(BeatSeq(got[0]), 1u);
  EXPECT_EQ(BeatSeq(got[1]), 2u);
  EXPECT_EQ(BeatSeq(got[2]), 2u);
  EXPECT_EQ(BeatSeq(got[3]), 3u);
}

TEST(FaultChannelTest, DelayHoldsTheFrameUntilTheNextPoll) {
  ChannelPair pair = MakePair({FaultAction{FaultAction::Kind::kDelay, 1, 0}});
  ASSERT_TRUE(pair.far->Send(WireMsg::kHeartbeat, BeatPayload(1)));
  ASSERT_TRUE(pair.far->Send(WireMsg::kHeartbeat, BeatPayload(2)));
  std::vector<WireFrame> got;
  ASSERT_EQ(pair.near->Poll(200, &got), WireChannel::RecvStatus::kOk);
  ASSERT_EQ(got.size(), 1u);  // Frame 1 held; frame 2 passed.
  EXPECT_EQ(BeatSeq(got[0]), 2u);
  got.clear();
  ASSERT_EQ(pair.near->Poll(50, &got), WireChannel::RecvStatus::kOk);
  ASSERT_EQ(got.size(), 1u);  // The held frame re-enters first.
  EXPECT_EQ(BeatSeq(got[0]), 1u);
}

TEST(FaultChannelTest, CorruptFlipsOnePayloadByteSoDecodersRefuse) {
  ChannelPair pair = MakePair({FaultAction{FaultAction::Kind::kCorrupt, 1, 0}});
  WireVerdicts verdicts;
  verdicts.unsat.push_back({0x1234u, 0x5678u});
  WireWriter w;
  EncodeVerdicts(verdicts, &w);
  const std::vector<u8> original = w.buf();
  ASSERT_TRUE(pair.far->Send(WireMsg::kVerdicts, original));
  std::vector<WireFrame> got;
  ASSERT_EQ(pair.near->Poll(200, &got), WireChannel::RecvStatus::kOk);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload.size(), original.size());
  EXPECT_NE(got[0].payload, original);  // Exactly the post-digest flip.
}

TEST(FaultChannelTest, CloseDeliversThePrefixThenReportsClosed) {
  ChannelPair pair = MakePair({FaultAction{FaultAction::Kind::kClose, 2, 0}});
  for (u64 seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(pair.far->Send(WireMsg::kHeartbeat, BeatPayload(seq)));
  }
  std::vector<WireFrame> got;
  ASSERT_EQ(pair.near->Poll(200, &got), WireChannel::RecvStatus::kClosed);
  ASSERT_EQ(got.size(), 1u);  // The clean prefix before the trigger.
  EXPECT_EQ(BeatSeq(got[0]), 1u);
  // Sticky, and sends refuse too.
  got.clear();
  EXPECT_EQ(pair.near->Poll(0, &got), WireChannel::RecvStatus::kClosed);
  EXPECT_FALSE(pair.near->Send(WireMsg::kStop, {}));
  EXPECT_EQ(pair.near->fd(), -1);
  // The far end sees a real EOF — the shard side of a crashed peer.
  std::vector<WireFrame> far_got;
  EXPECT_EQ(pair.far->Poll(200, &far_got), WireChannel::RecvStatus::kClosed);
}

TEST(FaultChannelTest, HangGoesMuteBothWaysButPretendsHealth) {
  ChannelPair pair = MakePair({FaultAction{FaultAction::Kind::kHang, 1, 0}});
  ASSERT_TRUE(pair.far->Send(WireMsg::kHeartbeat, BeatPayload(1)));
  ASSERT_TRUE(pair.far->Send(WireMsg::kHeartbeat, BeatPayload(2)));
  std::vector<WireFrame> got;
  // Everything from the trigger on is read and discarded; the status
  // stays kOk — only a heartbeat deadline can see this failure.
  ASSERT_EQ(pair.near->Poll(200, &got), WireChannel::RecvStatus::kOk);
  EXPECT_TRUE(got.empty());
  // Outgoing sends pretend success and deliver nothing.
  EXPECT_TRUE(pair.near->Send(WireMsg::kStop, {}));
  EXPECT_TRUE(pair.near->Queue(WireMsg::kStop, {}, /*droppable=*/false));
  std::vector<WireFrame> far_got;
  EXPECT_EQ(pair.far->Poll(100, &far_got), WireChannel::RecvStatus::kOk);
  EXPECT_TRUE(far_got.empty());
}

TEST(FaultChannelTest, PercentScheduleIsDeterministicPerSeed) {
  auto run = [](u64 seed) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FaultInjectingChannel near(std::make_unique<WireChannel>(fds[0]),
                               {FaultAction{FaultAction::Kind::kDrop, 0, 50}}, seed);
    WireChannel far(fds[1]);
    for (u64 seq = 1; seq <= 32; ++seq) {
      EXPECT_TRUE(far.Send(WireMsg::kHeartbeat, BeatPayload(seq)));
    }
    std::vector<WireFrame> got;
    EXPECT_EQ(near.Poll(200, &got), WireChannel::RecvStatus::kOk);
    std::vector<u64> seqs;
    for (const WireFrame& frame : got) {
      WireReader r(frame.payload.data(), frame.payload.size());
      WireHeartbeat beat;
      EXPECT_TRUE(DecodeHeartbeat(&r, &beat));
      seqs.push_back(beat.seq);
    }
    return seqs;
  };
  const std::vector<u64> a = run(41);
  const std::vector<u64> b = run(41);
  const std::vector<u64> c = run(42);
  EXPECT_EQ(a, b);              // Same seed: bit-identical schedule.
  EXPECT_FALSE(a.empty());      // 50% of 32 drops roughly half.
  EXPECT_LT(a.size(), 32u);
  EXPECT_NE(a, c);              // Different seed: different schedule.
}

// ----- End-to-end: shard killed at its first frame, mid-search. -----

TEST(DistFaultTest, ShardClosedMidSearchStillReproducesAndRecoversLedger) {
  auto pipeline = MustBuild(kSlowDeepGuardedCrash);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  // Shard 0's channel dies at its very first frame: its whole seeded
  // partition is unaccounted and must re-inject into shard 1. A fast
  // gossip cadence sends that first frame within milliseconds, and the
  // slow program keeps both shards searching far longer than that.
  config.fault_spec = "shard0:close@frame1";
  config.gossip_interval_ms = 2;
  config.heartbeat_interval_ms = 2;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();

  ASSERT_TRUE(replay.reproduced);
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
  const ReplayStats& s = replay.stats;
  ASSERT_EQ(s.per_shard.size(), 2u);
  EXPECT_EQ(s.shards_lost, 1u);
  EXPECT_TRUE(s.per_shard[0].lost);
  EXPECT_FALSE(s.per_shard[1].lost);
  EXPECT_FALSE(s.fallback_inprocess);
  // The dead shard never reported, so its seeded count is the
  // coordinator's send-side number — and the ledger must have recovered
  // at least that much (its full column; carves can only add to it).
  EXPECT_GT(s.per_shard[0].pendings_seeded, 0u);
  EXPECT_GE(s.pendings_recovered, s.per_shard[0].pendings_seeded);
  EXPECT_EQ(s.pendings_recovered, s.per_shard[0].pendings_recovered);
}

TEST(DistFaultTest, HungShardIsDeclaredDeadByHeartbeatDeadline) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  // Shard 0 hangs at its first frame: its socket stays open and every
  // byte both ways is swallowed. No close, no error — only silence.
  config.fault_spec = "shard0:hang@frame1";
  config.heartbeat_interval_ms = 25;
  config.heartbeat_timeout_ms = 400;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();

  ASSERT_TRUE(replay.reproduced);
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
  const ReplayStats& s = replay.stats;
  ASSERT_EQ(s.per_shard.size(), 2u);
  EXPECT_EQ(s.shards_lost, 1u);
  EXPECT_TRUE(s.per_shard[0].lost);
  EXPECT_EQ(s.per_shard[0].heartbeats_missed, 1u);
  EXPECT_GE(s.heartbeats_missed, 1u);
  // Recovery is deliberately NOT asserted here: shard 1 usually wins
  // long before the 400 ms deadline expires, and post-win ledger
  // recovery is skipped by design (re-injecting work after the race is
  // decided would be pointless churn). The aggregate must still be the
  // lossless per-shard sum either way.
  EXPECT_EQ(s.pendings_recovered, s.per_shard[0].pendings_recovered);
}

TEST(DistFaultTest, WholeFleetDeathFallsBackToInProcessSearch) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  // Every shard's channel dies at its first frame: nobody is left to
  // re-home work to, so the orphan pool must feed the in-process
  // fallback — which still owes the user an answer.
  config.fault_spec = "all:close@frame1";
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();

  ASSERT_TRUE(replay.reproduced);
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
  const ReplayStats& s = replay.stats;
  EXPECT_EQ(s.shards_lost, 2u);
  EXPECT_TRUE(s.fallback_inprocess);
  EXPECT_GT(s.pendings_recovered, 0u);
}

TEST(DistFaultTest, CorruptFrameStormNeverCrashesTheCoordinator) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  // Post-digest corruption: every decoder sees hostile payloads on a
  // stream the framing layer still trusts. The answer may be lost (a
  // corrupted kResult decodes to garbage or not at all) — the process
  // and the honesty of the outcome must not be.
  config.fault_spec = "all:corrupt%40";
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();

  EXPECT_EQ(replay.budget_exhausted, !replay.reproduced);
  const ReplayStats& s = replay.stats;
  ASSERT_EQ(s.per_shard.size(), 2u);
  u64 lost_flags = 0;
  for (const ReplayShardStats& shard : s.per_shard) {
    lost_flags += shard.lost ? 1 : 0;
  }
  EXPECT_EQ(s.shards_lost, lost_flags);
}

TEST(DistFaultTest, TcpShardClosedMidSearchStillReproduces) {
  auto pipeline = MustBuild(kSlowDeepGuardedCrash);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  config.transport = ReplayTransport::kTcp;
  // Same recovery invariant over the TCP transport. TcpTransport::Start
  // consumes kJoin itself, so the decorator's frame counter starts at
  // the first post-handshake frame — and a fast gossip cadence sends
  // that frame within milliseconds, while the slow program keeps both
  // shards searching far longer. Shard 0 is the victim
  // because deepest-first round-robin dealing guarantees it owns at
  // least one ledgered pending (a tiny scouted frontier may leave the
  // last shard's partition empty).
  config.fault_spec = "shard0:close@frame1";
  config.gossip_interval_ms = 2;
  config.heartbeat_interval_ms = 2;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();

  ASSERT_TRUE(replay.reproduced);
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
  const ReplayStats& s = replay.stats;
  ASSERT_EQ(s.per_shard.size(), 2u);
  EXPECT_EQ(s.shards_lost, 1u);
  EXPECT_TRUE(s.per_shard[0].lost);
  EXPECT_GT(s.pendings_recovered, 0u);
}

// ----- Reap hardening. -----

TEST(DistFaultTest, ReapEscalatesToSigkillOnAWedgedChild) {
  // A shard_main that never returns: without the WNOHANG grace window +
  // SIGKILL escalation, Reap() would block forever on this child.
  LocalForkTransport transport([](u32, int) -> bool {
    for (;;) {
      ::pause();
    }
  });
  std::vector<std::unique_ptr<WireChannel>> chans = transport.Start(1);
  ASSERT_EQ(chans.size(), 1u);
  ASSERT_NE(chans[0], nullptr);
  const i64 t0 = NowMs();
  transport.Reap();
  const i64 took = NowMs() - t0;
  // Grace is 2s; anything near it proves the escalation fired. A
  // generous ceiling keeps slow CI honest without flaking.
  EXPECT_LT(took, 15'000);
}

}  // namespace
}  // namespace retrace
