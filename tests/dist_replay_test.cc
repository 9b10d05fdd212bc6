// End-to-end tests for the distributed (multi-process) replay scheduler:
// 2-shard reproduction of the miniature crash scenarios over both
// transports (fork socketpairs and TCP loopback), in-process parity for
// num_shards <= 1, shard-aware stats aggregation, event-driven handoffs
// (a slow gossip cadence is no latency floor), the frontier re-balance
// protocol (a deliberately starved shard must end with
// pendings_imported > 0), and a ShardFleet serving several jobs over
// each transport.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "src/core/pipeline.h"
#include "src/dist/coordinator.h"
#include "src/dist/fleet.h"
#include "src/dist/shard.h"
#include "src/dist/wire.h"
#include "tests/testutil.h"

namespace retrace {
namespace {

// Crashes iff argv[1] starts with "k9" and argv[2][0] > '5' (the
// miniature scenario of replay_parallel_test.cc).
constexpr const char* kGuardedCrash = R"(
int main(int argc, char **argv) {
  if (argc < 3) { return 1; }
  if (argv[1][0] == 'k') {
    if (argv[1][1] == '9') {
      if (argv[2][0] > '5') {
        crash(13);
      }
    }
  }
  return 0;
}
)";

// Wider search space: enough frontier for the scout to actually ship
// pending sets to both shards.
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

std::unique_ptr<Pipeline> MustBuild(std::string_view app) {
  auto r = Pipeline::FromSources(app, {});
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().ToString());
  return r.take();
}

InputSpec GuardedCrashInput() {
  InputSpec spec;
  spec.argv = {"prog", "k9", "7"};
  spec.world.listen_fd = -1;
  return spec;
}

InputSpec DeepGuardedCrashInput() {
  InputSpec spec;
  spec.argv = {"prog", "abc", "z"};
  spec.world.listen_fd = -1;
  return spec;
}

TEST(DistReplayTest, TwoShardsReproduceGuardedCrash) {
  auto pipeline = MustBuild(kGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(GuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);
  ASSERT_GE(replay.witness_argv.size(), 3u);
  EXPECT_EQ(replay.witness_argv[1][0], 'k');
  EXPECT_EQ(replay.witness_argv[1][1], '9');
  EXPECT_GT(replay.witness_argv[2][0], '5');
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
}

TEST(DistReplayTest, TwoShardsReproduceDeepCrashAndAggregateStats) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));

  // Shard-aware aggregation: one per_shard entry per process; aggregate
  // runs = scout runs + every shard worker's runs.
  const ReplayStats& s = replay.stats;
  ASSERT_EQ(s.per_shard.size(), 2u);
  EXPECT_EQ(s.per_shard[0].shard_id, 0u);
  EXPECT_EQ(s.per_shard[1].shard_id, 1u);
  const u64 worker_runs = std::accumulate(
      s.per_worker.begin(), s.per_worker.end(), u64{0},
      [](u64 acc, const ReplayWorkerStats& w) { return acc + w.runs; });
  EXPECT_EQ(s.runs, s.harvest_runs + worker_runs);
  const u64 shard_runs =
      std::accumulate(s.per_shard.begin(), s.per_shard.end(), u64{0},
                      [](u64 acc, const ReplayShardStats& sh) { return acc + sh.runs; });
  EXPECT_EQ(worker_runs, shard_runs);
  // The wire was actually used: handshake + results at minimum.
  EXPECT_GT(s.wire_bytes_tx, 0u);
  EXPECT_GT(s.wire_bytes_rx, 0u);
  // Reproduced and the scout did not finish => some shard did. (Several
  // shards may genuinely reproduce before the stop lands; each reports
  // its own truth.)
  int winners = 0;
  for (const ReplayShardStats& sh : s.per_shard) {
    winners += sh.reproduced ? 1 : 0;
  }
  EXPECT_GE(winners, 1);
}

// A fault-free fleet loses no shard. A shard that exits while the
// coordinator's last heartbeats or gossip sit unread in its socket makes
// the coordinator's read end in ECONNRESET; the shard's final kResult,
// received just before, must still count. Several searches give that
// exit race room to happen.
TEST(DistReplayTest, FaultFreeTwoShardSearchesLoseNoShard) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  for (u64 search = 0; search < 12; ++search) {
    config.seed = 100 + search;
    const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
    ASSERT_TRUE(replay.reproduced) << "search " << search;
    EXPECT_EQ(replay.stats.shards_lost, 0u) << "search " << search;
    EXPECT_FALSE(replay.stats.fallback_inprocess) << "search " << search;
  }
}

// Handoffs are event-driven, so the gossip and heartbeat cadences are
// not latency floors. With both at 1 s, a shard that stops polling only
// on its cadence would sit out a full second after its search ends (the
// winner before sending kResult, the loser after kStop) and the search
// would take over 1 s. The pump wakes on the search's end and cancels
// through the frontier port instead, so the whole job returns in a
// small fraction of one cadence.
TEST(DistReplayTest, SlowGossipCadenceIsNotALatencyFloor) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  config.gossip_interval_ms = 1000;
  config.heartbeat_interval_ms = 1000;
  const auto t0 = std::chrono::steady_clock::now();
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  const auto took_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  ASSERT_TRUE(replay.reproduced);
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
  // The shards really ran: the scout did not short-circuit the fleet.
  ASSERT_EQ(replay.stats.per_shard.size(), 2u);
  EXPECT_EQ(replay.stats.shards_lost, 0u);
  EXPECT_LT(took_ms, 500);
}

// Corpus-seeded distributed replay: the fleet partitions the corpus by
// shard id and every seeded run is counted. Seeding each shard with a
// known witness makes the reproduction come from a corpus run (the
// scout's bounded random search cannot find the deep crash first), so
// corpus_runs > 0 is deterministic.
TEST(DistReplayTest, TwoShardsReproduceFromCorpusSeeds) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  // Obtain a witness in-process first, then hand it to both shards as
  // corpus seeds (index % 2 partitions one to each).
  ReplayConfig warm;
  warm.num_workers = 4;
  const ReplayResult baseline = pipeline->Reproduce(user.report, plan, warm).take();
  ASSERT_TRUE(baseline.reproduced);

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 1;
  config.corpus_seeds = {baseline.witness_cells, baseline.witness_cells};
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
  if (replay.stats.harvest_runs < replay.stats.runs) {
    // Shards actually ran (the scout did not finish on its own): the
    // winning run was a corpus-seeded one and it was counted.
    EXPECT_GE(replay.stats.corpus_runs, 1u);
  }
}

TEST(DistReplayTest, ScoutShortCircuitsWithoutForking) {
  // With a wide-open run budget and the trivial scenario, the scout's
  // bounded sequential search reproduces the crash before any shard is
  // forked: no wire traffic, no per-shard entries.
  auto pipeline = MustBuild(kGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(GuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 4;  // Scout cap = max(4, 2*shards) = 8 runs.
  config.seed = 11;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  if (replay.stats.per_shard.empty()) {
    // Scout finished the job: the distributed layer added zero overhead.
    EXPECT_EQ(replay.stats.wire_bytes_tx, 0u);
    EXPECT_EQ(replay.stats.wire_bytes_rx, 0u);
    EXPECT_EQ(replay.stats.runs, replay.stats.harvest_runs);
  }
  ASSERT_TRUE(replay.reproduced);
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
}

TEST(DistReplayTest, SingleShardConfigStaysInProcess) {
  auto pipeline = MustBuild(kGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(GuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig base;
  base.seed = 11;
  const ReplayResult a = pipeline->Reproduce(user.report, plan, base).take();

  ReplayConfig explicit_one = base;
  explicit_one.num_shards = 1;
  const ReplayResult b = pipeline->Reproduce(user.report, plan, explicit_one).take();

  // num_shards == 1 must be byte-for-byte the in-process engine: same
  // witness, same counters, no distributed bookkeeping.
  ASSERT_TRUE(a.reproduced);
  ASSERT_TRUE(b.reproduced);
  EXPECT_EQ(a.witness_cells, b.witness_cells);
  EXPECT_EQ(a.witness_argv, b.witness_argv);
  EXPECT_EQ(a.stats.runs, b.stats.runs);
  EXPECT_EQ(a.stats.solver_calls, b.stats.solver_calls);
  EXPECT_TRUE(b.stats.per_shard.empty());
  EXPECT_EQ(b.stats.wire_bytes_tx, 0u);
  EXPECT_EQ(b.stats.harvest_runs, 0u);
}

// ----- TCP loopback transport -----
//
// transport = kTcp with no shard_endpoints self-spawns local children
// that connect back over 127.0.0.1 and handshake kJoin/kJob — including
// the full program-source ship and module rebuild a remote
// retrace_shardd would do. Only the host boundary is missing.

TEST(DistReplayTest, TcpTwoShardsReproduceGuardedCrash) {
  auto pipeline = MustBuild(kGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(GuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  config.transport = ReplayTransport::kTcp;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);
  ASSERT_GE(replay.witness_argv.size(), 3u);
  EXPECT_EQ(replay.witness_argv[1][0], 'k');
  EXPECT_EQ(replay.witness_argv[1][1], '9');
  EXPECT_GT(replay.witness_argv[2][0], '5');
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
}

TEST(DistReplayTest, TcpTwoShardsReproduceDeepCrashWithWireStats) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 2;
  config.transport = ReplayTransport::kTcp;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);
  EXPECT_TRUE(pipeline->VerifyWitness(user.report, replay.witness_cells));
  // The job ship (sources + plan + report) makes the TCP handshake far
  // heavier than the fork transport's: the byte counters must see it.
  const ReplayStats& s = replay.stats;
  ASSERT_EQ(s.per_shard.size(), 2u);
  EXPECT_GT(s.wire_bytes_tx, 0u);
  EXPECT_GT(s.wire_bytes_rx, 0u);
  const u64 worker_runs = std::accumulate(
      s.per_worker.begin(), s.per_worker.end(), u64{0},
      [](u64 acc, const ReplayWorkerStats& w) { return acc + w.runs; });
  EXPECT_EQ(s.runs, s.harvest_runs + worker_runs);
}

TEST(DistReplayTest, TcpTwoShardsReproduceSyscallBug) {
  constexpr const char* kReadBug = R"(
    int main() {
      char buf[64];
      int n = read(0, buf, 60);
      if (n == 13) {
        if (buf[0] == 'Z') { crash(2); }
      }
      return 0;
    }
  )";
  auto pipeline = MustBuild(kReadBug);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = -1;
  spec.world.stdin_stream = 0;
  StreamShape stream;
  stream.name = "stdin";
  const std::string data = "Zsecretsecret";  // 13 bytes.
  stream.bytes.assign(data.begin(), data.end());
  stream.length = 13;
  spec.world.streams.push_back(stream);

  const auto user = pipeline->RecordUserRun(spec, plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 1;  // 2 processes x 1 thread, over TCP loopback.
  config.transport = ReplayTransport::kTcp;
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);
}

// ----- Frontier re-balancing -----

// Drives one shard directly over a socketpair, with the test acting as
// the coordinator: the shard is seeded with an empty frontier and a
// 1-step run budget, so every local run aborts without producing
// pendings — guaranteed starvation. The shard must send kWorkRequest,
// import the pendings the "coordinator" exports back, and report
// pendings_imported > 0 in its final stats.
TEST(DistReplayTest, StarvedShardImportsReBalancedWork) {
  auto pipeline = MustBuild(kDeepGuardedCrash);
  // Nothing instrumented: every symbolic branch is a case-1 flip, so one
  // scouted run yields several pendings to donate (an all-branches log
  // leaves only forced-direction pendings — a deliberately narrow
  // frontier).
  InstrumentationPlan plan;
  plan.method = InstrumentMethod::kDynamic;
  plan.branches = DenseBitset(pipeline->module().branches.size());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  // Real pendings to donate: scout a small frontier the same way the
  // coordinator does (one run, so nothing is consumed yet).
  ReplayConfig scout_cfg;
  scout_cfg.max_runs = 1;
  ReplayEngine scout(pipeline->module(), plan, user.report);
  std::vector<PortablePending> scouted;
  scout.Scout(scout_cfg, /*target_frontier=*/100, &scouted);
  ASSERT_FALSE(scouted.empty());

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ReplayConfig shard_cfg;
  shard_cfg.num_workers = 2;
  shard_cfg.max_steps_per_run = 1;  // Every run aborts: nothing pends.
  shard_cfg.gossip_interval_ms = 5;
  bool shard_ok = false;
  std::thread shard([&] {
    WireChannel shard_chan(fds[1]);
    shard_ok = RunShardOn(shard_chan, pipeline->module(), plan, user.report, shard_cfg,
                          /*expected_shard_id=*/0) == ShardRunStatus::kOk;
  });

  WireChannel chan(fds[0]);
  {
    WireWriter hello;
    EncodeHello(WireHello{/*shard_id=*/0, /*num_shards=*/2, /*pending_count=*/0}, &hello);
    ASSERT_TRUE(chan.Send(WireMsg::kHello, hello.buf()));
    ASSERT_TRUE(chan.Send(WireMsg::kStart, {}));
  }

  const size_t donated = std::min<size_t>(4, scouted.size());
  bool donated_once = false;
  u64 requests_seen = 0;
  bool have_result = false;
  WireShardResult result;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!have_result && std::chrono::steady_clock::now() < deadline) {
    std::vector<WireFrame> frames;
    const WireChannel::RecvStatus status = chan.Poll(50, &frames);
    ASSERT_NE(status, WireChannel::RecvStatus::kCorrupt);
    ASSERT_NE(status, WireChannel::RecvStatus::kVersionMismatch);
    for (const WireFrame& frame : frames) {
      if (frame.type == WireMsg::kWorkRequest) {
        WireReader r(frame.payload.data(), frame.payload.size());
        WireWorkRequest request;
        ASSERT_TRUE(DecodeWorkRequest(&r, &request));
        EXPECT_EQ(request.shard_id, 0u);
        ++requests_seen;
        WirePendingExport batch;
        batch.requester_shard_id = request.shard_id;
        batch.seq = request.seq;
        if (!donated_once) {
          donated_once = true;
          for (size_t i = 0; i < donated; ++i) {
            batch.pendings.push_back(scouted[i]);
          }
        }
        WireWriter w;
        EncodePendingExport(batch, &w);
        ASSERT_TRUE(chan.Send(WireMsg::kPendingExport, w.buf()));
      } else if (frame.type == WireMsg::kResult) {
        WireReader r(frame.payload.data(), frame.payload.size());
        ASSERT_TRUE(DecodeShardResult(&r, &result));
        have_result = true;
      }
      // Verdict gossip is ignored: this coordinator has no peers.
    }
    if (status == WireChannel::RecvStatus::kClosed && !have_result) {
      break;
    }
  }
  shard.join();

  ASSERT_TRUE(have_result) << "shard never reported a result";
  EXPECT_TRUE(shard_ok);
  EXPECT_GE(requests_seen, 1u);
  // The starved shard imported the donated work and counted it.
  EXPECT_GT(result.result.stats.pendings_imported, 0u);
  EXPECT_LE(result.result.stats.pendings_imported, donated);
  EXPECT_GE(result.result.stats.rebalance_rounds, 1u);
}

// A loaded shard must answer a relayed kWorkRequest by carving off its
// deepest frontier entries (donor side of the protocol), and the carve
// shows up in pendings_exported. The busy loop keeps each run long
// enough that the frontier cannot drain between the request and the
// pump's answer; the requester retries on empty answers regardless, the
// way a real starved shard does.
TEST(DistReplayTest, LoadedShardExportsWorkOnRequest) {
  // The busy loop makes every run take real wall time, so the frontier
  // cannot drain between the relayed request and the pump's answer.
  constexpr const char* kBusyDeepGuardedCrash = R"(
int main(int argc, char **argv) {
  if (argc < 3) { return 1; }
  int i = 0;
  while (i < 500000) { i = i + 1; }
  int hits = 0;
  if (argv[1][0] == 'a') { hits = hits + 1; }
  if (argv[1][1] == 'b') { hits = hits + 1; }
  if (argv[1][2] == 'c') { hits = hits + 1; }
  if (argv[2][0] > 'm') { hits = hits + 1; }
  if (hits == 4) { crash(7); }
  return 0;
}
)";
  auto pipeline = MustBuild(kBusyDeepGuardedCrash);
  InstrumentationPlan plan;  // Nothing instrumented: wide case-1 frontier.
  plan.method = InstrumentMethod::kDynamic;
  plan.branches = DenseBitset(pipeline->module().branches.size());
  const auto user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig scout_cfg;
  scout_cfg.max_runs = 1;
  ReplayEngine scout(pipeline->module(), plan, user.report);
  std::vector<PortablePending> scouted;
  scout.Scout(scout_cfg, /*target_frontier=*/100, &scouted);
  ASSERT_FALSE(scouted.empty());
  // Tile the scouted frontier into a deep seed list: plenty resident in
  // the queue for the donor to carve while its one worker is mid-run.
  std::vector<PortablePending> seeds;
  while (seeds.size() < 20) {
    seeds.push_back(scouted[seeds.size() % scouted.size()]);
  }

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ReplayConfig shard_cfg;
  shard_cfg.num_workers = 1;
  shard_cfg.solve_batch = 2;  // Leave most of the frontier in the queue.
  // Bound the shard's life, but generously: the donor must still be
  // mid-search when the work request arrives ~50ms in.
  shard_cfg.max_runs = 40;
  shard_cfg.gossip_interval_ms = 5;
  // This test plays a coordinator that sends no heartbeats, and under
  // TSan the search can outlast the shard's liveness deadline: the shard
  // would then exit as if the coordinator had died, without a kResult.
  shard_cfg.heartbeat_timeout_ms = 0;
  bool shard_ok = false;
  std::thread shard([&] {
    WireChannel shard_chan(fds[1]);
    shard_ok = RunShardOn(shard_chan, pipeline->module(), plan, user.report, shard_cfg,
                          /*expected_shard_id=*/1) == ShardRunStatus::kOk;
  });
  // Joins on every exit path, including a fatal ASSERT mid-test. Declared
  // before `chan` so the channel's destructor closes the socket first —
  // the shard sees the close and returns, so the join cannot hang.
  struct Joiner {
    std::thread& t;
    ~Joiner() {
      if (t.joinable()) {
        t.join();
      }
    }
  } joiner{shard};

  WireChannel chan(fds[0]);
  // Seed the shard, then play the starving peer via the coordinator
  // relay.
  for (const PortablePending& pending : seeds) {
    WireWriter w;
    EncodePending(pending, &w);
    ASSERT_TRUE(chan.Send(WireMsg::kPending, w.buf()));
  }
  {
    WireWriter hello;
    EncodeHello(WireHello{/*shard_id=*/1, /*num_shards=*/2, static_cast<u32>(seeds.size())},
                &hello);
    ASSERT_TRUE(chan.Send(WireMsg::kHello, hello.buf()));
    ASSERT_TRUE(chan.Send(WireMsg::kStart, {}));
  }
  auto send_request = [&chan] {
    WireWriter w;
    EncodeWorkRequest(WireWorkRequest{/*shard_id=*/0, /*want=*/4, /*frontier_size=*/0}, &w);
    // The donor is a live search and may finish (crash reproduced or
    // max_runs) at any moment; a send that loses that race just means
    // the kResult frame is already queued on our side.
    (void)chan.Send(WireMsg::kWorkRequest, w.buf());
  };
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // Let the search attach.
  send_request();

  u64 pendings_received = 0;
  bool have_result = false;
  WireShardResult result;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!have_result && std::chrono::steady_clock::now() < deadline) {
    std::vector<WireFrame> frames;
    const WireChannel::RecvStatus status = chan.Poll(50, &frames);
    ASSERT_NE(status, WireChannel::RecvStatus::kCorrupt);
    ASSERT_NE(status, WireChannel::RecvStatus::kVersionMismatch);
    for (const WireFrame& frame : frames) {
      if (frame.type == WireMsg::kPendingExport) {
        WireReader r(frame.payload.data(), frame.payload.size());
        WirePendingExport batch;
        ASSERT_TRUE(DecodePendingExport(&r, &batch));
        pendings_received += batch.pendings.size();
        if (batch.pendings.empty() && pendings_received == 0) {
          send_request();  // Donor had nothing to spare yet: ask again.
        }
      } else if (frame.type == WireMsg::kWorkRequest) {
        // The shard itself may starve later and ask back: always answer
        // (empty, echoing the request), or it waits out its response
        // timeout before exiting.
        WireReader r(frame.payload.data(), frame.payload.size());
        WireWorkRequest request;
        ASSERT_TRUE(DecodeWorkRequest(&r, &request));
        WirePendingExport empty;
        empty.requester_shard_id = request.shard_id;
        empty.seq = request.seq;
        WireWriter w;
        EncodePendingExport(empty, &w);
        // Tolerated for the same reason as send_request: the shard may
        // close its end between asking and our answer.
        (void)chan.Send(WireMsg::kPendingExport, w.buf());
      } else if (frame.type == WireMsg::kResult) {
        WireReader r(frame.payload.data(), frame.payload.size());
        ASSERT_TRUE(DecodeShardResult(&r, &result));
        have_result = true;
      }
    }
    if (status == WireChannel::RecvStatus::kClosed && !have_result) {
      break;
    }
  }
  shard.join();

  ASSERT_TRUE(have_result) << "shard never reported a result";
  EXPECT_TRUE(shard_ok);
  EXPECT_GT(pendings_received, 0u);
  EXPECT_EQ(result.result.stats.pendings_exported, pendings_received);
}

TEST(DistReplayTest, TwoShardsReproduceSyscallBug) {
  constexpr const char* kReadBug = R"(
    int main() {
      char buf[64];
      int n = read(0, buf, 60);
      if (n == 13) {
        if (buf[0] == 'Z') { crash(2); }
      }
      return 0;
    }
  )";
  auto pipeline = MustBuild(kReadBug);
  const InstrumentationPlan plan =
      pipeline->MakePlan(PlanInputs::AllBranches());
  InputSpec spec;
  spec.argv = {"prog"};
  spec.world.listen_fd = -1;
  spec.world.stdin_stream = 0;
  StreamShape stream;
  stream.name = "stdin";
  const std::string data = "Zsecretsecret";  // 13 bytes.
  stream.bytes.assign(data.begin(), data.end());
  stream.length = 13;
  spec.world.streams.push_back(stream);

  const auto user = pipeline->RecordUserRun(spec, plan, {}).take();
  ASSERT_TRUE(user.result.Crashed());

  ReplayConfig config;
  config.num_shards = 2;
  config.num_workers = 1;  // 2 processes x 1 thread.
  const ReplayResult replay = pipeline->Reproduce(user.report, plan, config).take();
  ASSERT_TRUE(replay.reproduced);
}

// ----- ShardFleet: one fleet, many jobs -----
//
// RunDistributedJob is driven directly against a fleet the test owns,
// the way the replay service drives its standing fleet. Each scenario
// runs over both transports.

struct FleetFixture {
  std::unique_ptr<Pipeline> pipeline = MustBuild(kDeepGuardedCrash);
  InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  Pipeline::UserRunOutput user = pipeline->RecordUserRun(DeepGuardedCrashInput(), plan, {}).take();

  ReplayConfig Config(ReplayTransport transport) const {
    ReplayConfig config;
    config.num_shards = 2;
    config.num_workers = 1;
    config.transport = transport;
    config.program.app = kDeepGuardedCrash;  // TCP shards rebuild the module from it.
    return config;
  }

  ReplayResult Run(ShardFleet& fleet, const ReplayConfig& config) const {
    return RunDistributedJob(pipeline->module(), plan, user.report, config, fleet);
  }
};

// One fleet serves three jobs, its counters right after each, and no
// shard is lost along the way. The scout never settles this report on
// its own (at these seeds), so every job reaches both shards.
void FleetServesThreeJobs(ReplayTransport transport) {
  const FleetFixture f;
  ASSERT_TRUE(f.user.result.Crashed());
  ReplayConfig config = f.Config(transport);
  ShardFleet fleet(f.pipeline->module(), config);
  ASSERT_TRUE(fleet.Start());
  EXPECT_EQ(fleet.num_shards(), 2u);
  EXPECT_EQ(fleet.live_shards(), 2u);
  for (u64 job = 1; job <= 3; ++job) {
    config.seed = 290 + job;
    const ReplayResult replay = f.Run(fleet, config);
    ASSERT_TRUE(replay.reproduced) << "job " << job;
    ASSERT_EQ(replay.stats.per_shard.size(), 2u) << "job " << job;
    EXPECT_TRUE(f.pipeline->VerifyWitness(f.user.report, replay.witness_cells));
    EXPECT_EQ(replay.stats.shards_lost, 0u) << "job " << job;
    EXPECT_EQ(fleet.jobs_dispatched(), job);
    EXPECT_EQ(fleet.live_shards(), 2u) << "job " << job;
  }
  fleet.Shutdown();
  EXPECT_EQ(fleet.live_shards(), 0u);
}

// The same report twice: each shard keeps its slice cache between jobs,
// so the duplicate re-proves fewer slices than the first search did.
void DuplicateJobStartsWarm(ReplayTransport transport) {
  const FleetFixture f;
  ASSERT_TRUE(f.user.result.Crashed());
  const ReplayConfig config = f.Config(transport);
  ShardFleet fleet(f.pipeline->module(), config);
  const ReplayResult first = f.Run(fleet, config);
  const ReplayResult second = f.Run(fleet, config);
  ASSERT_TRUE(first.reproduced);
  ASSERT_TRUE(second.reproduced);
  ASSERT_EQ(first.stats.per_shard.size(), 2u);
  ASSERT_EQ(second.stats.per_shard.size(), 2u);
  EXPECT_EQ(fleet.jobs_dispatched(), 2u);
  EXPECT_GT(first.stats.slices_solved, 0u);
  EXPECT_LT(second.stats.slices_solved, first.stats.slices_solved);
}

// A shard whose channel closes at its first frame retires with its slot;
// the job still reproduces, and the next job runs on the survivor alone.
void LostShardRetiresAndTheSurvivorServesOn(ReplayTransport transport) {
  const FleetFixture f;
  ASSERT_TRUE(f.user.result.Crashed());
  ReplayConfig config = f.Config(transport);
  config.fault_spec = "shard0:close@frame1";
  ShardFleet fleet(f.pipeline->module(), config);
  ASSERT_TRUE(fleet.Start());

  const ReplayResult hit = f.Run(fleet, config);
  ASSERT_TRUE(hit.reproduced);
  EXPECT_TRUE(f.pipeline->VerifyWitness(f.user.report, hit.witness_cells));
  ASSERT_EQ(hit.stats.per_shard.size(), 2u);
  EXPECT_EQ(hit.stats.shards_lost, 1u);
  EXPECT_TRUE(hit.stats.per_shard[0].lost);
  EXPECT_EQ(fleet.live_shards(), 1u);

  config.seed = 7;
  const ReplayResult next = f.Run(fleet, config);
  ASSERT_TRUE(next.reproduced);
  EXPECT_TRUE(f.pipeline->VerifyWitness(f.user.report, next.witness_cells));
  EXPECT_EQ(next.stats.shards_lost, 0u);
  ASSERT_EQ(next.stats.per_shard.size(), 2u);    // The scout did not settle it.
  EXPECT_EQ(next.stats.per_shard[0].runs, 0u);  // Retired slot: nothing ran there.
  EXPECT_GT(next.stats.per_shard[1].runs, 0u);  // The survivor ran the job.
  EXPECT_EQ(fleet.jobs_dispatched(), 2u);
  EXPECT_EQ(fleet.live_shards(), 1u);
}

TEST(DistReplayTest, ForkFleetServesThreeJobs) { FleetServesThreeJobs(ReplayTransport::kFork); }
TEST(DistReplayTest, TcpFleetServesThreeJobs) { FleetServesThreeJobs(ReplayTransport::kTcp); }
TEST(DistReplayTest, ForkFleetDuplicateJobStartsWarm) {
  DuplicateJobStartsWarm(ReplayTransport::kFork);
}
TEST(DistReplayTest, TcpFleetDuplicateJobStartsWarm) {
  DuplicateJobStartsWarm(ReplayTransport::kTcp);
}
TEST(DistReplayTest, ForkFleetLostShardRetiresAndTheSurvivorServesOn) {
  LostShardRetiresAndTheSurvivorServesOn(ReplayTransport::kFork);
}
TEST(DistReplayTest, TcpFleetLostShardRetiresAndTheSurvivorServesOn) {
  LostShardRetiresAndTheSurvivorServesOn(ReplayTransport::kTcp);
}

}  // namespace
}  // namespace retrace
