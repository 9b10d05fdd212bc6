// The "v5" in this file and suite name is historical: it is kept so
// existing test names stay stable. It does not name a wire version
// (there is one kWireVersion; tests/dist_wire_testutil.h).
//
// Wire tests for the failure-handling parts of the distributed replay
// protocol: the kHeartbeat codec, the graceful-degradation stats fields
// riding in every shard result, and the heartbeat knobs shipped (and
// range-validated) in the kJobBegin job payload.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dist/wire.h"
#include "tests/dist_wire_testutil.h"

namespace retrace {
namespace {

std::vector<Sample> ValidPayloads() {
  WireShardResult lean;  // Every failure/profile field at its default.
  lean.result.stats.runs = 1;
  WireJob heartbeats_off = MakeJob();
  heartbeats_off.config.heartbeat_interval_ms = 0;  // 0 = sends disabled.
  heartbeats_off.config.heartbeat_timeout_ms = 0;   // 0 = deadline disabled.
  // MakeJob's bools flipped, so no two of them share a value in both rows.
  heartbeats_off.config.use_syscall_log = false;
  heartbeats_off.config.solver_cache = true;
  return {
      Row("heartbeat", WireHeartbeat{0xfeedfacecafe0042ull}, EncodeHeartbeat, DecodeHeartbeat),
      Row("shard_result_lean", lean, EncodeShardResult, DecodeShardResult),
      Row("job_begin_heartbeats_off", Begin(43, heartbeats_off), EncodeJobBegin, DecodeJobBegin),
  };
}

TEST(DistWireV5Test, EveryCodecRoundTripsByteExactly) {
  for (const Sample& row : ValidPayloads()) {
    ExpectRoundTrip(row);
  }
}

TEST(DistWireV5Test, EveryCodecRejectsEveryTruncatedPrefix) {
  for (const Sample& row : ValidPayloads()) {
    ExpectEveryPrefixRefused(row);
  }
}

TEST(DistWireV5Test, ShardResultFailureStatsDefaultToZero) {
  WireShardResult shard;
  shard.result.stats.runs = 1;
  const std::vector<u8> payload = Encode(EncodeShardResult, shard);
  WireReader r(payload.data(), payload.size());
  WireShardResult decoded;
  ASSERT_TRUE(DecodeShardResult(&r, &decoded));
  EXPECT_EQ(decoded.result.stats.shards_lost, 0u);
  EXPECT_EQ(decoded.result.stats.pendings_recovered, 0u);
  EXPECT_EQ(decoded.result.stats.heartbeats_missed, 0u);
  EXPECT_FALSE(decoded.result.stats.fallback_inprocess);
  EXPECT_TRUE(decoded.result.stats.failure_profile.Empty());
}

// Hostile heartbeat knobs must not turn a shard's self-termination
// deadline into a negative wait or a decades-long one.
TEST(DistWireV5Test, JobDecodeRejectsHostileHeartbeatKnobs) {
  const struct {
    i32 interval_ms;
    i32 timeout_ms;
  } knobs[] = {{-1, 10'000}, {60'001, 10'000}, {100, -1}, {100, 600'001}};
  for (const auto& k : knobs) {
    ExpectRefused(ForgedJob(
        "job_heartbeat_" + std::to_string(k.interval_ms) + "_" + std::to_string(k.timeout_ms),
        [k](WireJob* job) {
          job->config.heartbeat_interval_ms = k.interval_ms;
          job->config.heartbeat_timeout_ms = k.timeout_ms;
        }));
  }
}

}  // namespace
}  // namespace retrace
