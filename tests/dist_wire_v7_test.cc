// The "v7" in this file and suite name is historical: it is kept so
// existing test names stay stable. It does not name a wire version
// (there is one kWireVersion; tests/dist_wire_testutil.h).
//
// Wire tests for the standing-fleet job exchange (kJobBegin/kJobEnd and
// what a job never carries), the service ingest codecs
// (kReportSubmit/kReportVerdict/kHealthStats), the structural report
// fingerprint behind crash clustering, and the shared-secret join token.
// Every decoder faces network bytes from a listening daemon, so each one
// gets the same hostile-input treatment as the search codecs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/dist/wire.h"
#include "tests/dist_wire_testutil.h"

namespace retrace {
namespace {

std::vector<Sample> ValidPayloads() {
  WireJob minimal;  // Fork-shard shape: no sources, defaults elsewhere.
  minimal.config.max_runs = 321;
  minimal.report = MakeReport('b');
  std::vector<Sample> rows = {
      Row("job_begin_minimal", Begin(7, minimal), EncodeJobBegin, DecodeJobBegin),
      Row("job_end", WireJobEnd{99}, EncodeJobEnd, DecodeJobEnd),
      Row("report_submit", WireReportSubmit{"alice", MakeReport('c')}, EncodeReportSubmit,
          DecodeReportSubmit),
      Row("health_stats", MakeStats(), EncodeHealthStats, DecodeHealthStats),
  };
  for (const VerdictOrigin origin : {VerdictOrigin::kFresh, VerdictOrigin::kAttached,
                                     VerdictOrigin::kCached, VerdictOrigin::kRejected}) {
    WireReportVerdict verdict;
    verdict.cluster = 0xfeedfaceull;
    verdict.origin = static_cast<u8>(origin);
    verdict.result.result.reproduced = origin != VerdictOrigin::kRejected;
    verdict.result.result.stats.runs = 55;
    rows.push_back(Row("report_verdict_" + std::to_string(verdict.origin), verdict,
                       EncodeReportVerdict, DecodeReportVerdict));
  }
  return rows;
}

TEST(DistWireV7Test, EveryCodecRoundTripsByteExactly) {
  for (const Sample& row : ValidPayloads()) {
    ExpectRoundTrip(row);
  }
}

TEST(DistWireV7Test, EveryCodecRejectsEveryTruncatedPrefix) {
  for (const Sample& row : ValidPayloads()) {
    ExpectEveryPrefixRefused(row);
  }
}

std::vector<HostileCase> HostilePayloads() {
  std::vector<HostileCase> cases;
  cases.push_back({"join_hostile_token",
                   Encode(EncodeJoin, WireJoin{"shard-7/991", 4, std::string(100'000, 's')}),
                   DecoderOf(DecodeJoin)});
  cases.push_back({"submit_hostile_tenant",
                   Encode(EncodeReportSubmit,
                          WireReportSubmit{std::string(100'000, 't'), MakeReport('c')}),
                   DecoderOf(DecodeReportSubmit)});
  {
    WireReportVerdict verdict;
    verdict.cluster = 1;
    std::vector<u8> payload = Encode(EncodeReportVerdict, verdict);
    payload[8] = 4;  // The origin byte follows the u64 cluster: one past kRejected.
    cases.push_back({"verdict_forged_origin", payload, DecoderOf(DecodeReportVerdict)});
  }
  {
    WireHealthStats stats = MakeStats();
    stats.rows.clear();
    std::vector<u8> payload = Encode(EncodeHealthStats, stats);
    // The row count is the last u32 of the payload (no rows follow):
    // past the protocol ceiling it is refused before allocation.
    std::fill(payload.end() - 4, payload.end() - 1, 0xff);
    payload.back() = 0x7f;
    cases.push_back({"health_absurd_rows", payload, DecoderOf(DecodeHealthStats)});
    stats.rows = {{0x11ull, 3, 0, 1}};  // Valid states are 0..2.
    cases.push_back({"health_forged_state", Encode(EncodeHealthStats, stats),
                     DecoderOf(DecodeHealthStats)});
  }
  return cases;
}

TEST(DistWireV7Test, EveryDecoderRefusesHostilePayloads) {
  for (const HostileCase& c : HostilePayloads()) {
    ExpectRefused(c);
  }
}

// A shipped job never nests the coordinator's transport or fleet shape,
// its fault schedule (a coordinator-local test harness), its auth token
// (which authenticates the channel, it must not ride it) or its shard
// endpoints. Those fields change no byte on the wire.
TEST(DistWireV7Test, JobBeginShipsNoCoordinatorState) {
  WireJob job = MakeJob();
  const std::vector<u8> clean = Encode(EncodeJobBegin, Begin(1, job));
  job.config.num_shards = 4;
  job.config.transport = ReplayTransport::kTcp;
  job.config.fault_spec = "all:close@frame1";
  job.config.shard_token = "super-secret";
  job.config.shard_endpoints = {"10.0.0.1:7000"};
  const std::vector<u8> payload = Encode(EncodeJobBegin, Begin(1, job));
  EXPECT_EQ(payload, clean);

  WireJobBegin decoded;
  decoded.job.config.fault_spec = "stale-from-last-job";
  WireReader r(payload.data(), payload.size());
  ASSERT_TRUE(DecodeJobBegin(&r, &decoded));
  EXPECT_EQ(decoded.job_id, 1u);
  EXPECT_EQ(decoded.job.config.num_shards, 1u);
  EXPECT_EQ(decoded.job.config.transport, ReplayTransport::kFork);
  EXPECT_TRUE(decoded.job.config.fault_spec.empty());
  EXPECT_TRUE(decoded.job.config.shard_token.empty());
  EXPECT_TRUE(decoded.job.config.shard_endpoints.empty());
  // What it does carry arrives intact.
  EXPECT_EQ(decoded.job.config.heartbeat_timeout_ms, 30'000);
  EXPECT_EQ(decoded.job.config.corpus_seeds, job.config.corpus_seeds);
  EXPECT_EQ(decoded.job.config.program.libs, job.config.program.libs);
  EXPECT_EQ(decoded.job.plan.provenance, job.plan.provenance);
  EXPECT_EQ(decoded.job.report.shape.world.files, job.report.shape.world.files);
  EXPECT_TRUE(decoded.job.report.crash.SameSite(job.report.crash));
}

// ----- Report fingerprint (crash clustering) -----

TEST(DistWireV7Test, FingerprintIsStableAndSeparatesStructurallyDifferentReports) {
  const BugReport base = MakeReport('a');
  EXPECT_EQ(ReportFingerprint(base), ReportFingerprint(MakeReport('a')));
  // A different argv shape is a different cluster.
  EXPECT_NE(ReportFingerprint(base), ReportFingerprint(MakeReport('b')));
  // So is one flipped branch-log bit.
  BugReport flipped = base;
  flipped.branch_log = BitVec();
  for (int i = 0; i < 17; ++i) {
    flipped.branch_log.PushBit(i == 0);
  }
  EXPECT_NE(ReportFingerprint(base), ReportFingerprint(flipped));
  // And a different crash site.
  BugReport moved = base;
  moved.crash.func = 3;
  EXPECT_NE(ReportFingerprint(base), ReportFingerprint(moved));
}

}  // namespace
}  // namespace retrace
