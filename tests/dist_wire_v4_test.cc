// The "v4" in this file and suite name is historical: it is kept so
// existing test names stay stable. It does not name a wire version
// (there is one kWireVersion; tests/dist_wire_testutil.h).
//
// Wire tests for the off-log failure profile nested in every stats
// payload, and the plan metadata (method, detail_level, provenance)
// carried by the kJobBegin job payload: byte-exact and randomized round
// trips, every-prefix truncation, and hostile-shape rejection.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dist/wire.h"
#include "src/support/rng.h"
#include "tests/dist_wire_testutil.h"

namespace retrace {
namespace {

std::vector<Sample> ValidPayloads() {
  return {
      Row("failure_profile", MakeProfile(), EncodeFailureProfile, DecodeFailureProfile),
      Row("failure_profile_empty", ReplayFailureProfile{}, EncodeFailureProfile,
          DecodeFailureProfile),
  };
}

TEST(DistWireV4Test, FailureProfileRoundTripsByteExactly) {
  for (const Sample& row : ValidPayloads()) {
    ExpectRoundTrip(row);
  }
}

TEST(DistWireV4Test, FailureProfileRejectsEveryTruncatedPrefix) {
  for (const Sample& row : ValidPayloads()) {
    ExpectEveryPrefixRefused(row);
  }
}

// Any strictly-increasing id sequence with arbitrary 64-bit counters.
TEST(DistWireV4Test, FailureProfileRoundTripProperty) {
  Rng rng(1234);
  for (int iter = 0; iter < 100; ++iter) {
    ReplayFailureProfile profile;
    u32 id = 0;
    const size_t count = rng.Next() % 20;
    for (size_t i = 0; i < count; ++i) {
      id += 1 + static_cast<u32>(rng.Next() % 1000);
      profile.branches.push_back(
          BranchFailureCounts{id, rng.Next(), rng.Next(), rng.Next(), rng.Next()});
    }
    profile.deaths_unattributed = rng.Next();
    ExpectRoundTrip(Row("random_profile", profile, EncodeFailureProfile, DecodeFailureProfile));
  }
}

std::vector<HostileCase> HostilePayloads() {
  std::vector<HostileCase> cases;
  {
    WireWriter w;
    w.U32(0x7fffffff);  // Claims ~2B entries in a 4-byte payload.
    cases.push_back({"profile_absurd_count", w.Take(), DecoderOf(DecodeFailureProfile)});
  }
  {
    // branch_id must stay below the job branch cap (1 << 24).
    WireWriter w;
    w.U32(1);
    w.U32(1u << 24);
    for (int i = 0; i < 5; ++i) {
      w.U64(i == 0 ? 1 : 0);  // Four counters, then deaths_unattributed.
    }
    cases.push_back({"profile_branch_id_past_cap", w.Take(), DecoderOf(DecodeFailureProfile)});
  }
  for (const u32 second_id : {5u, 3u}) {  // Duplicate and decreasing ids.
    WireWriter w;
    w.U32(2);
    w.U32(5);
    for (const u64 v : {1, 0, 0, 9}) {
      w.U64(v);
    }
    w.U32(second_id);
    for (const u64 v : {0, 2, 0, 9, 0}) {
      w.U64(v);
    }
    cases.push_back({"profile_id_" + std::to_string(second_id) + "_after_5", w.Take(),
                     DecoderOf(DecodeFailureProfile)});
  }
  cases.push_back(ForgedJob("job_plan_method", [](WireJob* job) {
    job->plan.method = static_cast<InstrumentMethod>(11);
  }));
  // A provenance string past the cap (diagnostic text, not a channel).
  cases.push_back(ForgedJob("job_provenance", [](WireJob* job) {
    job->plan.provenance = std::string(100'000, 'p');
  }));
  // No refinement loop adds more rounds than there are branches.
  cases.push_back(ForgedJob("job_detail_level",
                            [](WireJob* job) { job->plan.detail_level = (1u << 24) + 1; }));
  return cases;
}

TEST(DistWireV4Test, DecodersRefuseHostileProfilesAndPlanMetadata) {
  for (const HostileCase& c : HostilePayloads()) {
    ExpectRefused(c);
  }
}

}  // namespace
}  // namespace retrace
