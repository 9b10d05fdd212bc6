// End-to-end tests for the replay service (src/service/): duplicate
// reports cluster onto one search, distinct reports open distinct
// clusters on the same resident service, admission budgets reject at the
// door, health stats expose the cluster table, and the slice-cache
// snapshot warm-starts a restarted daemon, and every published witness
// re-verifies. Searches run in-process (num_shards = 1) except on the
// default fork fleet of one test; the ShardFleet tests of
// dist_replay_test.cc and the CI service smoke legs cover the fleet.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pipeline.h"
#include "src/service/report_queue.h"
#include "src/service/service.h"
#include "tests/testutil.h"

namespace retrace {
namespace {

// Crashes iff argv[1] starts with "k9" and argv[2][0] > '5' (the
// miniature scenario shared with the distributed replay tests).
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

std::unique_ptr<Pipeline> MustBuild() {
  auto r = Pipeline::FromSources(kGuardedCrash, {});
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().ToString());
  return r.take();
}

InputSpec CrashInput(const char* second) {
  InputSpec spec;
  spec.argv = {"prog", "k9", second};
  spec.world.listen_fd = -1;
  return spec;
}

BugReport RecordCrash(Pipeline* pipeline, const InstrumentationPlan& plan,
                      const char* second) {
  auto user = pipeline->RecordUserRun(CrashInput(second), plan, {}).take();
  EXPECT_TRUE(user.result.Crashed());
  return user.report;
}

ServiceConfig InProcessConfig() {
  ServiceConfig config;
  config.replay.num_shards = 1;
  config.replay.num_workers = 2;
  return config;
}

// N identical reports must cost exactly one search: the first admission
// is kFresh and every concurrent duplicate either attaches to the
// in-flight search or reads the solved cluster — never a second search.
TEST(DistServiceTest, DuplicateReportsCostOneSearch) {
  auto pipeline = MustBuild();
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const BugReport report = RecordCrash(pipeline.get(), plan, "7");

  auto service = pipeline->MakeService(plan, InProcessConfig()).take();
  ASSERT_TRUE(service->Start());

  constexpr int kSubmitters = 3;
  std::vector<ServiceVerdict> verdicts(kSubmitters);
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  for (int i = 0; i < kSubmitters; ++i) {
    threads.emplace_back([&, i] { verdicts[i] = service->Submit("alice", report); });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  int fresh = 0;
  for (const ServiceVerdict& v : verdicts) {
    EXPECT_TRUE(v.reproduced);
    EXPECT_TRUE(pipeline->VerifyWitness(report, v.result.witness_cells));
    EXPECT_EQ(v.cluster, verdicts[0].cluster);
    if (v.origin == VerdictOrigin::kFresh) {
      ++fresh;
    } else {
      EXPECT_TRUE(v.origin == VerdictOrigin::kAttached ||
                  v.origin == VerdictOrigin::kCached);
    }
  }
  EXPECT_EQ(fresh, 1);

  const WireHealthStats health = service->HealthStats();
  EXPECT_EQ(health.reports_ingested, 3u);
  EXPECT_EQ(health.clusters, 1u);
  EXPECT_EQ(health.searches_run, 1u);
  EXPECT_EQ(health.duplicates_attached + health.cached_verdicts, 2u);
  EXPECT_EQ(health.rejected, 0u);
  service->Shutdown();
}

// A second, structurally different report on the same resident service
// opens a second cluster and a second search — and a late duplicate of
// the first cluster still answers from the solved table.
TEST(DistServiceTest, DistinctReportsOpenDistinctClusters) {
  auto pipeline = MustBuild();
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  // Same crash site, but a different argv *shape*: report contents are
  // privacy-masked, so only structural differences separate clusters.
  const BugReport first = RecordCrash(pipeline.get(), plan, "7");
  const BugReport second = RecordCrash(pipeline.get(), plan, "77");

  auto service = pipeline->MakeService(plan, InProcessConfig()).take();
  ASSERT_TRUE(service->Start());

  const ServiceVerdict v1 = service->Submit("alice", first);
  const ServiceVerdict v2 = service->Submit("bob", second);
  const ServiceVerdict v3 = service->Submit("carol", first);

  EXPECT_EQ(v1.origin, VerdictOrigin::kFresh);
  EXPECT_TRUE(v1.reproduced);
  EXPECT_EQ(v2.origin, VerdictOrigin::kFresh);
  EXPECT_TRUE(v2.reproduced);
  EXPECT_NE(v1.cluster, v2.cluster);
  EXPECT_EQ(v3.origin, VerdictOrigin::kCached);
  EXPECT_EQ(v3.cluster, v1.cluster);
  EXPECT_TRUE(v3.reproduced);

  const WireHealthStats health = service->HealthStats();
  EXPECT_EQ(health.reports_ingested, 3u);
  EXPECT_EQ(health.clusters, 2u);
  EXPECT_EQ(health.searches_run, 2u);
  EXPECT_EQ(health.cached_verdicts, 1u);
  ASSERT_EQ(health.rows.size(), 2u);
  for (const WireClusterRow& row : health.rows) {
    EXPECT_EQ(row.state, 2u);  // Both solved.
    EXPECT_EQ(row.reproduced, 1u);
  }
  // The cluster that absorbed the duplicate reports two sightings.
  const u64 dup_reports =
      (health.rows[0].fp == v1.cluster ? health.rows[0] : health.rows[1]).reports;
  EXPECT_EQ(dup_reports, 2u);
  service->Shutdown();
}

// With num_shards > 1 the service searches on its standing fleet, fork
// shards by default, and publishes only witnesses that re-verify.
TEST(DistServiceTest, ForkFleetPublishesVerifiedWitnesses) {
  auto pipeline = MustBuild();
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const BugReport first = RecordCrash(pipeline.get(), plan, "7");
  const BugReport second = RecordCrash(pipeline.get(), plan, "77");

  ServiceConfig config;
  config.replay.num_shards = 2;
  auto service = pipeline->MakeService(plan, config).take();
  ASSERT_TRUE(service->Start());
  for (const BugReport* report : {&first, &second, &first}) {
    const ServiceVerdict v = service->Submit("alice", *report);
    ASSERT_TRUE(v.reproduced);
    EXPECT_TRUE(pipeline->VerifyWitness(*report, v.result.witness_cells));
  }
  const WireHealthStats health = service->HealthStats();
  EXPECT_EQ(health.searches_run, 2u);
  EXPECT_EQ(health.fleet_shards, 2u);
  EXPECT_EQ(health.fleet_live, 2u);
  service->Shutdown();
}

// Admission budgets reject at the door: a tenant with no budget gets
// kRejected (empty result), and the counters say so.
TEST(DistServiceTest, AdmissionRejectsOverBudgetTenant) {
  auto pipeline = MustBuild();
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const BugReport report = RecordCrash(pipeline.get(), plan, "7");

  ServiceConfig config = InProcessConfig();
  config.per_tenant_cap = 0;
  auto service = pipeline->MakeService(plan, config).take();
  ASSERT_TRUE(service->Start());

  const ServiceVerdict v = service->Submit("spammer", report);
  EXPECT_EQ(v.origin, VerdictOrigin::kRejected);
  EXPECT_FALSE(v.reproduced);
  EXPECT_FALSE(v.result.reproduced);

  const WireHealthStats health = service->HealthStats();
  EXPECT_EQ(health.reports_ingested, 1u);
  EXPECT_EQ(health.rejected, 1u);
  EXPECT_EQ(health.searches_run, 0u);
  service->Shutdown();
}

// The admission queue itself: strict per-tenant budgets that release on
// search completion, and a global capacity that sheds load.
TEST(DistServiceTest, ReportQueueEnforcesBudgets) {
  ReportQueue queue(/*capacity=*/2, /*per_tenant_cap=*/1);
  EXPECT_TRUE(queue.Admit("alice", 1));
  EXPECT_FALSE(queue.Admit("alice", 2));  // Over the tenant cap.
  EXPECT_TRUE(queue.Admit("bob", 3));     // Another tenant is unaffected.
  EXPECT_FALSE(queue.Admit("carol", 4));  // Global capacity reached.
  EXPECT_EQ(queue.depth(), 2u);

  u64 fp = 0;
  std::string tenant;
  ASSERT_TRUE(queue.Pop(&fp, &tenant));
  EXPECT_EQ(fp, 1u);
  EXPECT_EQ(tenant, "alice");
  // Popped but not released: alice stays charged while her search runs.
  EXPECT_FALSE(queue.Admit("alice", 5));
  queue.Release("alice");
  EXPECT_TRUE(queue.Admit("alice", 5));
}

// A restarted daemon warm-starts from the slice-cache snapshot: the
// second service instance loads the entries the first one saved, and the
// same report re-searches solving fewer slices than the cold run did.
TEST(DistServiceTest, SnapshotWarmStartsARestartedService) {
  auto pipeline = MustBuild();
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const BugReport report = RecordCrash(pipeline.get(), plan, "7");

  const std::string path = testing::TempDir() + "dist_service_snapshot.bin";
  std::remove(path.c_str());

  ServiceConfig config = InProcessConfig();
  config.snapshot_path = path;

  u64 cold_hits = 0;
  u64 cold_solved = 0;
  u64 saved_entries = 0;
  {
    auto service = pipeline->MakeService(plan, config).take();
    ASSERT_TRUE(service->Start());
    EXPECT_FALSE(service->snapshot_loaded());  // Nothing on disk yet.
    const ServiceVerdict v = service->Submit("alice", report);
    ASSERT_EQ(v.origin, VerdictOrigin::kFresh);
    ASSERT_TRUE(v.reproduced);
    cold_hits = v.result.stats.slice_sat_hits + v.result.stats.slice_unsat_hits;
    cold_solved = v.result.stats.slices_solved;
    ASSERT_GT(cold_solved, 0u);
    saved_entries = service->cache().sat_entries() + service->cache().unsat_entries();
    ASSERT_GT(saved_entries, 0u);
    service->Shutdown();  // Saves the snapshot.
  }

  {
    auto service = pipeline->MakeService(plan, config).take();
    ASSERT_TRUE(service->Start());
    EXPECT_TRUE(service->snapshot_loaded());
    // Every entry the first daemon proved is resident before any search.
    EXPECT_EQ(service->cache().sat_entries() + service->cache().unsat_entries(),
              saved_entries);
    EXPECT_EQ(service->HealthStats().snapshot_loaded, 1u);

    // A fresh registry means a fresh search — but against a warm cache:
    // the slices the cold run had to solve are now hits.
    const ServiceVerdict v = service->Submit("alice", report);
    ASSERT_EQ(v.origin, VerdictOrigin::kFresh);
    ASSERT_TRUE(v.reproduced);
    // Two search workers race on the shared cache, so a cold run whose
    // second worker reuses the first one's verdicts can already score as
    // many hits as the warm run. The warm run still solves fewer slices,
    // and hits no fewer.
    const u64 warm_hits = v.result.stats.slice_sat_hits + v.result.stats.slice_unsat_hits;
    EXPECT_LT(v.result.stats.slices_solved, cold_solved);
    EXPECT_GE(warm_hits, cold_hits);
    service->Shutdown();
  }
  std::remove(path.c_str());
}

// A torn or tampered snapshot must not poison a starting daemon: the
// load is refused, the cache stays empty, and the service still serves.
TEST(DistServiceTest, CorruptSnapshotIsRefusedNotLoaded) {
  auto pipeline = MustBuild();
  const InstrumentationPlan plan = pipeline->MakePlan(PlanInputs::AllBranches());
  const BugReport report = RecordCrash(pipeline.get(), plan, "7");

  const std::string path = testing::TempDir() + "dist_service_bad_snapshot.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a snapshot";
  }

  ServiceConfig config = InProcessConfig();
  config.snapshot_path = path;
  auto service = pipeline->MakeService(plan, config).take();
  ASSERT_TRUE(service->Start());
  EXPECT_FALSE(service->snapshot_loaded());
  EXPECT_EQ(service->cache().sat_entries() + service->cache().unsat_entries(), 0u);

  const ServiceVerdict v = service->Submit("alice", report);
  EXPECT_EQ(v.origin, VerdictOrigin::kFresh);
  EXPECT_TRUE(v.reproduced);
  service->Shutdown();
  std::remove(path.c_str());
}

// Submitting against a plan mismatch is a misuse guard at MakeService
// time, not a runtime surprise.
TEST(DistServiceTest, MakeServiceRefusesForeignPlan) {
  auto pipeline = MustBuild();
  InstrumentationPlan foreign = pipeline->MakePlan(PlanInputs::AllBranches());
  foreign.branches = DenseBitset(foreign.branches.size() + 5);
  auto r = pipeline->MakeService(foreign, InProcessConfig());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace retrace
