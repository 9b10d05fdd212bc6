// Shared sample values and table machinery for the wire-format tests
// (tests/dist_wire*_test.cc). Every codec family gets the same checks:
//
//   - a table of valid payloads: every row must decode to the value it
//     was encoded from (field by field), consume its whole payload and
//     re-encode to the same bytes, and every strict prefix of every row
//     must be refused;
//   - a table of hostile payloads that every decoder must refuse — a
//     listening retrace_shardd or retrace_serviced decodes network bytes.
//
// There is one kWireVersion (a frame of any other version is refused
// outright), so there is no cross-version decoding to test.
#ifndef RETRACE_TESTS_DIST_WIRE_TESTUTIL_H_
#define RETRACE_TESTS_DIST_WIRE_TESTUTIL_H_

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/dist/wire.h"

namespace retrace {

// ----- Sample values -----

inline PortablePending MakePending(ExprArena* arena, u64 salt) {
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
  return pending;
}

inline ReplayFailureProfile MakeProfile() {
  ReplayFailureProfile profile;
  profile.branches.push_back(BranchFailureCounts{3, 7, 0, 1, 120});
  profile.branches.push_back(BranchFailureCounts{4, 0, 11, 0, 95});
  profile.branches.push_back(BranchFailureCounts{90, 1, 2, 3, 4});
  profile.deaths_unattributed = 13;
  return profile;
}

// Distinct values in every counter, so a codec that writes one field
// into another's slot decodes to a different value.
inline ReplayWorkerStats MakeWorkerStats(u64 base) {
  ReplayWorkerStats w;
  for (u64* field :
       {&w.runs, &w.solver_calls, &w.aborts_forced_direction, &w.aborts_concrete_mismatch,
        &w.aborts_log_exhausted, &w.crashes_wrong_site, &w.steals, &w.dedup_skips,
        &w.cancelled_runs, &w.slices_solved, &w.slice_sat_hits, &w.slice_unsat_hits,
        &w.corpus_runs, &w.resumed_runs, &w.instrs_skipped, &w.slices_inherited,
        &w.solves_from_base, &w.resumed_at_branch, &w.instrs_before_flip}) {
    *field = ++base;
  }
  return w;
}

inline WireShardResult MakeShardResult() {
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
  ReplayStats& s = shard.result.stats;
  u64 next = 1000;
  for (u64* field :
       {&s.runs, &s.solver_calls, &s.aborts_forced_direction, &s.aborts_concrete_mismatch,
        &s.aborts_log_exhausted, &s.crashes_wrong_site, &s.pending_peak, &s.steals,
        &s.dedup_skips, &s.cancelled_runs, &s.slices_solved, &s.slice_sat_hits,
        &s.slice_unsat_hits, &s.slice_evictions, &s.pendings_exported, &s.pendings_imported,
        &s.rebalance_rounds, &s.corpus_runs, &s.resumed_runs, &s.instrs_skipped,
        &s.slices_inherited, &s.solves_from_base, &s.resumed_at_branch,
        &s.instrs_before_flip, &s.shards_lost, &s.pendings_recovered, &s.heartbeats_missed}) {
    *field = ++next;
  }
  s.fallback_inprocess = true;
  s.per_worker = {MakeWorkerStats(100), MakeWorkerStats(200)};
  s.failure_profile = MakeProfile();
  shard.verdicts_published = 7;
  shard.verdicts_imported = 11;
  shard.pendings_seeded = 3;
  return shard;
}

inline BugReport MakeReport(char salt) {
  BugReport report;
  report.method = InstrumentMethod::kDynamic;
  for (int i = 0; i < 17; ++i) {
    report.branch_log.PushBit(((i + salt) % 3) == 0);
  }
  report.has_syscall_log = true;
  report.syscall_log = {{Builtin::kRead, 13}, {Builtin::kPollSignal, 1}};
  report.crash.kind = CrashSite::Kind::kExplicit;
  report.crash.func = 2;
  report.crash.loc = SourceLoc{0, 5, 3};
  report.crash.code = 7;
  report.shape.argv = {"prog", std::string(1, salt), "7"};
  report.shape.argv_public = {false, true};
  report.shape.world.listen_fd = -1;
  return report;
}

// Every config field the job codec ships set away from its default,
// plus a report that exercises streams, files and connections.
inline WireJob MakeJob() {
  WireJob job;
  ReplayConfig& c = job.config;
  c.max_runs = 777;
  c.wall_ms = 1234;
  c.total_steps = 999;
  c.max_steps_per_run = 88;
  c.solver.max_steps = 555;
  c.solver.max_enumeration = 66;
  c.seed = 0xabcdef;
  c.pick = ReplayConfig::Pick::kFifo;
  c.num_workers = 3;
  c.slice_cache_capacity = 99;
  c.gossip_interval_ms = 7;
  c.heartbeat_interval_ms = 250;
  c.heartbeat_timeout_ms = 30'000;
  c.corpus_seeds = {{65, 66, 67, 13}, {}, {120}};
  c.program.app = "int main() { return 0; }";
  c.program.libs = {"int helper() { return 1; }"};
  job.plan.method = InstrumentMethod::kDynamic;
  job.plan.branches = DenseBitset(16);
  job.plan.branches.Set(1);
  job.plan.branches.Set(9);
  job.plan.detail_level = 2;
  job.plan.provenance = "dynamic +refine#1(4) +refine#2(2)";
  job.report = MakeReport('a');
  StreamShape stream;
  stream.name = "stdin";
  stream.length = 13;
  stream.chunk = -1;
  job.report.shape.world.streams.push_back(stream);
  job.report.shape.world.files.emplace_back("/tmp/x", 0);
  job.report.shape.world.stdin_stream = 0;
  job.report.shape.world.connection_streams = {0};
  job.report.shape.world.max_concurrent_conns = 2;
  return job;
}

inline WireHealthStats MakeStats() {
  WireHealthStats stats;
  stats.reports_ingested = 10;
  stats.clusters = 3;
  stats.searches_run = 6;
  stats.duplicates_attached = 4;
  stats.cached_verdicts = 2;
  stats.rejected = 1;
  stats.queue_depth = 5;
  stats.in_flight = 9;
  stats.cache_sat_entries = 1234;
  stats.cache_unsat_entries = 567;
  stats.cache_evictions = 8;
  stats.snapshot_loaded = 1;
  stats.fleet_shards = 4;
  stats.fleet_live = 3;
  stats.fleet_jobs = 17;
  stats.rows = {{0xaaull, 2, 1, 6}, {0xbbull, 1, 0, 7}, {0xccull, 0, 0, 12}};
  return stats;
}

inline WireJobBegin Begin(u64 job_id, WireJob job) { return WireJobBegin{job_id, std::move(job)}; }

// ----- Decoded-value checks -----
//
// ExpectSame(want, got, where) compares what a decoder produced with the
// value that was encoded, field by field. A byte-exact re-encode alone
// would miss an encoder that writes one field into another's slot: its
// decoder reads the wrong value back and re-encodes the same bytes.
// Only fields a codec ships are compared.

#define RETRACE_EXPECT_FIELD(f) EXPECT_EQ(got.f, want.f) << where << "." #f

inline void ExpectSame(const WireHello& want, const WireHello& got, const std::string& where) {
  RETRACE_EXPECT_FIELD(shard_id);
  RETRACE_EXPECT_FIELD(num_shards);
  RETRACE_EXPECT_FIELD(pending_count);
}

inline void ExpectSame(const PortablePending& want, const PortablePending& got,
                       const std::string& where) {
  ASSERT_TRUE(got.trace != nullptr && got.seed != nullptr && got.domains != nullptr) << where;
  RETRACE_EXPECT_FIELD(trace->nodes);
  RETRACE_EXPECT_FIELD(trace->constraints);
  RETRACE_EXPECT_FIELD(len);
  RETRACE_EXPECT_FIELD(negate_last);
  EXPECT_EQ(*got.seed, *want.seed) << where << ".seed";
  EXPECT_EQ(*got.domains, *want.domains) << where << ".domains";
  RETRACE_EXPECT_FIELD(priority);
}

inline void ExpectSame(const WirePendingExport& want, const WirePendingExport& got,
                       const std::string& where) {
  RETRACE_EXPECT_FIELD(requester_shard_id);
  RETRACE_EXPECT_FIELD(seq);
  ASSERT_EQ(got.pendings.size(), want.pendings.size()) << where;
  for (size_t i = 0; i < want.pendings.size(); ++i) {
    ExpectSame(want.pendings[i], got.pendings[i], where + ".pendings[" + std::to_string(i) + "]");
  }
}

inline void ExpectSame(const WireVerdicts& want, const WireVerdicts& got,
                       const std::string& where) {
  ASSERT_EQ(got.sat.size(), want.sat.size()) << where;
  for (size_t i = 0; i < want.sat.size(); ++i) {
    RETRACE_EXPECT_FIELD(sat[i].key);
    RETRACE_EXPECT_FIELD(sat[i].model);
  }
  ASSERT_EQ(got.unsat.size(), want.unsat.size()) << where;
  for (size_t i = 0; i < want.unsat.size(); ++i) {
    RETRACE_EXPECT_FIELD(unsat[i].key);
    RETRACE_EXPECT_FIELD(unsat[i].check);
  }
}

inline void ExpectSame(const ReplayFailureProfile& want, const ReplayFailureProfile& got,
                       const std::string& where) {
  ASSERT_EQ(got.branches.size(), want.branches.size()) << where;
  for (size_t i = 0; i < want.branches.size(); ++i) {
    RETRACE_EXPECT_FIELD(branches[i].branch_id);
    RETRACE_EXPECT_FIELD(branches[i].deaths_concrete);
    RETRACE_EXPECT_FIELD(branches[i].deaths_exhausted);
    RETRACE_EXPECT_FIELD(branches[i].deaths_wrong_crash);
    RETRACE_EXPECT_FIELD(branches[i].blind_execs);
  }
  RETRACE_EXPECT_FIELD(deaths_unattributed);
}

inline void ExpectSame(const CrashSite& want, const CrashSite& got, const std::string& where) {
  RETRACE_EXPECT_FIELD(kind);
  RETRACE_EXPECT_FIELD(func);
  RETRACE_EXPECT_FIELD(loc.unit);
  RETRACE_EXPECT_FIELD(loc.line);
  RETRACE_EXPECT_FIELD(loc.col);
  RETRACE_EXPECT_FIELD(code);
}

inline void ExpectSame(const ReplayWorkerStats& want, const ReplayWorkerStats& got,
                       const std::string& where) {
  RETRACE_EXPECT_FIELD(runs);
  RETRACE_EXPECT_FIELD(solver_calls);
  RETRACE_EXPECT_FIELD(aborts_forced_direction);
  RETRACE_EXPECT_FIELD(aborts_concrete_mismatch);
  RETRACE_EXPECT_FIELD(aborts_log_exhausted);
  RETRACE_EXPECT_FIELD(crashes_wrong_site);
  RETRACE_EXPECT_FIELD(steals);
  RETRACE_EXPECT_FIELD(dedup_skips);
  RETRACE_EXPECT_FIELD(cancelled_runs);
  RETRACE_EXPECT_FIELD(slices_solved);
  RETRACE_EXPECT_FIELD(slice_sat_hits);
  RETRACE_EXPECT_FIELD(slice_unsat_hits);
  RETRACE_EXPECT_FIELD(corpus_runs);
  RETRACE_EXPECT_FIELD(resumed_runs);
  RETRACE_EXPECT_FIELD(instrs_skipped);
  RETRACE_EXPECT_FIELD(slices_inherited);
  RETRACE_EXPECT_FIELD(solves_from_base);
  RETRACE_EXPECT_FIELD(resumed_at_branch);
  RETRACE_EXPECT_FIELD(instrs_before_flip);
}

// The shipped subset: coordinator-side fields (harvest_runs, wire byte
// counters, per_shard, ...) never ride a shard result.
inline void ExpectSame(const ReplayStats& want, const ReplayStats& got, const std::string& where) {
  RETRACE_EXPECT_FIELD(runs);
  RETRACE_EXPECT_FIELD(solver_calls);
  RETRACE_EXPECT_FIELD(aborts_forced_direction);
  RETRACE_EXPECT_FIELD(aborts_concrete_mismatch);
  RETRACE_EXPECT_FIELD(aborts_log_exhausted);
  RETRACE_EXPECT_FIELD(crashes_wrong_site);
  RETRACE_EXPECT_FIELD(pending_peak);
  RETRACE_EXPECT_FIELD(steals);
  RETRACE_EXPECT_FIELD(dedup_skips);
  RETRACE_EXPECT_FIELD(cancelled_runs);
  RETRACE_EXPECT_FIELD(slices_solved);
  RETRACE_EXPECT_FIELD(slice_sat_hits);
  RETRACE_EXPECT_FIELD(slice_unsat_hits);
  RETRACE_EXPECT_FIELD(slice_evictions);
  RETRACE_EXPECT_FIELD(pendings_exported);
  RETRACE_EXPECT_FIELD(pendings_imported);
  RETRACE_EXPECT_FIELD(rebalance_rounds);
  RETRACE_EXPECT_FIELD(corpus_runs);
  RETRACE_EXPECT_FIELD(resumed_runs);
  RETRACE_EXPECT_FIELD(instrs_skipped);
  RETRACE_EXPECT_FIELD(slices_inherited);
  RETRACE_EXPECT_FIELD(solves_from_base);
  RETRACE_EXPECT_FIELD(resumed_at_branch);
  RETRACE_EXPECT_FIELD(instrs_before_flip);
  RETRACE_EXPECT_FIELD(shards_lost);
  RETRACE_EXPECT_FIELD(pendings_recovered);
  RETRACE_EXPECT_FIELD(heartbeats_missed);
  RETRACE_EXPECT_FIELD(fallback_inprocess);
  ASSERT_EQ(got.per_worker.size(), want.per_worker.size()) << where;
  for (size_t i = 0; i < want.per_worker.size(); ++i) {
    ExpectSame(want.per_worker[i], got.per_worker[i],
               where + ".per_worker[" + std::to_string(i) + "]");
  }
  ExpectSame(want.failure_profile, got.failure_profile, where + ".failure_profile");
}

inline void ExpectSame(const WireShardResult& want, const WireShardResult& got,
                       const std::string& where) {
  RETRACE_EXPECT_FIELD(result.reproduced);
  RETRACE_EXPECT_FIELD(result.budget_exhausted);
  RETRACE_EXPECT_FIELD(result.wall_seconds);
  RETRACE_EXPECT_FIELD(result.witness_argv);
  RETRACE_EXPECT_FIELD(result.witness_cells);
  ExpectSame(want.result.crash, got.result.crash, where + ".crash");
  ExpectSame(want.result.stats, got.result.stats, where + ".stats");
  RETRACE_EXPECT_FIELD(verdicts_published);
  RETRACE_EXPECT_FIELD(verdicts_imported);
  RETRACE_EXPECT_FIELD(pendings_seeded);
}

inline void ExpectSame(const WireWorkRequest& want, const WireWorkRequest& got,
                       const std::string& where) {
  RETRACE_EXPECT_FIELD(shard_id);
  RETRACE_EXPECT_FIELD(want);
  RETRACE_EXPECT_FIELD(frontier_size);
  RETRACE_EXPECT_FIELD(seq);
}

inline void ExpectSame(const WireJoin& want, const WireJoin& got, const std::string& where) {
  RETRACE_EXPECT_FIELD(ident);
  RETRACE_EXPECT_FIELD(num_workers);
  RETRACE_EXPECT_FIELD(token);
}

inline void ExpectSame(const WireHeartbeat& want, const WireHeartbeat& got,
                       const std::string& where) {
  RETRACE_EXPECT_FIELD(seq);
}

inline void ExpectSame(const WireJobEnd& want, const WireJobEnd& got, const std::string& where) {
  RETRACE_EXPECT_FIELD(jobs_served);
}

inline void ExpectSame(const BugReport& want, const BugReport& got, const std::string& where) {
  RETRACE_EXPECT_FIELD(method);
  EXPECT_TRUE(got.branch_log == want.branch_log) << where << ".branch_log";
  RETRACE_EXPECT_FIELD(has_syscall_log);
  ASSERT_EQ(got.syscall_log.size(), want.syscall_log.size()) << where;
  for (size_t i = 0; i < want.syscall_log.size(); ++i) {
    RETRACE_EXPECT_FIELD(syscall_log[i].kind);
    RETRACE_EXPECT_FIELD(syscall_log[i].value);
  }
  ExpectSame(want.crash, got.crash, where + ".crash");
  RETRACE_EXPECT_FIELD(shape.argv);
  RETRACE_EXPECT_FIELD(shape.argv_public);
  ASSERT_EQ(got.shape.world.streams.size(), want.shape.world.streams.size()) << where;
  for (size_t i = 0; i < want.shape.world.streams.size(); ++i) {
    RETRACE_EXPECT_FIELD(shape.world.streams[i].name);
    RETRACE_EXPECT_FIELD(shape.world.streams[i].bytes);
    RETRACE_EXPECT_FIELD(shape.world.streams[i].length);
    RETRACE_EXPECT_FIELD(shape.world.streams[i].chunk);
  }
  RETRACE_EXPECT_FIELD(shape.world.files);
  RETRACE_EXPECT_FIELD(shape.world.stdin_stream);
  RETRACE_EXPECT_FIELD(shape.world.connection_streams);
  RETRACE_EXPECT_FIELD(shape.world.max_concurrent_conns);
  RETRACE_EXPECT_FIELD(shape.world.listen_fd);
}

// The job ships the search-relevant config subset and the program
// sources; decode resets the coordinator-side fields (checked by
// JobBeginShipsNoCoordinatorState).
inline void ExpectSame(const WireJob& want, const WireJob& got, const std::string& where) {
  RETRACE_EXPECT_FIELD(config.max_runs);
  RETRACE_EXPECT_FIELD(config.wall_ms);
  RETRACE_EXPECT_FIELD(config.total_steps);
  RETRACE_EXPECT_FIELD(config.max_steps_per_run);
  RETRACE_EXPECT_FIELD(config.solver.max_steps);
  RETRACE_EXPECT_FIELD(config.solver.max_enumeration);
  RETRACE_EXPECT_FIELD(config.seed);
  RETRACE_EXPECT_FIELD(config.use_syscall_log);
  RETRACE_EXPECT_FIELD(config.pick);
  RETRACE_EXPECT_FIELD(config.num_workers);
  RETRACE_EXPECT_FIELD(config.slice_cache_capacity);
  RETRACE_EXPECT_FIELD(config.gossip_interval_ms);
  RETRACE_EXPECT_FIELD(config.heartbeat_interval_ms);
  RETRACE_EXPECT_FIELD(config.heartbeat_timeout_ms);
  RETRACE_EXPECT_FIELD(config.corpus_seeds);
  RETRACE_EXPECT_FIELD(config.program.app);
  RETRACE_EXPECT_FIELD(config.program.libs);
  RETRACE_EXPECT_FIELD(plan.method);
  RETRACE_EXPECT_FIELD(plan.detail_level);
  RETRACE_EXPECT_FIELD(plan.provenance);
  EXPECT_TRUE(got.plan.branches == want.plan.branches) << where << ".plan.branches";
  ExpectSame(want.report, got.report, where + ".report");
}

inline void ExpectSame(const WireJobBegin& want, const WireJobBegin& got,
                       const std::string& where) {
  RETRACE_EXPECT_FIELD(job_id);
  ExpectSame(want.job, got.job, where + ".job");
}

inline void ExpectSame(const WireReportSubmit& want, const WireReportSubmit& got,
                       const std::string& where) {
  RETRACE_EXPECT_FIELD(tenant);
  ExpectSame(want.report, got.report, where + ".report");
}

inline void ExpectSame(const WireReportVerdict& want, const WireReportVerdict& got,
                       const std::string& where) {
  RETRACE_EXPECT_FIELD(cluster);
  RETRACE_EXPECT_FIELD(origin);
  ExpectSame(want.result, got.result, where + ".result");
}

inline void ExpectSame(const WireHealthStats& want, const WireHealthStats& got,
                       const std::string& where) {
  RETRACE_EXPECT_FIELD(reports_ingested);
  RETRACE_EXPECT_FIELD(clusters);
  RETRACE_EXPECT_FIELD(searches_run);
  RETRACE_EXPECT_FIELD(duplicates_attached);
  RETRACE_EXPECT_FIELD(cached_verdicts);
  RETRACE_EXPECT_FIELD(rejected);
  RETRACE_EXPECT_FIELD(queue_depth);
  RETRACE_EXPECT_FIELD(in_flight);
  RETRACE_EXPECT_FIELD(cache_sat_entries);
  RETRACE_EXPECT_FIELD(cache_unsat_entries);
  RETRACE_EXPECT_FIELD(cache_evictions);
  RETRACE_EXPECT_FIELD(snapshot_loaded);
  RETRACE_EXPECT_FIELD(fleet_shards);
  RETRACE_EXPECT_FIELD(fleet_live);
  RETRACE_EXPECT_FIELD(fleet_jobs);
  ASSERT_EQ(got.rows.size(), want.rows.size()) << where;
  for (size_t i = 0; i < want.rows.size(); ++i) {
    RETRACE_EXPECT_FIELD(rows[i].fp);
    RETRACE_EXPECT_FIELD(rows[i].state);
    RETRACE_EXPECT_FIELD(rows[i].reproduced);
    RETRACE_EXPECT_FIELD(rows[i].reports);
  }
}

#undef RETRACE_EXPECT_FIELD

// ----- Valid-payload tables -----

template <typename T>
std::vector<u8> Encode(void (*encode)(const T&, WireWriter*), const T& value) {
  WireWriter w;
  encode(value, &w);
  return w.Take();
}

// One valid payload of a codec. `reencode` decodes `size` bytes of it
// and, on success, re-encodes what it decoded and reports what was left
// unread. `expect_value` decodes the whole payload and checks it against
// the value the payload was encoded from (ExpectSame).
struct Sample {
  std::string name;
  std::vector<u8> payload;
  std::function<bool(const u8* data, size_t size, std::vector<u8>* again, size_t* left)> reencode;
  std::function<void()> expect_value;
};

template <typename T>
Sample Row(std::string name, const T& value, void (*encode)(const T&, WireWriter*),
           bool (*decode)(WireReader*, T*)) {
  Sample row{std::move(name), Encode(encode, value), nullptr, nullptr};
  row.reencode = [encode, decode](const u8* data, size_t size, std::vector<u8>* again,
                                  size_t* left) {
    WireReader r(data, size);
    T decoded;
    if (!decode(&r, &decoded)) {
      return false;
    }
    *again = Encode(encode, decoded);
    *left = r.remaining();
    return true;
  };
  row.expect_value = [name = row.name, payload = row.payload, value, decode] {
    WireReader r(payload.data(), payload.size());
    T decoded;
    ASSERT_TRUE(decode(&r, &decoded)) << name;
    ExpectSame(value, decoded, name);
  };
  return row;
}

// Decodes to the encoded value, consumes the whole payload and
// re-encodes to the same bytes.
inline void ExpectRoundTrip(const Sample& row) {
  row.expect_value();
  std::vector<u8> again;
  size_t left = 0;
  ASSERT_TRUE(row.reencode(row.payload.data(), row.payload.size(), &again, &left)) << row.name;
  EXPECT_EQ(left, 0u) << row.name;
  EXPECT_EQ(again, row.payload) << row.name;
}

// A decoder fed bytes from the network must refuse every strict prefix
// of a valid payload, never read past it or accept half a message.
inline void ExpectEveryPrefixRefused(const Sample& row) {
  for (size_t cut = 0; cut < row.payload.size(); ++cut) {
    std::vector<u8> again;
    size_t left = 0;
    EXPECT_FALSE(row.reencode(row.payload.data(), cut, &again, &left))
        << row.name << " cut " << cut;
  }
}

// ----- Hostile-payload tables -----

struct HostileCase {
  std::string name;
  std::vector<u8> payload;
  std::function<bool(const std::vector<u8>&)> decodes;
};

// Decodes a payload the way a receiver decodes a frame: whole
// (DecodePayload), so bytes left over refuse it too.
template <typename T>
std::function<bool(const std::vector<u8>&)> DecoderOf(bool (*decode)(WireReader*, T*)) {
  return [decode](const std::vector<u8>& payload) {
    T decoded;
    return DecodePayload(payload, decode, &decoded);
  };
}

// A valid job with one field forged by `forge`, shipped as kJobBegin.
inline HostileCase ForgedJob(std::string name, const std::function<void(WireJob*)>& forge) {
  WireJob job = MakeJob();
  forge(&job);
  return {std::move(name), Encode(EncodeJobBegin, Begin(3, job)), DecoderOf(DecodeJobBegin)};
}

inline void ExpectRefused(const HostileCase& c) { EXPECT_FALSE(c.decodes(c.payload)) << c.name; }

}  // namespace retrace

#endif  // RETRACE_TESTS_DIST_WIRE_TESTUTIL_H_
