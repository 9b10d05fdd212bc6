// retrace_serviced: the resident replay service daemon.
//
// Runs the replay-as-a-service stack (src/service/) as a long-lived
// process: a TCP ingest socket accepts bug-report submissions from many
// tenants, reports cluster by structural crash fingerprint, one search
// runs per cluster on a standing shard fleet (or in-process when
// --shards 1), and duplicate reports are answered from the cluster
// table without spending a run. The same socket answers health queries
// with queue depth, the cluster table, cache occupancy and fleet
// liveness.
//
// The daemon binds a fixed workload (uServer under the low-coverage
// dynamic plan — Table 3's hardest replay column) and derives the plan
// deterministically, so a submitting client running the same derivation
// produces reports this daemon's module understands. This models the
// paper's deployment: one service per shipped binary+plan, many users
// reporting crashes against it.
//
// Usage:
//   retrace_serviced serve [--listen H:P] [--shards N] [--workers N]
//                          [--queue N] [--tenant-cap N] [--cap-ms N]
//                          [--snapshot PATH]
//     Start the daemon. Prints "serving on H:P" (the bound endpoint,
//     ephemeral port resolved) on stderr when ready. --shards > 1
//     starts a standing shard fleet: it forks local shard processes by
//     default; RETRACE_REPLAY_TRANSPORT=tcp self-spawns loopback TCP
//     shards instead, and RETRACE_SHARD_ENDPOINTS dials waiting
//     retrace_shardd daemons. --snapshot loads the slice-cache
//     snapshot on start and saves it on shutdown (SIGTERM/SIGINT).
//
//   retrace_serviced submit <H:P> --exp N [--tenant T]
//     Record experiment N's crashing user run (1..5), submit the report,
//     wait for the verdict, print it.
//
//   retrace_serviced health <H:P>
//     Query and print the daemon's health stats.
//
// Auth: RETRACE_SHARD_TOKEN (when set) authenticates a TCP shard
// fleet's listener, as for a one-shot search. The ingest socket is
// separate and unauthenticated — front it with whatever the deployment
// trusts.
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pipeline.h"
#include "src/dist/transport.h"
#include "src/dist/wire.h"
#include "src/workloads/scenarios.h"
#include "src/workloads/workloads.h"

namespace retrace {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s serve [--listen H:P] [--shards N] [--workers N] [--queue N]\n"
               "       %*s       [--tenant-cap N] [--cap-ms N] [--snapshot PATH]\n"
               "       %s submit <H:P> --exp N [--tenant T]\n"
               "       %s health <H:P>\n",
               argv0, static_cast<int>(std::strlen(argv0)), "", argv0, argv0);
  return 2;
}

// Both the daemon and its submitting clients derive the same pipeline
// and plan from the same fixed seeds: the reports a client records are
// exactly the reports the daemon's module can search. Deliberately
// env-independent (no bench scale knobs) — two processes must agree.
struct Workload {
  std::unique_ptr<Pipeline> pipeline;
  InstrumentationPlan plan;
};

Workload DeriveWorkload() {
  const WorkloadSources sources = GetWorkload("userver");
  auto built = Pipeline::FromSources(sources.app, sources.libs);
  if (!built.ok()) {
    std::fprintf(stderr, "retrace_serviced: cannot build workload: %s\n",
                 built.error().ToString().c_str());
    std::exit(1);
  }
  Workload w;
  w.pipeline = built.take();
  AnalysisConfig lc_cfg;
  lc_cfg.max_runs = 4;
  lc_cfg.seed = 17;
  const AnalysisResult lc = w.pipeline->RunDynamicAnalysis(UserverExploreSpecLC(), lc_cfg);
  w.plan = w.pipeline->MakePlan(PlanInputs::Dynamic(lc));
  return w;
}

// Signal-driven shutdown: the handler closes the ingest listener, which
// pops the accept loop; everything orderly happens after accept fails.
std::atomic<int> g_listen_fd{-1};
std::atomic<bool> g_stop{false};

void OnSignal(int) {
  g_stop.store(true);
  const int fd = g_listen_fd.exchange(-1);
  if (fd >= 0) {
    ::close(fd);
  }
}

const char* OriginWord(VerdictOrigin origin) {
  switch (origin) {
    case VerdictOrigin::kFresh:
      return "fresh";
    case VerdictOrigin::kAttached:
      return "attached";
    case VerdictOrigin::kCached:
      return "cached";
    case VerdictOrigin::kRejected:
      return "rejected";
  }
  return "rejected";
}

// One ingest connection: answer kReportSubmit with kReportVerdict (the
// Submit call blocks this thread until the cluster has its verdict —
// that is the service's contract) and kHealthQuery with kHealthStats.
void ServeConnection(int fd, ReplayService* service) {
  WireChannel chan(fd);
  std::vector<WireFrame> frames;
  while (!g_stop.load()) {
    frames.clear();
    const WireChannel::RecvStatus status = chan.Poll(500, &frames);
    if (status != WireChannel::RecvStatus::kOk) {
      return;
    }
    for (const WireFrame& frame : frames) {
      if (frame.type == WireMsg::kReportSubmit) {
        WireReportSubmit submit;
        WireReader r(frame.payload.data(), frame.payload.size());
        if (!DecodeReportSubmit(&r, &submit)) {
          return;  // Hostile or broken client; drop the connection.
        }
        const ServiceVerdict verdict = service->Submit(submit.tenant, submit.report);
        WireReportVerdict reply;
        reply.cluster = verdict.cluster;
        reply.origin = static_cast<u8>(verdict.origin);
        reply.result.result = verdict.result;
        WireWriter w;
        EncodeReportVerdict(reply, &w);
        if (!chan.Send(WireMsg::kReportVerdict, w.buf())) {
          return;
        }
      } else if (frame.type == WireMsg::kHealthQuery) {
        WireWriter w;
        EncodeHealthStats(service->HealthStats(), &w);
        if (!chan.Send(WireMsg::kHealthStats, w.buf())) {
          return;
        }
      } else {
        return;  // Protocol error.
      }
    }
  }
}

int Serve(const std::string& listen, u32 shards, u32 workers, u64 queue_cap, u64 tenant_cap,
          i64 cap_ms, const std::string& snapshot) {
  Workload workload = DeriveWorkload();

  ServiceConfig config;
  config.replay = ReplayConfig::FromEnv();  // Token, transport, search knobs.
  config.replay.num_shards = shards;
  if (workers > 0) {
    config.replay.num_workers = workers;
  }
  if (cap_ms > 0) {
    config.replay.wall_ms = cap_ms;
  }
  config.queue_capacity = queue_cap;
  config.per_tenant_cap = tenant_cap;
  config.snapshot_path = snapshot;

  auto made = workload.pipeline->MakeService(workload.plan, std::move(config));
  if (!made.ok()) {
    std::fprintf(stderr, "retrace_serviced: %s\n", made.error().ToString().c_str());
    return 1;
  }
  std::unique_ptr<ReplayService> service = made.take();
  // Start before any other thread exists: the shard fleet forks.
  if (!service->Start()) {
    std::fprintf(stderr, "retrace_serviced: service failed to start\n");
    return 1;
  }

  std::string bound;
  const int listen_fd = TcpListen(listen, &bound);
  if (listen_fd < 0) {
    std::fprintf(stderr, "retrace_serviced: cannot listen on %s\n", listen.c_str());
    service->Shutdown();
    return 1;
  }
  g_listen_fd.store(listen_fd);
  struct sigaction sa = {};
  sa.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::fprintf(stderr, "retrace_serviced: serving on %s (%u shard(s))\n", bound.c_str(),
               shards);
  std::vector<std::thread> connections;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (g_stop.load()) {
        break;
      }
      continue;
    }
    connections.emplace_back(ServeConnection, fd, service.get());
  }
  for (std::thread& t : connections) {
    t.join();
  }
  service->Shutdown();
  std::fprintf(stderr, "retrace_serviced: stopped\n");
  return 0;
}

int Submit(const std::string& target, int experiment, const std::string& tenant) {
  Workload workload = DeriveWorkload();
  const Scenario scenario = UserverScenario(experiment);
  Pipeline::UserRunOptions options;
  options.policy = scenario.policy.get();
  auto user = workload.pipeline->RecordUserRun(scenario.spec, workload.plan, options);
  if (!user.ok() || !user.value().result.Crashed()) {
    std::fprintf(stderr, "retrace_serviced: experiment %d did not crash at the user site\n",
                 experiment);
    return 1;
  }

  const int fd = TcpConnect(target);
  if (fd < 0) {
    std::fprintf(stderr, "retrace_serviced: cannot reach daemon at %s\n", target.c_str());
    return 1;
  }
  WireChannel chan(fd);
  WireReportSubmit submit;
  submit.tenant = tenant;
  submit.report = user.take().report;
  WireWriter w;
  EncodeReportSubmit(submit, &w);
  if (!chan.Send(WireMsg::kReportSubmit, w.buf())) {
    std::fprintf(stderr, "retrace_serviced: submit failed\n");
    return 1;
  }
  // The daemon answers when the cluster has a verdict — searches can
  // legitimately take the whole per-search wall budget.
  std::vector<WireFrame> frames;
  for (;;) {
    const WireChannel::RecvStatus status = chan.Poll(1000, &frames);
    if (status != WireChannel::RecvStatus::kOk) {
      std::fprintf(stderr, "retrace_serviced: daemon went away before the verdict\n");
      return 1;
    }
    if (!frames.empty()) {
      break;
    }
  }
  if (frames[0].type != WireMsg::kReportVerdict) {
    std::fprintf(stderr, "retrace_serviced: unexpected reply frame\n");
    return 1;
  }
  WireReportVerdict verdict;
  WireReader r(frames[0].payload.data(), frames[0].payload.size());
  if (!DecodeReportVerdict(&r, &verdict)) {
    std::fprintf(stderr, "retrace_serviced: corrupt verdict\n");
    return 1;
  }
  std::printf("verdict: cluster=%016llx origin=%s reproduced=%d runs=%llu wall=%.2fs\n",
              static_cast<unsigned long long>(verdict.cluster),
              OriginWord(static_cast<VerdictOrigin>(verdict.origin)),
              verdict.result.result.reproduced ? 1 : 0,
              static_cast<unsigned long long>(verdict.result.result.stats.runs),
              verdict.result.result.wall_seconds);
  return static_cast<VerdictOrigin>(verdict.origin) == VerdictOrigin::kRejected ? 1 : 0;
}

int Health(const std::string& target) {
  const int fd = TcpConnect(target);
  if (fd < 0) {
    std::fprintf(stderr, "retrace_serviced: cannot reach daemon at %s\n", target.c_str());
    return 1;
  }
  WireChannel chan(fd);
  if (!chan.Send(WireMsg::kHealthQuery, {})) {
    return 1;
  }
  std::vector<WireFrame> frames;
  for (int spins = 0; frames.empty(); ++spins) {
    if (spins > 30 || chan.Poll(1000, &frames) != WireChannel::RecvStatus::kOk) {
      std::fprintf(stderr, "retrace_serviced: no health reply\n");
      return 1;
    }
  }
  WireHealthStats stats;
  WireReader r(frames[0].payload.data(), frames[0].payload.size());
  if (frames[0].type != WireMsg::kHealthStats || !DecodeHealthStats(&r, &stats)) {
    std::fprintf(stderr, "retrace_serviced: corrupt health reply\n");
    return 1;
  }
  std::printf("reports_ingested=%llu clusters=%llu searches_run=%llu "
              "duplicates_attached=%llu cached_verdicts=%llu rejected=%llu\n",
              static_cast<unsigned long long>(stats.reports_ingested),
              static_cast<unsigned long long>(stats.clusters),
              static_cast<unsigned long long>(stats.searches_run),
              static_cast<unsigned long long>(stats.duplicates_attached),
              static_cast<unsigned long long>(stats.cached_verdicts),
              static_cast<unsigned long long>(stats.rejected));
  std::printf("queue_depth=%llu in_flight=%llu cache_sat=%llu cache_unsat=%llu "
              "cache_evictions=%llu snapshot_loaded=%u\n",
              static_cast<unsigned long long>(stats.queue_depth),
              static_cast<unsigned long long>(stats.in_flight),
              static_cast<unsigned long long>(stats.cache_sat_entries),
              static_cast<unsigned long long>(stats.cache_unsat_entries),
              static_cast<unsigned long long>(stats.cache_evictions), stats.snapshot_loaded);
  std::printf("fleet_shards=%u fleet_live=%u fleet_jobs=%llu\n", stats.fleet_shards,
              stats.fleet_live, static_cast<unsigned long long>(stats.fleet_jobs));
  for (const WireClusterRow& row : stats.rows) {
    const char* state = row.state == 0 ? "queued" : row.state == 1 ? "running" : "solved";
    std::printf("cluster %016llx state=%s reproduced=%u reports=%llu\n",
                static_cast<unsigned long long>(row.fp), state, row.reproduced,
                static_cast<unsigned long long>(row.reports));
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage(argv[0]);
  }
  const std::string mode = argv[1];

  if (mode == "serve") {
    std::string listen = "127.0.0.1:0";
    u32 shards = 1;
    u32 workers = 0;
    u64 queue_cap = 64;
    u64 tenant_cap = 16;
    i64 cap_ms = 30'000;
    std::string snapshot;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--listen" && i + 1 < argc) {
        listen = argv[++i];
      } else if (arg == "--shards" && i + 1 < argc) {
        shards = static_cast<u32>(std::atoi(argv[++i]));
      } else if (arg == "--workers" && i + 1 < argc) {
        workers = static_cast<u32>(std::atoi(argv[++i]));
      } else if (arg == "--queue" && i + 1 < argc) {
        queue_cap = static_cast<u64>(std::atoll(argv[++i]));
      } else if (arg == "--tenant-cap" && i + 1 < argc) {
        tenant_cap = static_cast<u64>(std::atoll(argv[++i]));
      } else if (arg == "--cap-ms" && i + 1 < argc) {
        cap_ms = std::atoll(argv[++i]);
      } else if (arg == "--snapshot" && i + 1 < argc) {
        snapshot = argv[++i];
      } else {
        return Usage(argv[0]);
      }
    }
    return Serve(listen, shards, workers, queue_cap, tenant_cap, cap_ms, snapshot);
  }

  if (mode == "submit") {
    if (argc < 3) {
      return Usage(argv[0]);
    }
    const std::string target = argv[2];
    int experiment = 0;
    std::string tenant = "default";
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--exp" && i + 1 < argc) {
        experiment = std::atoi(argv[++i]);
      } else if (arg == "--tenant" && i + 1 < argc) {
        tenant = argv[++i];
      } else {
        return Usage(argv[0]);
      }
    }
    if (experiment < 1 || experiment > 5) {
      std::fprintf(stderr, "retrace_serviced: --exp must be 1..5\n");
      return 2;
    }
    return Submit(target, experiment, tenant);
  }

  if (mode == "health") {
    if (argc != 3) {
      return Usage(argv[0]);
    }
    return Health(argv[2]);
  }

  return Usage(argv[0]);
}

}  // namespace
}  // namespace retrace

int main(int argc, char** argv) { return retrace::Main(argc, argv); }
