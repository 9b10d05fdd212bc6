// retrace_shardd: remote shard daemon for the distributed replay
// scheduler's TCP transport.
//
// A replay coordinator whose shard fleet uses TCP (ReplayConfig::
// transport = kTcp, or shard_endpoints set) listens on host:port; this
// daemon joins its fleet from any machine that can reach it. The daemon
// runs the one shard loop (ServeShardJobs): it sends kJoin, then serves
// each job the fleet attaches with kJobBegin — the job ships the program
// sources, instrumentation plan, bug report and search config,
// digest-checked and version-gated, and the daemon rebuilds the module
// locally (lowering is deterministic, so branch ids match), runs one
// shard search, streams verdict gossip and re-balance traffic while it
// runs, and reports the result. The slice cache stays warm across jobs
// until kJobEnd or the fleet closes the channel: a standing fleet (a
// Pipeline's or retrace_serviced's) sends job after job.
//
// Usage:
//   retrace_shardd <host:port>             join a coordinator; serve its
//                                          jobs until the fleet ends the
//                                          connection, then exit.
//   retrace_shardd --listen <host:port>    wait for coordinators to dial
//                                          in (ReplayConfig::
//                                          shard_endpoints); serves jobs
//                                          until killed. A coordinator
//                                          that dies mid-job (heartbeat
//                                          deadline, closed channel)
//                                          only costs that job — the
//                                          daemon goes back to listening.
//
// Auth: when the coordinator's listener is started with a shared secret
// (RETRACE_SHARD_TOKEN), set the same variable in this daemon's
// environment — the token rides the kJoin frame and a mismatch is
// refused before any job bytes ship.
// Options:
//   --workers N   override the job's worker-thread count (0 = job's
//                 value; a remote host knows its own core count best).
//   --retry N     connect mode: retry the connection up to N times with
//                 exponential backoff and jitter (a fleet launcher may
//                 start daemons before the coordinator binds its port;
//                 jitter keeps a mass daemon restart from dialing in
//                 lockstep).
//
// Exit codes (connect mode):
//   0  jobs served until the fleet ended the connection.
//   1  job failed (unreachable coordinator, protocol error, bad job).
//   2  usage error.
//   3  coordinator lost mid-job (crashed or went silent past the
//      heartbeat deadline) — the job is gone, but this host is healthy.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/dist/shard.h"
#include "src/dist/transport.h"
#include "src/support/rng.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <host:port> [--workers N] [--retry N]\n"
               "       %s --listen <host:port> [--workers N]\n",
               argv0, argv0);
  return 2;
}

const char* StatusWord(retrace::ShardRunStatus status) {
  switch (status) {
    case retrace::ShardRunStatus::kOk:
      return "done";
    case retrace::ShardRunStatus::kCoordinatorLost:
      return "abandoned (coordinator lost)";
    case retrace::ShardRunStatus::kProtocolError:
      return "failed";
  }
  return "failed";
}

}  // namespace

int main(int argc, char** argv) {
  std::string target;
  bool listen_mode = false;
  unsigned workers = 0;
  int retries = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    }
    if (arg == "--listen") {
      listen_mode = true;
    } else if (arg == "--workers" && i + 1 < argc) {
      // Clamp to the wire codec's sanity cap; a negative or absurd value
      // would otherwise be rejected by the coordinator's DecodeJoin with
      // nothing to tell the operator why.
      const int parsed = std::atoi(argv[++i]);
      if (parsed < 0 || parsed > 4096) {
        std::fprintf(stderr, "retrace_shardd: --workers %d out of range [0, 4096]\n", parsed);
        return 2;
      }
      workers = static_cast<unsigned>(parsed);
    } else if (arg == "--retry" && i + 1 < argc) {
      retries = std::atoi(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else if (target.empty()) {
      target = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (target.empty()) {
    return Usage(argv[0]);
  }

  char host_buf[256] = "shardd";
  ::gethostname(host_buf, sizeof(host_buf) - 1);
  const std::string ident = std::string(host_buf) + "/" + std::to_string(::getpid());
  std::string token;
  if (const char* env_token = std::getenv("RETRACE_SHARD_TOKEN")) {
    token = env_token;
  }

  if (listen_mode) {
    std::string bound;
    const int listen_fd = retrace::TcpListen(target, &bound);
    if (listen_fd < 0) {
      std::fprintf(stderr, "retrace_shardd: cannot listen on %s\n", target.c_str());
      return 1;
    }
    std::fprintf(stderr, "retrace_shardd: waiting for coordinators on %s\n", bound.c_str());
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        continue;
      }
      std::fprintf(stderr, "retrace_shardd: coordinator connected, serving jobs\n");
      const retrace::ShardRunStatus status = retrace::ServeShardJobs(fd, ident, workers, token);
      std::fprintf(stderr, "retrace_shardd: connection %s\n", StatusWord(status));
      if (status == retrace::ShardRunStatus::kCoordinatorLost) {
        // The fleet died under us; the next coordinator gets a fresh
        // daemon, not an exit. This is the whole point of --listen.
        std::fprintf(stderr, "retrace_shardd: rejoining listen loop on %s\n", bound.c_str());
      }
    }
  }

  // Exponential backoff with deterministic-per-process jitter: 1s, 2s,
  // 4s, ... capped at 30s, each widened by up to +50%. A fleet of
  // daemons restarted together must not dial the coordinator in
  // lockstep forever.
  retrace::Rng jitter(static_cast<retrace::u64>(::getpid()) * 0x9e3779b97f4a7c15ull + 1);
  int fd = -1;
  for (int attempt = 0; attempt <= retries && fd < 0; ++attempt) {
    if (attempt > 0) {
      const unsigned shift = attempt - 1 < 5 ? static_cast<unsigned>(attempt - 1) : 5u;
      const retrace::u64 base_ms = std::min<retrace::u64>(1000ull << shift, 30'000);
      const retrace::u64 sleep_ms = base_ms + jitter.NextBelow(base_ms / 2 + 1);
      std::fprintf(stderr, "retrace_shardd: retrying %s in %llu ms (attempt %d/%d)\n",
                   target.c_str(), static_cast<unsigned long long>(sleep_ms), attempt, retries);
      ::usleep(static_cast<useconds_t>(sleep_ms * 1000));
    }
    fd = retrace::TcpConnect(target);
  }
  if (fd < 0) {
    std::fprintf(stderr, "retrace_shardd: cannot reach coordinator at %s\n", target.c_str());
    return 1;
  }
  std::fprintf(stderr, "retrace_shardd: joined fleet at %s as %s\n", target.c_str(),
               ident.c_str());
  const retrace::ShardRunStatus status = retrace::ServeShardJobs(fd, ident, workers, token);
  std::fprintf(stderr, "retrace_shardd: connection %s\n", StatusWord(status));
  switch (status) {
    case retrace::ShardRunStatus::kOk:
      return 0;
    case retrace::ShardRunStatus::kCoordinatorLost:
      return 3;
    case retrace::ShardRunStatus::kProtocolError:
      return 1;
  }
  return 1;
}
