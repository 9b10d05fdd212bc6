// Transport seam of the distributed replay scheduler.
//
// ShardFleet (src/dist/fleet.h) speaks the wire protocol of
// src/dist/wire.h over one WireChannel per shard and does not care how
// those channels came to exist. A Transport owns exactly that concern:
//
//   - LocalForkTransport: fork() + AF_UNIX socketpairs on this host (the
//     default). Children inherit the compiled module by copy-on-write,
//     so no kJoin is exchanged and no program sources ship.
//   - TcpTransport: a TCP listener on the coordinator; shards join by
//     connecting (tools/retrace_shardd, possibly from another host) and
//     handshake with kJoin, which carries the auth token. Jobs attach
//     later with kJobBegin, whose payload ships the program sources.
//     With ReplayConfig::shard_endpoints set the coordinator dials out
//     to waiting `retrace_shardd --listen` daemons instead; with neither,
//     it self-spawns local children that connect back over loopback —
//     the full TCP path without any remote host, which is what the tests
//     and the CI smoke legs exercise.
//
// Everything after Start() — attaching jobs, seeding frontiers, verdict
// gossip, work re-balancing, first-crash-wins — is transport-agnostic.
#ifndef RETRACE_DIST_TRANSPORT_H_
#define RETRACE_DIST_TRANSPORT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/dist/wire.h"

namespace retrace {

/// Resolves "host:port" (IPv4; empty host = 127.0.0.1) and binds a
/// listening socket. Port 0 binds an ephemeral port. Returns the fd, or
/// -1 on failure; `bound_endpoint` (optional) receives the actual
/// "host:port" after binding.
int TcpListen(const std::string& endpoint, std::string* bound_endpoint);

/// Connects to "host:port" (IPv4 or resolvable name). Returns the
/// connected fd with TCP_NODELAY set, or -1 on failure.
int TcpConnect(const std::string& endpoint);

/// \brief How shard processes come to exist and get wired to the
/// coordinator.
///
/// **Thread safety:** none — a ShardFleet drives its Transport from one
/// thread. **Lifecycle:** call Start() once; Kill() and KillSlot() only
/// after Start(); Reap() exactly once before destruction when Start()
/// was called.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Establishes one coordinator->shard channel per slot. A null entry
  /// means that shard failed to spawn/connect — the coordinator re-deals
  /// its frontier partition over the survivors, so a partial fleet still
  /// covers the whole search space.
  virtual std::vector<std::unique_ptr<WireChannel>> Start(u32 num_shards) = 0;

  /// Hard-stops stragglers past the wall-budget grace: SIGKILL for local
  /// children; remote shards cannot be signalled and instead observe
  /// their socket closing when the coordinator drops the channel.
  virtual void Kill() = 0;

  /// SIGKILLs the local child behind `slot`, if the transport knows
  /// which one it is; the rest of the fleet keeps running.
  virtual void KillSlot(u32 slot) = 0;

  /// Reaps (waitpid) every local child Start() created. No-op for
  /// purely remote fleets.
  virtual void Reap() = 0;
};

/// \brief fork() + socketpair transport (single host, default). Slot s
/// is child s, so KillSlot hits exactly the lost shard.
class LocalForkTransport : public Transport {
 public:
  /// `shard_main` runs inside each forked child with (slot, child_fd)
  /// and must not return control to the inherited process state — its
  /// return value becomes the child's _exit status.
  using ShardMain = std::function<bool(u32 slot, int fd)>;

  explicit LocalForkTransport(ShardMain shard_main) : shard_main_(std::move(shard_main)) {}

  std::vector<std::unique_ptr<WireChannel>> Start(u32 num_shards) override;
  void Kill() override;
  void KillSlot(u32 slot) override;
  void Reap() override;

 private:
  ShardMain shard_main_;
  std::vector<int> pids_;  // -1 for slots that failed to spawn.
};

/// \brief TCP transport: listener on the coordinator, one kJoin
/// handshake per shard connection.
class TcpTransport : public Transport {
 public:
  /// Runs in a self-spawned child (loopback mode): connect to
  /// `endpoint` and serve jobs. Return value = child exit status.
  using SelfSpawnMain = std::function<bool(const std::string& endpoint)>;

  /// `endpoints` are dialed out to. With no endpoints and an *ephemeral*
  /// listen port (":0" — unknowable to remote hosts), the transport
  /// forks `self_spawn` children that connect back over loopback; a
  /// fixed listen port instead waits for real inbound joiners
  /// (`retrace_shardd <host:port>`). `token` is the shared secret
  /// (RETRACE_SHARD_TOKEN): a kJoin whose token differs is refused
  /// before any job bytes ship; empty means auth off.
  TcpTransport(std::string listen_endpoint, std::vector<std::string> endpoints,
               SelfSpawnMain self_spawn, std::string token);
  ~TcpTransport() override;

  std::vector<std::unique_ptr<WireChannel>> Start(u32 num_shards) override;
  void Kill() override;
  /// No-op: joiners take slots in arrival order, so no slot maps to a
  /// known pid. A retired shard sees its channel close and exits (and
  /// ShardFleet kills self-spawned children at Shutdown after a loss).
  void KillSlot(u32) override {}
  void Reap() override;

 private:
  // Completes the shard-side of one connection: waits for kJoin and
  // checks the auth token. Returns the ready channel or null on
  // handshake/auth failure.
  std::unique_ptr<WireChannel> Handshake(int fd, i64 deadline_ms);

  std::string listen_;
  std::vector<std::string> endpoints_;
  SelfSpawnMain self_spawn_;
  std::string token_;
  std::string bound_;
  int listen_fd_ = -1;
  std::vector<int> pids_;  // Self-spawned children only.
};

}  // namespace retrace

#endif  // RETRACE_DIST_TRANSPORT_H_
