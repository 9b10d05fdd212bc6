// The shard fleet: the processes every distributed search runs on.
//
// A fleet stands: its owner builds it once and runs search after search
// on it as jobs, so consecutive searches skip the fork/dial tax and reuse
// the shards' warm slice caches. The owners are Pipeline (one fleet per
// pipeline, behind every num_shards > 1 Reproduce) and ReplayService (one
// per service); RunDistributedJob (src/dist/coordinator.h) runs one job.
// Every shard runs ServeShardJobs and every job is a kJobBegin. One rule
// (UsesTcpShards) picks how shards come to exist:
//
//   fork — LocalForkTransport: children serve jobs on the module they
//          inherited. No kJoin, no sources shipped.
//   tcp  — TcpTransport: joiners (retrace_shardd, or loopback children it
//          self-spawns) send kJoin and rebuild the module from the
//          sources each kJobBegin ships.
//
// Start forks or dials; AttachJob starts a fleet that is not started
// yet, so a search whose scout reproduces forks nothing. FinishJob
// retires slots lost mid-job; Shutdown sends kJobEnd and reaps.
// ReplayConfig::fault_spec wraps the transport in FaultInjectingTransport
// (src/dist/fault.h); a malformed spec exits 2 when the fleet is built.
//
// **Thread safety:** none — drive a fleet from one thread. Start (and so
// the first AttachJob) forks: call it from a single-threaded context.
#ifndef RETRACE_DIST_FLEET_H_
#define RETRACE_DIST_FLEET_H_

#include <memory>
#include <vector>

#include "src/dist/fault.h"
#include "src/dist/transport.h"

namespace retrace {

/// Widest fleet a config can ask for: one process per frontier
/// partition stops paying off long before this.
inline constexpr u32 kMaxShards = 64;

/// The transport rule: a distributed search with `config` runs on TCP
/// shards when transport == kTcp or any shard endpoint is set and
/// ReplayConfig::program holds the sources TCP shards rebuild the module
/// from (Pipeline fills them), and on fork shards otherwise. A fleet
/// that asked for TCP without sources says it falls back to fork.
bool UsesTcpShards(const ReplayConfig& config);

/// \brief The shard processes behind distributed searches.
class ShardFleet {
 public:
  /// `module` must outlive the fleet; fork children serve jobs on it.
  /// `config` supplies the fleet shape and transport knobs: num_shards
  /// (clamped to [1, kMaxShards]), transport, tcp_listen,
  /// shard_endpoints, shard_token, fault_spec, program.
  ShardFleet(const IrModule& module, const ReplayConfig& config);
  ~ShardFleet();

  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  /// Launches/connects the shards. Returns false when not a single
  /// shard could be established. Idempotent.
  bool Start();

  /// Number of shard slots AttachJob returns. Dead slots come back null
  /// rather than shrinking the vector, so shard ids stay dense.
  u32 num_shards() const { return num_shards_; }

  /// True when a search under `config` may run on this fleet as it
  /// stands: the same shape (num_shards, transport, tcp_listen,
  /// shard_endpoints, shard_token), no fault schedule on either side
  /// (schedules are per search), and, once started, every slot live.
  bool Fits(const ReplayConfig& config) const;

  /// One slot of an attached job.
  struct JobChannel {
    WireChannel* chan = nullptr;  // Null for an unavailable slot; fleet-owned.
    u64 tx_before = 0;            // chan's byte counters before the job's
    u64 rx_before = 0;            // kJobBegin: the job's own bytes are the rest.
  };

  /// Starts the fleet if needed and attaches `plan`/`report` under
  /// `shard_cfg` to every live slot. Returns one entry per slot.
  std::vector<JobChannel> AttachJob(const ReplayConfig& shard_cfg,
                                    const InstrumentationPlan& plan, const BugReport& report);

  /// Hard-stops every local shard (wall-budget overrun past the grace).
  void KillAll();

  /// Ends the job. `lost[s]` marks slots that died, wedged or broke
  /// mid-search; those retire (a lost fork child is SIGKILLed now, a
  /// TCP fleet's self-spawned children at Shutdown) and the rest stay for
  /// the next job, caches warm.
  void FinishJob(const std::vector<bool>& lost);

  /// Graceful end: kJobEnd to every live shard, close the channels,
  /// reap local children. Idempotent; the destructor calls it.
  void Shutdown();

  /// Slots still holding a live channel (monotonically non-increasing —
  /// lost shards retire, the fleet never respawns).
  u32 live_shards() const;

  /// Jobs handed to AttachJob so far (also the last kJobBegin job_id).
  u64 jobs_dispatched() const { return jobs_dispatched_; }

  /// Bytes sent over the live channels since Start, every job together.
  u64 wire_bytes_tx() const;

 private:
  const IrModule& module_;
  ReplayConfig config_;
  FaultSpec fault_spec_;
  bool tcp_ = false;
  u32 num_shards_ = 0;
  u64 jobs_dispatched_ = 0;
  bool started_ = false;
  bool slots_lost_ = false;  // Some slot retired since Start.
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<WireChannel>> channels_;  // null = retired.
};

}  // namespace retrace

#endif  // RETRACE_DIST_FLEET_H_
