// Shard-process side of the distributed replay scheduler.
//
// Every shard process runs one loop, ServeShardJobs: it waits for a
// kJobBegin, serves that job's search (RunShardOn) and waits for the
// next, until kJobEnd. It joins the fleet over either transport
// (src/dist/transport.h):
//   - forked by the coordinator over a socketpair, serving jobs on the
//     compiled module it inherited by copy-on-write, or
//   - connected over TCP — possibly from another host — in which case it
//     first sends kJoin and rebuilds the module from the program sources
//     each job ships (lowering is deterministic, so branch ids match the
//     coordinator's).
// Either way, only jobs, frontier entries, slice verdicts, re-balanced
// pendings and results cross the process boundary, over the wire format
// of src/dist/wire.h.
#ifndef RETRACE_DIST_SHARD_H_
#define RETRACE_DIST_SHARD_H_

#include <string>

#include "src/dist/wire.h"
#include "src/replay/replay_engine.h"

namespace retrace {

/// Sentinel for RunShardOn: accept whatever shard id the coordinator's
/// kHello assigns (a TCP joiner does not know its slot in advance; a
/// forked child does and checks its slot to catch cross-wiring bugs).
inline constexpr u32 kAnyShardId = 0xffffffffu;

/// How a shard run ended, from the shard's point of view. The
/// distinction matters to daemons (tools/retrace_shardd): a lost
/// coordinator is an operational event worth its own exit code — the
/// daemon can go back to listening — while a protocol error means one
/// of the two builds is wrong and retrying is pointless.
enum class ShardRunStatus {
  kOk,               // Job ran to completion and the result was delivered.
  kProtocolError,    // Corrupt/version-skewed frames or a broken handshake.
  kCoordinatorLost,  // Channel closed or went silent past the heartbeat
                     // deadline mid-job.
};

/// \brief Runs one shard to completion over an established channel.
///
/// Protocol, in order: receive kHello (refusing version mismatches at the
/// framing layer), receive `pending_count` kPending frames, receive
/// kStart, then search. While searching, a gossip pump on the main thread
/// ships freshly proved slice verdicts to the coordinator (at least every
/// ReplayConfig::gossip_interval_ms), merges verdict batches gossiped
/// back from other shards, and — when the fleet has more than one shard —
/// runs the re-balance protocol: kWorkRequest when the local frontier
/// drains below its watermark (paced after an empty answer),
/// kPendingExport answers carved from the frontier when a starved peer
/// asks. The pump blocks in one poll on "a frame arrived, the search
/// finished, or a timed duty is due", so neither a kStop nor the
/// search's end waits out the cadence. A kStop frame cancels the search
/// through FrontierPort::Cancel (first-crash-wins). Ends by sending
/// kResult.
///
/// `preread` holds frames the caller already pulled off the channel
/// (ServeShardJobs may read kPending/kHello bytes bundled behind
/// kJobBegin); they are served before any new poll, preserving stream
/// order.
///
/// `external_cache` lets a standing shard (ServeShardJobs) keep one
/// slice cache alive across jobs: when non-null the run uses it instead
/// of creating a private one, so a later report whose slices a prior
/// report already proved starts warm. The caller owns the cache and must
/// have journaling enabled.
///
/// Liveness: while searching, the shard rides a kHeartbeat on the gossip
/// pump every ReplayConfig::heartbeat_interval_ms, and treats *any*
/// received frame as proof the coordinator lives. Silence longer than
/// ReplayConfig::heartbeat_timeout_ms (or a closed channel) means the
/// coordinator is gone: the search cancels and kCoordinatorLost is
/// returned, so a `--listen` daemon never orphans on a dead fleet.
///
/// Never throws.
ShardRunStatus RunShardOn(WireChannel& chan, const IrModule& module,
                          const InstrumentationPlan& plan, const BugReport& report,
                          const ReplayConfig& config, u32 expected_shard_id,
                          std::vector<WireFrame> preread = {},
                          SliceCache* external_cache = nullptr);

/// \brief The shard loop: serves jobs on a connected coordinator socket
/// until the fleet says goodbye.
///
/// TCP joiner form. Sends kJoin once (tagged `ident`, carrying `token`
/// for the listener's shared-secret check), then loops: wait
/// (indefinitely — the fleet owns the lifecycle) for kJobBegin, rebuild
/// the pipeline from the job's program sources, run RunShardOn, repeat.
/// When `worker_override` > 0 it replaces each job's num_workers (a
/// remote host knows its own core count better than the coordinator
/// does). kJobEnd — or a channel closed after at least one served job —
/// is an orderly shutdown (kOk). One slice cache persists across jobs
/// (sized by the first cache-enabled job), which is where cross-report
/// cache warmth on a shard fleet comes from. Relay traffic that arrives
/// between jobs (heartbeats, another job's tail gossip) is discarded;
/// work requests get an honest empty answer. Takes ownership of `fd`;
/// never writes to stdio (callers log). Used by tools/retrace_shardd and
/// the TCP transport's loopback self-spawn.
ShardRunStatus ServeShardJobs(int fd, const std::string& ident, u32 worker_override = 0,
                              const std::string& token = "");

/// \brief Fork-child form of the same loop: no kJoin, and every job runs
/// on `module`, the one the child inherited, as shard `slot`.
ShardRunStatus ServeShardJobs(int fd, const IrModule& module, u32 slot);

}  // namespace retrace

#endif  // RETRACE_DIST_SHARD_H_
