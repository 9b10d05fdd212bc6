// Versioned binary wire format for the distributed replay scheduler.
//
// Everything that crosses a shard process boundary travels in frames:
//
//   | magic u32 | version u16 | type u16 | payload_len u32 | digest u64 |
//   | payload bytes ...                                                |
//
// All integers are little-endian fixed width. `digest` is a structural
// hash of the payload (the solver's HashMix chain), so a corrupted frame
// is rejected before any payload decoding; a frame whose version differs
// from kWireVersion is refused outright (no cross-version decoding —
// shards are forked from the coordinator's binary, so a mismatch means a
// build skew bug, not a negotiation opportunity). Truncated input is
// never an error at the framing layer: FrameParser reports kNeedMore and
// waits for the rest of the stream.
//
// Payload codecs (pendings, verdict batches, shard results) are
// bounds-checked: a decoder that runs past the payload, sees an absurd
// count, or finds a non-topological trace reference fails the decode
// instead of allocating or reading garbage.
#ifndef RETRACE_DIST_WIRE_H_
#define RETRACE_DIST_WIRE_H_

#include <string>
#include <vector>

#include "src/replay/replay_engine.h"
#include "src/solver/incremental.h"

namespace retrace {

inline constexpr u32 kWireMagic = 0x43525452u;  // "RTRC" little-endian.
// v2: kJoin/kJob handshake (TCP transport), kWorkRequest/kPendingExport
// (frontier re-balancing), re-balance counters in the stats codec.
// v3: search-quality layer — a per-pending direction score, prune/corpus
// config fields (corpus seeds ride the kJob config codec), pruning/
// corpus/promotion counters + per-discipline run accounting in the stats
// codecs.
// v4: adaptive planning — plan detail_level/provenance in the plan codec,
// and the off-log failure profile (sparse per-branch death counters,
// strictly increasing branch ids) in the stats codec.
// v5: failure handling — kHeartbeat liveness frames, heartbeat knobs in
// the kJob config codec, and the graceful-degradation counters
// (shards_lost/pendings_recovered/heartbeats_missed/fallback_inprocess)
// in the stats codec.
// v6: execution engine — the resolved ExecEngineKind rides the kJob
// config codec so every shard runs the coordinator's engine choice
// (tree vs bytecode), keeping fleet-wide run accounting comparable.
// v7: replay-as-a-service — kJoin carries the shared-secret auth token
// (checked before any job bytes ship), kJobBegin/kJobEnd attach and
// detach jobs on a standing shard fleet that outlives a single search,
// and the service ingest frames (kReportSubmit/kReportVerdict/
// kHealthQuery/kHealthStats) let clients stream bug reports at a
// resident daemon and read its health.
// v8: one execution engine — the v6 engine byte leaves the kJob config codec.
// v9: one job protocol — kJob (type 8) is retired; every shard, forked or
// joined over TCP, receives its jobs as kJobBegin and leaves on kJobEnd.
// v10: in-process search counters ride the stats codec — resumed_runs,
// instrs_skipped, slices_inherited and solves_from_base, per worker and
// in the aggregate — so shard-side counts reach the coordinator.
// v11: one pick rule — pendings drop the direction score; worker and
// aggregate stats drop pendings_pruned, promotions and the per-discipline
// run arrays; the job config drops the prune byte, and its pick byte
// accepts only dfs (0) and fifo (1).
// v12: branch checkpoints — resumed_at_branch and instrs_before_flip
// ride the stats codec, per worker and in the aggregate.
// v13: one pending per frontier visit — the job config drops the
// solve_batch field.
// v14: one solve path — the job config drops the slice-cache on/off byte;
// every shard solves through its slice cache.
inline constexpr u16 kWireVersion = 14;

/// Message types carried in the frame header.
enum class WireMsg : u16 {
  kHello = 1,    // Coordinator -> shard: shard id + fleet shape.
  kPending = 2,  // Coordinator -> shard: one seed-frontier entry.
  kStart = 3,    // Coordinator -> shard: frontier complete, begin search.
  kVerdicts = 4,  // Both ways: batch of slice-cache SAT/UNSAT verdicts.
  kStop = 5,      // Coordinator -> shard: first-crash-wins cancellation.
  kResult = 6,    // Shard -> coordinator: final result + stats.
  // ----- TCP transport handshake (never seen on fork socketpairs) -----
  kJoin = 7,  // Shard -> coordinator: first frame after connect.
  // 8 is retired (kJob until v8): never reuse it.
  // ----- Frontier re-balancing -----
  kWorkRequest = 9,     // Starved shard -> coordinator -> donor shard.
  kPendingExport = 10,  // Donor shard -> coordinator -> starved shard.
  // ----- Failure handling (v5) -----
  kHeartbeat = 11,  // Both ways: liveness beat on the gossip cadence.
  // ----- Standing shard fleet (v7) -----
  kJobBegin = 12,  // Coordinator -> shard: attach one job to a live shard.
  kJobEnd = 13,    // Coordinator -> shard: fleet shutdown, no more jobs.
  // ----- Service ingest (v7; client <-> retrace_serviced) -----
  kReportSubmit = 14,   // Client -> daemon: tenant tag + bug report.
  kReportVerdict = 15,  // Daemon -> client: cluster fp + verdict + result.
  kHealthQuery = 16,    // Client -> daemon: empty payload, stats request.
  kHealthStats = 17,    // Daemon -> client: queue/cluster/cache/fleet stats.
};

/// \brief Append-only little-endian payload writer.
/// Not thread-safe; one writer per frame under construction.
class WireWriter {
 public:
  void U8(u8 v) { buf_.push_back(v); }
  void U16(u16 v);
  void U32(u32 v);
  void U64(u64 v);
  void I64(i64 v) { U64(static_cast<u64>(v)); }
  void I32(i32 v) { U32(static_cast<u32>(v)); }
  void F64(double v);
  void Str(const std::string& s);

  const std::vector<u8>& buf() const { return buf_; }
  std::vector<u8> Take() { return std::move(buf_); }

 private:
  std::vector<u8> buf_;
};

/// \brief Bounds-checked little-endian payload reader.
///
/// Every getter returns false (and poisons the reader) on overrun; a
/// poisoned reader fails all subsequent reads, so codecs can check ok()
/// once at the end. Borrows the buffer; must not outlive it.
class WireReader {
 public:
  WireReader(const u8* data, size_t size) : p_(data), n_(size) {}

  bool U8(u8* v);
  bool U16(u16* v);
  bool U32(u32* v);
  bool U64(u64* v);
  bool I64(i64* v);
  bool I32(i32* v);
  bool F64(double* v);
  bool Str(std::string* s);
  /// Guard for count-prefixed vectors: fails unless at least
  /// `count * min_bytes_each` bytes remain — rejects absurd counts on
  /// corrupt frames before any allocation.
  bool FitsCount(u64 count, size_t min_bytes_each);
  /// Advances past `n` bytes without reading them (allocation-free
  /// skip-scans, e.g. counting a verdict batch on the relay hot path).
  bool Skip(size_t n);

  bool ok() const { return ok_; }
  size_t remaining() const { return n_ - off_; }

 private:
  bool Raw(void* out, size_t n);

  const u8* p_;
  size_t n_;
  size_t off_ = 0;
  bool ok_ = true;
};

/// Structural digest of a payload (HashMix chain over the bytes).
u64 WireDigest(const u8* data, size_t n);

struct WireFrame {
  WireMsg type = WireMsg::kStop;
  std::vector<u8> payload;
};

/// Decodes one frame's whole payload with `decode`. Fails unless the
/// decoder succeeds and reads every byte: a payload with bytes left over
/// (e.g. one laid out by an older wire version) is refused, not
/// half-read.
template <typename T>
bool DecodePayload(const std::vector<u8>& payload, bool (*decode)(WireReader*, T*), T* out) {
  WireReader r(payload.data(), payload.size());
  return decode(&r, out) && r.remaining() == 0;
}

/// Appends one complete frame (header + payload) to `out`.
void AppendFrame(WireMsg type, const std::vector<u8>& payload, std::vector<u8>* out);

enum class FrameStatus {
  kFrame,            // A complete, verified frame was produced.
  kNeedMore,         // Truncated so far; feed more bytes.
  kCorrupt,          // Bad magic, impossible length, or digest mismatch.
  kVersionMismatch,  // Peer speaks a different kWireVersion.
};

/// \brief Incremental frame reassembler over a byte stream.
///
/// Feed arbitrary chunks with Append(); Next() yields frames as they
/// complete. kCorrupt and kVersionMismatch are sticky: a stream that
/// failed once cannot be trusted to resynchronize. Not thread-safe.
class FrameParser {
 public:
  void Append(const u8* data, size_t n);
  FrameStatus Next(WireFrame* out);
  /// Bytes held. Once Next returned kNeedMore, only the unparsed tail.
  size_t retained_bytes() const { return buf_.size(); }

 private:
  FrameStatus NeedMore();

  std::vector<u8> buf_;
  size_t off_ = 0;
  FrameStatus fatal_ = FrameStatus::kNeedMore;  // Sticky failure state.
};

// ----- Message payload codecs -----

struct WireHello {
  u32 shard_id = 0;
  u32 num_shards = 0;
  u32 pending_count = 0;  // kPending frames to expect before kStart.
};

void EncodeHello(const WireHello& hello, WireWriter* w);
bool DecodeHello(WireReader* r, WireHello* out);

/// PortablePending <-> bytes. Decode validates trace topology: node
/// children must strictly precede their parents and constraint roots must
/// index real nodes, so a hostile or corrupt frame cannot produce a trace
/// the importing arena would walk out of bounds.
void EncodePending(const PortablePending& pending, WireWriter* w);
bool DecodePending(WireReader* r, PortablePending* out);

struct WireVerdicts {
  std::vector<SliceCache::SatEntry> sat;
  std::vector<SliceCache::UnsatEntry> unsat;
};

void EncodeVerdicts(const WireVerdicts& verdicts, WireWriter* w);
bool DecodeVerdicts(WireReader* r, WireVerdicts* out);

/// Final shard report: the shard's ReplayResult (aggregate + per-worker
/// stats; per_shard is filled by the coordinator, not the shard) plus its
/// gossip counters.
struct WireShardResult {
  ReplayResult result;
  u64 verdicts_published = 0;
  u64 verdicts_imported = 0;
  u64 pendings_seeded = 0;  // Echo of the coordinator's kPending count.
};

void EncodeShardResult(const WireShardResult& result, WireWriter* w);
bool DecodeShardResult(WireReader* r, WireShardResult* out);

/// v4: the sparse off-log failure profile, nested in every stats
/// payload. Entries must arrive strictly increasing by branch_id with
/// every id below the job branch cap — the engine emits them that way,
/// and the invariant keeps ReplayFailureProfile::Merge a linear
/// sorted-union no hostile peer can skew.
void EncodeFailureProfile(const ReplayFailureProfile& profile, WireWriter* w);
bool DecodeFailureProfile(WireReader* r, ReplayFailureProfile* out);

/// First frame a TCP shard sends after connecting (either direction of
/// dialing): identifies the joiner. The framing layer has already
/// enforced the wire version by the time this decodes. Both fields are
/// advisory/diagnostic: the daemon applies its own --workers override
/// locally after each job decodes — the coordinator validates but does not
/// act on this echo.
struct WireJoin {
  std::string ident;       // Free-form "host/pid" tag for diagnostics.
  u32 num_workers = 0;     // Worker threads the daemon will use (0 = job's).
  // v7: shared-secret auth (RETRACE_SHARD_TOKEN). The listener compares
  // this against its own token before any job bytes ship; when the
  // coordinator's token is empty, auth is off (trusted local setups).
  std::string token;
};

void EncodeJoin(const WireJoin& join, WireWriter* w);
bool DecodeJoin(WireReader* r, WireJoin* out);

/// Everything a remote host needs to run one shard search: the program
/// sources (lowering is deterministic, so a rebuilt module has the same
/// branch ids as the coordinator's; empty for fork shards, which inherit
/// the module), the instrumentation plan, the bug
/// report, and the search-relevant ReplayConfig subset. Decode validates
/// aggressively — counts against the payload, enum ranges, stream/file
/// indices, log-length consistency — because a listening retrace_shardd
/// accepts this frame from the network.
struct WireJob {
  ReplayConfig config;  // Transport fields reset to in-process defaults.
  InstrumentationPlan plan;
  BugReport report;
};

void EncodeJob(const WireJob& job, WireWriter* w);
bool DecodeJob(WireReader* r, WireJob* out);

/// BugReport <-> bytes, shared by the job codec and the v7 service
/// ingest path (kReportSubmit carries a bare report). Decode applies the
/// same hostile-input validation as the job codec.
void EncodeReport(const BugReport& report, WireWriter* w);
bool DecodeReport(WireReader* r, BugReport* out);

/// Structural crash fingerprint: the wire digest of the canonical report
/// encoding. Two users hitting the same crash produce the same bytes
/// (method, branch log, syscall log, crash site, input shape) and land
/// in the same cluster; any structural difference lands elsewhere.
u64 ReportFingerprint(const BugReport& report);

// ----- Shard fleet job exchange (v7; the only job protocol since v9) -----

/// Attaches one job to a live shard. The payload nests the job codec: a
/// TCP shard rebuilds the pipeline from its sources, a fork shard ships
/// none and runs on the module it inherited.
struct WireJobBegin {
  u64 job_id = 0;  // Coordinator-local, strictly increasing (diagnostics).
  WireJob job;
};

void EncodeJobBegin(const WireJobBegin& begin, WireWriter* w);
bool DecodeJobBegin(WireReader* r, WireJobBegin* out);

/// Orderly fleet shutdown: no more jobs will follow; the shard exits
/// cleanly instead of treating the closed channel as a lost coordinator.
struct WireJobEnd {
  u64 jobs_served = 0;  // Coordinator's dispatch count (diagnostics).
};

void EncodeJobEnd(const WireJobEnd& end, WireWriter* w);
bool DecodeJobEnd(WireReader* r, WireJobEnd* out);

// ----- Service ingest (v7) -----

/// One bug report submitted to the resident daemon by a tenant.
struct WireReportSubmit {
  std::string tenant;  // Free-form tenant tag; drives admission budgets.
  BugReport report;
};

void EncodeReportSubmit(const WireReportSubmit& submit, WireWriter* w);
bool DecodeReportSubmit(WireReader* r, WireReportSubmit* out);

/// How a submitted report got its verdict (WireReportVerdict::origin).
enum class VerdictOrigin : u8 {
  kFresh = 0,     // This report admitted a new search.
  kAttached = 1,  // Duplicate: attached to an in-flight search.
  kCached = 2,    // Duplicate of an already-solved cluster.
  kRejected = 3,  // Admission refused (queue full / tenant over budget).
};

/// The daemon's answer to one kReportSubmit. For kRejected the nested
/// result is empty; otherwise it is the search's final ReplayResult.
struct WireReportVerdict {
  u64 cluster = 0;  // ReportFingerprint of the submitted report.
  u8 origin = 0;    // VerdictOrigin.
  WireShardResult result;
};

void EncodeReportVerdict(const WireReportVerdict& verdict, WireWriter* w);
bool DecodeReportVerdict(WireReader* r, WireReportVerdict* out);

/// One row of the daemon's cluster table (kHealthStats payload).
struct WireClusterRow {
  u64 fp = 0;
  u8 state = 0;      // 0 = queued, 1 = in-flight, 2 = solved.
  u8 reproduced = 0;  // Meaningful once solved.
  u64 reports = 0;    // Reports that landed in this cluster so far.
};

/// Ceiling on cluster rows a health reply may carry; the daemon sends
/// the most recent rows when its table is larger.
inline constexpr u32 kMaxHealthClusterRows = 4096;

/// Daemon health snapshot: queue depth, cluster table, cache occupancy,
/// fleet liveness — everything the ops side needs to see that the
/// service is ingesting, deduplicating, and keeping its fleet alive.
struct WireHealthStats {
  u64 reports_ingested = 0;
  u64 clusters = 0;
  u64 searches_run = 0;
  u64 duplicates_attached = 0;
  u64 cached_verdicts = 0;
  u64 rejected = 0;
  u64 queue_depth = 0;
  u64 in_flight = 0;
  u64 cache_sat_entries = 0;
  u64 cache_unsat_entries = 0;
  u64 cache_evictions = 0;
  u8 snapshot_loaded = 0;
  u32 fleet_shards = 0;
  u32 fleet_live = 0;
  u64 fleet_jobs = 0;
  std::vector<WireClusterRow> rows;
};

void EncodeHealthStats(const WireHealthStats& stats, WireWriter* w);
bool DecodeHealthStats(WireReader* r, WireHealthStats* out);

/// Re-balance request from a shard whose frontier drained below its
/// watermark. The coordinator relays it to a donor shard verbatim (the
/// requester field routes the eventual export back).
struct WireWorkRequest {
  u32 shard_id = 0;        // Requester (diagnostics; routing is per-channel).
  u32 want = 1;            // Max pendings the requester asks for.
  u64 frontier_size = 0;   // Requester's resident frontier at send time.
  u64 seq = 0;             // Requester-local sequence, echoed by the donor.
};

/// Ceiling on WireWorkRequest::want — a hostile or corrupt request must
/// not make a donor carve up its whole frontier in one frame.
inline constexpr u32 kMaxWorkRequestWant = 4096;

/// Ceilings the job config codec enforces on corpus seeds (a listening
/// retrace_shardd decodes them off the network). The coordinator clamps
/// the outgoing config to these before encoding, so an oversized corpus
/// degrades to "ship the first seeds that fit" instead of every shard
/// rejecting the job at decode. The *total* bound matters independently
/// of the per-seed ones: 1024 seeds x 2^20 cells would encode past the
/// frame layer's whole-payload cap and the job would be dropped as
/// corrupt, so the clamp keeps the corpus a small fraction of it
/// (2^22 cells = 32 MiB encoded).
inline constexpr u32 kMaxJobCorpusSeeds = 1024;
inline constexpr u32 kMaxJobCorpusCells = 1u << 20;
inline constexpr u64 kMaxJobCorpusTotalCells = 1ull << 22;

void EncodeWorkRequest(const WireWorkRequest& request, WireWriter* w);
bool DecodeWorkRequest(WireReader* r, WireWorkRequest* out);

/// Batch of frontier entries carved from a donor. Reuses the pending
/// codec entry by entry; an empty batch is a valid "nothing to spare"
/// answer (the requester needs it to re-arm or give up).
///
/// `requester_shard_id`/`seq` echo the WireWorkRequest being answered,
/// so a receiver can tell "the answer to MY outstanding request" from a
/// stale answer to a timed-out one or an unsolicited batch (a carve
/// returned to the fleet because its requester finished): work is
/// always imported, but only a matching echo advances the requester's
/// give-up state machine.
struct WirePendingExport {
  u32 requester_shard_id = 0;
  u64 seq = 0;
  std::vector<PortablePending> pendings;
};

void EncodePendingExport(const WirePendingExport& batch, WireWriter* w);
bool DecodePendingExport(WireReader* r, WirePendingExport* out);

/// v5 liveness beat, sent both ways on the gossip cadence
/// (ReplayConfig::heartbeat_interval_ms). Any frame proves liveness —
/// the beat only exists so an idle channel still carries proof at a
/// bounded interval. `seq` is sender-local and strictly increasing
/// (diagnostics; receivers only care that the frame arrived).
struct WireHeartbeat {
  u64 seq = 0;
};

void EncodeHeartbeat(const WireHeartbeat& beat, WireWriter* w);
bool DecodeHeartbeat(WireReader* r, WireHeartbeat* out);

// ----- Transport -----

/// \brief One end of a coordinator<->shard socketpair.
///
/// Owns the fd (closed on destruction). Receives are poll-driven and
/// reassembled by a FrameParser; counts raw bytes both ways for the
/// honest wire-overhead report in ReplayStats. Not thread-safe: one
/// thread per channel end.
///
/// Two send disciplines, chosen so the two ends can never deadlock on
/// full socket buffers: the shard end uses blocking Send() (full write,
/// EINTR-safe, SIGPIPE suppressed), while the coordinator end uses
/// Queue() — frames append to an in-memory backlog flushed
/// opportunistically (non-blocking) on every Queue()/Poll(), so the
/// relay loop always returns to reading. With one side guaranteed to
/// keep draining, the other side's blocking writes always complete.
/// The virtual methods exist for exactly one subclass — the
/// deterministic fault-injecting decorator of src/dist/fault.h, which
/// the coordinator wraps around transport channels under
/// ReplayConfig::fault_spec. Production paths always hold the base.
class WireChannel {
 public:
  explicit WireChannel(int fd) : fd_(fd) {}
  WireChannel(const WireChannel&) = delete;
  WireChannel& operator=(const WireChannel&) = delete;
  WireChannel(WireChannel&& other) noexcept;
  virtual ~WireChannel();

  /// Frames and sends one message, blocking until fully written (any
  /// queued backlog flushes first, preserving frame order). False on a
  /// broken peer.
  virtual bool Send(WireMsg type, const std::vector<u8>& payload);

  /// Frames one message onto the non-blocking send backlog and flushes
  /// whatever the socket accepts right now. When `droppable` and the
  /// backlog is over its cap, the frame is discarded instead (gossip is
  /// best-effort: a dropped verdict batch only costs a re-prove);
  /// non-droppable frames are queued regardless. False when the frame
  /// was dropped or the peer is broken.
  virtual bool Queue(WireMsg type, const std::vector<u8>& payload, bool droppable);

  enum class RecvStatus { kOk, kClosed, kCorrupt, kVersionMismatch };
  /// Flushes queued sends, then waits up to `timeout_ms` for readable
  /// data and appends every frame that completed to `out`. kOk with an
  /// empty append simply means "nothing yet". A readable `wake_fd`
  /// (e.g. an eventfd the caller's other thread signals) also ends the
  /// wait early; Poll never reads it, so a latch stays set for the
  /// caller to inspect.
  virtual RecvStatus Poll(int timeout_ms, std::vector<WireFrame>* out, int wake_fd = -1);

  virtual u64 tx_bytes() const { return tx_; }
  virtual u64 rx_bytes() const { return rx_; }
  virtual u64 dropped_frames() const { return dropped_; }
  virtual int fd() const { return fd_; }

 private:
  // Writes as much of `out_` as the socket accepts; `blocking` waits for
  // all of it. Marks the channel broken on a hard error.
  bool Flush(bool blocking);

  int fd_ = -1;
  bool broken_ = false;
  FrameParser parser_;
  std::vector<u8> out_;
  size_t out_off_ = 0;
  u64 tx_ = 0;
  u64 rx_ = 0;
  u64 dropped_ = 0;
};

}  // namespace retrace

#endif  // RETRACE_DIST_WIRE_H_
