#include "src/dist/wire.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace retrace {
namespace {

// Frame header: magic u32 | version u16 | type u16 | payload_len u32 |
// digest u64.
constexpr size_t kHeaderSize = 4 + 2 + 2 + 4 + 8;
// Hard ceiling on one payload. The largest real frames (verdict batches,
// shard results) are a few MB; anything near this is a corrupt length.
constexpr u32 kMaxPayload = 256u * 1024u * 1024u;

void PutLE(u64 v, size_t bytes, std::vector<u8>* out) {
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<u8>(v >> (8 * i)));
  }
}

u64 GetLE(const u8* p, size_t bytes) {
  u64 v = 0;
  for (size_t i = 0; i < bytes; ++i) {
    v |= static_cast<u64>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void WireWriter::U16(u16 v) { PutLE(v, 2, &buf_); }
void WireWriter::U32(u32 v) { PutLE(v, 4, &buf_); }
void WireWriter::U64(u64 v) { PutLE(v, 8, &buf_); }

void WireWriter::F64(double v) {
  u64 bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<u32>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

bool WireReader::Raw(void* out, size_t n) {
  if (!ok_ || n_ - off_ < n) {
    ok_ = false;
    return false;
  }
  std::memcpy(out, p_ + off_, n);
  off_ += n;
  return true;
}

bool WireReader::U8(u8* v) { return Raw(v, 1); }

bool WireReader::U16(u16* v) {
  u8 raw[2];
  if (!Raw(raw, 2)) {
    return false;
  }
  *v = static_cast<u16>(GetLE(raw, 2));
  return true;
}

bool WireReader::U32(u32* v) {
  u8 raw[4];
  if (!Raw(raw, 4)) {
    return false;
  }
  *v = static_cast<u32>(GetLE(raw, 4));
  return true;
}

bool WireReader::U64(u64* v) {
  u8 raw[8];
  if (!Raw(raw, 8)) {
    return false;
  }
  *v = GetLE(raw, 8);
  return true;
}

bool WireReader::I64(i64* v) {
  u64 raw = 0;
  if (!U64(&raw)) {
    return false;
  }
  *v = static_cast<i64>(raw);
  return true;
}

bool WireReader::I32(i32* v) {
  u32 raw = 0;
  if (!U32(&raw)) {
    return false;
  }
  *v = static_cast<i32>(raw);
  return true;
}

bool WireReader::F64(double* v) {
  u64 bits = 0;
  if (!U64(&bits)) {
    return false;
  }
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool WireReader::Str(std::string* s) {
  u32 len = 0;
  if (!U32(&len) || !FitsCount(len, 1)) {
    return false;
  }
  s->assign(reinterpret_cast<const char*>(p_ + off_), len);
  off_ += len;
  return true;
}

bool WireReader::FitsCount(u64 count, size_t min_bytes_each) {
  if (!ok_ || count > remaining() / (min_bytes_each == 0 ? 1 : min_bytes_each)) {
    ok_ = false;
    return false;
  }
  return true;
}

bool WireReader::Skip(size_t n) {
  if (!ok_ || n_ - off_ < n) {
    ok_ = false;
    return false;
  }
  off_ += n;
  return true;
}

u64 WireDigest(const u8* data, size_t n) {
  u64 h = 0x2545f4914f6cdd1dull;
  // Mix 8 bytes at a time, then the tail byte by byte.
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    h = HashMix(h, GetLE(data + i, 8));
  }
  for (; i < n; ++i) {
    h = HashMix(h, data[i]);
  }
  return HashMix(h, n);
}

void AppendFrame(WireMsg type, const std::vector<u8>& payload, std::vector<u8>* out) {
  PutLE(kWireMagic, 4, out);
  PutLE(kWireVersion, 2, out);
  PutLE(static_cast<u16>(type), 2, out);
  PutLE(static_cast<u32>(payload.size()), 4, out);
  PutLE(WireDigest(payload.data(), payload.size()), 8, out);
  out->insert(out->end(), payload.begin(), payload.end());
}

void FrameParser::Append(const u8* data, size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

FrameStatus FrameParser::Next(WireFrame* out) {
  if (fatal_ != FrameStatus::kNeedMore) {
    return fatal_;
  }
  if (buf_.size() - off_ < kHeaderSize) {
    return FrameStatus::kNeedMore;
  }
  const u8* h = buf_.data() + off_;
  if (static_cast<u32>(GetLE(h, 4)) != kWireMagic) {
    return fatal_ = FrameStatus::kCorrupt;
  }
  if (static_cast<u16>(GetLE(h + 4, 2)) != kWireVersion) {
    return fatal_ = FrameStatus::kVersionMismatch;
  }
  const u16 type = static_cast<u16>(GetLE(h + 6, 2));
  const u32 len = static_cast<u32>(GetLE(h + 8, 4));
  const u64 digest = GetLE(h + 12, 8);
  if (len > kMaxPayload) {
    return fatal_ = FrameStatus::kCorrupt;
  }
  if (buf_.size() - off_ < kHeaderSize + len) {
    return FrameStatus::kNeedMore;
  }
  const u8* payload = h + kHeaderSize;
  if (WireDigest(payload, len) != digest) {
    return fatal_ = FrameStatus::kCorrupt;
  }
  out->type = static_cast<WireMsg>(type);
  out->payload.assign(payload, payload + len);
  off_ += kHeaderSize + len;
  // Compact once the consumed prefix dominates, so a long-lived stream
  // does not grow without bound.
  if (off_ > 1u << 20 && off_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  return FrameStatus::kFrame;
}

// ----- Message payload codecs -----

void EncodeHello(const WireHello& hello, WireWriter* w) {
  w->U32(hello.shard_id);
  w->U32(hello.num_shards);
  w->U32(hello.pending_count);
}

bool DecodeHello(WireReader* r, WireHello* out) {
  return r->U32(&out->shard_id) && r->U32(&out->num_shards) && r->U32(&out->pending_count);
}

void EncodePending(const PortablePending& pending, WireWriter* w) {
  const PortableTrace& trace = *pending.trace;
  w->U32(static_cast<u32>(trace.nodes.size()));
  for (const ExprNode& node : trace.nodes) {
    w->U8(static_cast<u8>(node.op));
    w->I32(node.a);
    w->I32(node.b);
    w->I64(node.imm);
  }
  w->U32(static_cast<u32>(trace.constraints.size()));
  for (const Constraint& c : trace.constraints) {
    w->I32(c.expr);
    w->U8(c.want_true ? 1 : 0);
  }
  w->U64(pending.len);
  w->U8(pending.negate_last ? 1 : 0);
  w->U32(static_cast<u32>(pending.seed->size()));
  for (const i64 v : *pending.seed) {
    w->I64(v);
  }
  w->U32(static_cast<u32>(pending.domains->size()));
  for (const Interval& dom : *pending.domains) {
    w->I64(dom.lo);
    w->I64(dom.hi);
  }
  w->U64(pending.priority);
  w->U64(pending.dir_score);
}

bool DecodePending(WireReader* r, PortablePending* out) {
  auto trace = std::make_shared<PortableTrace>();
  u32 node_count = 0;
  if (!r->U32(&node_count) || !r->FitsCount(node_count, 1 + 4 + 4 + 8)) {
    return false;
  }
  trace->nodes.reserve(node_count);
  for (u32 i = 0; i < node_count; ++i) {
    ExprNode node;
    u8 op = 0;
    if (!r->U8(&op) || !r->I32(&node.a) || !r->I32(&node.b) || !r->I64(&node.imm)) {
      return false;
    }
    if (op > static_cast<u8>(ExprOp::kTruncChar)) {
      return false;
    }
    node.op = static_cast<ExprOp>(op);
    // Topological invariant: children strictly precede parents, so the
    // importing arena can re-intern in one forward pass.
    const auto child_ok = [i](ExprRef ref) {
      return ref == kNoExpr || (ref >= 0 && static_cast<u32>(ref) < i);
    };
    if (!child_ok(node.a) || !child_ok(node.b)) {
      return false;
    }
    trace->nodes.push_back(node);
  }
  u32 constraint_count = 0;
  if (!r->U32(&constraint_count) || !r->FitsCount(constraint_count, 4 + 1)) {
    return false;
  }
  trace->constraints.reserve(constraint_count);
  for (u32 i = 0; i < constraint_count; ++i) {
    Constraint c;
    u8 want = 0;
    if (!r->I32(&c.expr) || !r->U8(&want)) {
      return false;
    }
    if (c.expr < 0 || static_cast<u32>(c.expr) >= node_count) {
      return false;
    }
    c.want_true = want != 0;
    trace->constraints.push_back(c);
  }
  u64 len = 0;
  u8 negate = 0;
  if (!r->U64(&len) || len > constraint_count || !r->U8(&negate)) {
    return false;
  }
  u32 seed_count = 0;
  if (!r->U32(&seed_count) || !r->FitsCount(seed_count, 8)) {
    return false;
  }
  auto seed = std::make_shared<std::vector<i64>>();
  seed->reserve(seed_count);
  for (u32 i = 0; i < seed_count; ++i) {
    i64 v = 0;
    if (!r->I64(&v)) {
      return false;
    }
    seed->push_back(v);
  }
  u32 domain_count = 0;
  if (!r->U32(&domain_count) || !r->FitsCount(domain_count, 16)) {
    return false;
  }
  auto domains = std::make_shared<std::vector<Interval>>();
  domains->reserve(domain_count);
  for (u32 i = 0; i < domain_count; ++i) {
    Interval dom;
    if (!r->I64(&dom.lo) || !r->I64(&dom.hi)) {
      return false;
    }
    domains->push_back(dom);
  }
  u64 priority = 0;
  u64 dir_score = 0;
  if (!r->U64(&priority) || !r->U64(&dir_score) || !r->ok()) {
    return false;
  }
  // Variable ids must name real input cells: seed/domains snapshots cover
  // every cell of the producing run, so an id past both is hostile or
  // corrupt — and would otherwise make the consuming solver size its
  // model vector to max_var + 1 (a multi-GB allocation for a forged id).
  const u64 var_limit = std::max<u64>(seed_count, domain_count);
  for (const ExprNode& node : trace->nodes) {
    if (node.op == ExprOp::kVar &&
        (node.imm < 0 || static_cast<u64>(node.imm) >= var_limit)) {
      return false;
    }
  }
  out->trace = std::move(trace);
  out->len = static_cast<size_t>(len);
  out->negate_last = negate != 0;
  out->seed = std::move(seed);
  out->domains = std::move(domains);
  out->priority = priority;
  out->dir_score = dir_score;
  return true;
}

void EncodeVerdicts(const WireVerdicts& verdicts, WireWriter* w) {
  w->U32(static_cast<u32>(verdicts.sat.size()));
  for (const SliceCache::SatEntry& entry : verdicts.sat) {
    w->U64(entry.key);
    w->U32(static_cast<u32>(entry.model.size()));
    for (const auto& [var, value] : entry.model) {
      w->I32(var);
      w->I64(value);
    }
  }
  w->U32(static_cast<u32>(verdicts.unsat.size()));
  for (const SliceCache::UnsatEntry& entry : verdicts.unsat) {
    w->U64(entry.key);
    w->U64(entry.check);
  }
}

bool DecodeVerdicts(WireReader* r, WireVerdicts* out) {
  u32 sat_count = 0;
  if (!r->U32(&sat_count) || !r->FitsCount(sat_count, 8 + 4)) {
    return false;
  }
  out->sat.reserve(sat_count);
  for (u32 i = 0; i < sat_count; ++i) {
    SliceCache::SatEntry entry;
    u32 model_count = 0;
    if (!r->U64(&entry.key) || !r->U32(&model_count) || !r->FitsCount(model_count, 4 + 8)) {
      return false;
    }
    entry.model.reserve(model_count);
    for (u32 j = 0; j < model_count; ++j) {
      i32 var = 0;
      i64 value = 0;
      if (!r->I32(&var) || !r->I64(&value)) {
        return false;
      }
      entry.model.emplace_back(var, value);
    }
    out->sat.push_back(std::move(entry));
  }
  u32 unsat_count = 0;
  if (!r->U32(&unsat_count) || !r->FitsCount(unsat_count, 16)) {
    return false;
  }
  out->unsat.reserve(unsat_count);
  for (u32 i = 0; i < unsat_count; ++i) {
    SliceCache::UnsatEntry entry;
    if (!r->U64(&entry.key) || !r->U64(&entry.check)) {
      return false;
    }
    out->unsat.push_back(entry);
  }
  return r->ok();
}

namespace {

// Ceilings for payloads accepted from the network by a listening
// retrace_shardd. Generous for any real program in this repo; a frame
// near them is hostile or corrupt.
constexpr u32 kMaxJobStrings = 4096;      // argv entries, streams, files.
constexpr i64 kMaxJobStreamLen = 1 << 24; // Logical stream length (cells!).
constexpr u32 kMaxJobBranches = 1 << 24;  // Plan bitset size.
constexpr u64 kMaxJobLogBits = 1ull << 32;
// v4 plan provenance ceilings: detail_level counts refinement rounds
// (every round adds at least one branch, so it can never exceed the
// branch ceiling) and provenance is a short human-readable lineage.
constexpr u32 kMaxPlanDetailLevel = kMaxJobBranches;
constexpr size_t kMaxPlanProvenanceLen = 4096;

void EncodeCrashSite(const CrashSite& crash, WireWriter* w) {
  w->U8(static_cast<u8>(crash.kind));
  w->I32(crash.func);
  w->I32(crash.loc.unit);
  w->I32(crash.loc.line);
  w->I32(crash.loc.col);
  w->I64(crash.code);
}

bool DecodeCrashSite(WireReader* r, CrashSite* out) {
  u8 kind = 0;
  if (!r->U8(&kind) || kind > static_cast<u8>(CrashSite::Kind::kStackOverflow)) {
    return false;
  }
  out->kind = static_cast<CrashSite::Kind>(kind);
  return r->I32(&out->func) && r->I32(&out->loc.unit) && r->I32(&out->loc.line) &&
         r->I32(&out->loc.col) && r->I64(&out->code);
}

void EncodeWorkerStats(const ReplayWorkerStats& w, WireWriter* out) {
  out->U64(w.runs);
  out->U64(w.solver_calls);
  out->U64(w.aborts_forced_direction);
  out->U64(w.aborts_concrete_mismatch);
  out->U64(w.aborts_log_exhausted);
  out->U64(w.crashes_wrong_site);
  out->U64(w.steals);
  out->U64(w.dedup_skips);
  out->U64(w.cancelled_runs);
  out->U64(w.slices_solved);
  out->U64(w.slice_sat_hits);
  out->U64(w.slice_unsat_hits);
  out->U64(w.pendings_pruned);
  out->U64(w.corpus_runs);
  out->U64(w.promotions);
}

bool DecodeWorkerStats(WireReader* r, ReplayWorkerStats* w) {
  return r->U64(&w->runs) && r->U64(&w->solver_calls) && r->U64(&w->aborts_forced_direction) &&
         r->U64(&w->aborts_concrete_mismatch) && r->U64(&w->aborts_log_exhausted) &&
         r->U64(&w->crashes_wrong_site) && r->U64(&w->steals) && r->U64(&w->dedup_skips) &&
         r->U64(&w->cancelled_runs) && r->U64(&w->slices_solved) &&
         r->U64(&w->slice_sat_hits) && r->U64(&w->slice_unsat_hits) &&
         r->U64(&w->pendings_pruned) && r->U64(&w->corpus_runs) && r->U64(&w->promotions);
}

void EncodeStats(const ReplayStats& s, WireWriter* out) {
  out->U64(s.runs);
  out->U64(s.solver_calls);
  out->U64(s.aborts_forced_direction);
  out->U64(s.aborts_concrete_mismatch);
  out->U64(s.aborts_log_exhausted);
  out->U64(s.crashes_wrong_site);
  out->U64(s.pending_peak);
  out->U64(s.steals);
  out->U64(s.dedup_skips);
  out->U64(s.cancelled_runs);
  out->U64(s.slices_solved);
  out->U64(s.slice_sat_hits);
  out->U64(s.slice_unsat_hits);
  out->U64(s.slice_evictions);
  out->U64(s.pendings_exported);
  out->U64(s.pendings_imported);
  out->U64(s.rebalance_rounds);
  out->U64(s.pendings_pruned);
  out->U64(s.corpus_runs);
  out->U64(s.promotions);
  // v5: graceful-degradation counters. Zero in shard-originated payloads
  // (only the coordinator observes deaths), carried for codec fidelity.
  out->U64(s.shards_lost);
  out->U64(s.pendings_recovered);
  out->U64(s.heartbeats_missed);
  out->U8(s.fallback_inprocess ? 1 : 0);
  for (const u64 v : s.discipline_runs) {
    out->U64(v);
  }
  for (const u64 v : s.discipline_on_log) {
    out->U64(v);
  }
  out->U32(static_cast<u32>(s.per_worker.size()));
  for (const ReplayWorkerStats& w : s.per_worker) {
    EncodeWorkerStats(w, out);
  }
  EncodeFailureProfile(s.failure_profile, out);  // v4.
}

bool DecodeStats(WireReader* r, ReplayStats* s) {
  if (!(r->U64(&s->runs) && r->U64(&s->solver_calls) && r->U64(&s->aborts_forced_direction) &&
        r->U64(&s->aborts_concrete_mismatch) && r->U64(&s->aborts_log_exhausted) &&
        r->U64(&s->crashes_wrong_site) && r->U64(&s->pending_peak) && r->U64(&s->steals) &&
        r->U64(&s->dedup_skips) && r->U64(&s->cancelled_runs) && r->U64(&s->slices_solved) &&
        r->U64(&s->slice_sat_hits) && r->U64(&s->slice_unsat_hits) &&
        r->U64(&s->slice_evictions) && r->U64(&s->pendings_exported) &&
        r->U64(&s->pendings_imported) && r->U64(&s->rebalance_rounds) &&
        r->U64(&s->pendings_pruned) && r->U64(&s->corpus_runs) && r->U64(&s->promotions))) {
    return false;
  }
  u8 fallback = 0;
  if (!r->U64(&s->shards_lost) || !r->U64(&s->pendings_recovered) ||
      !r->U64(&s->heartbeats_missed) || !r->U8(&fallback)) {
    return false;
  }
  s->fallback_inprocess = fallback != 0;
  for (u64& v : s->discipline_runs) {
    if (!r->U64(&v)) {
      return false;
    }
  }
  for (u64& v : s->discipline_on_log) {
    if (!r->U64(&v)) {
      return false;
    }
  }
  u32 worker_count = 0;
  if (!r->U32(&worker_count) || !r->FitsCount(worker_count, 15 * 8)) {
    return false;
  }
  s->per_worker.resize(worker_count);
  for (u32 i = 0; i < worker_count; ++i) {
    if (!DecodeWorkerStats(r, &s->per_worker[i])) {
      return false;
    }
  }
  return DecodeFailureProfile(r, &s->failure_profile);
}

}  // namespace

// v4: nested in every stats payload; declared in wire.h so the codec
// tests can exercise hostile shapes (non-monotone ids, forged counts)
// without hand-building a whole shard result.
void EncodeFailureProfile(const ReplayFailureProfile& profile, WireWriter* w) {
  w->U32(static_cast<u32>(profile.branches.size()));
  for (const BranchFailureCounts& c : profile.branches) {
    w->U32(c.branch_id);
    w->U64(c.deaths_concrete);
    w->U64(c.deaths_exhausted);
    w->U64(c.deaths_wrong_crash);
    w->U64(c.blind_execs);
  }
  w->U64(profile.deaths_unattributed);
}

bool DecodeFailureProfile(WireReader* r, ReplayFailureProfile* out) {
  u32 count = 0;
  if (!r->U32(&count) || !r->FitsCount(count, 4 + 4 * 8) || count > kMaxJobBranches) {
    return false;
  }
  out->branches.resize(count);
  u64 prev_id = 0;
  for (u32 i = 0; i < count; ++i) {
    BranchFailureCounts& c = out->branches[i];
    if (!r->U32(&c.branch_id) || !r->U64(&c.deaths_concrete) || !r->U64(&c.deaths_exhausted) ||
        !r->U64(&c.deaths_wrong_crash) || !r->U64(&c.blind_execs)) {
      return false;
    }
    if (c.branch_id >= kMaxJobBranches || (i > 0 && c.branch_id <= prev_id)) {
      return false;
    }
    prev_id = c.branch_id;
  }
  return r->U64(&out->deaths_unattributed);
}

void EncodeShardResult(const WireShardResult& shard, WireWriter* w) {
  const ReplayResult& result = shard.result;
  w->U8(result.reproduced ? 1 : 0);
  w->U8(result.budget_exhausted ? 1 : 0);
  w->F64(result.wall_seconds);
  w->U32(static_cast<u32>(result.witness_argv.size()));
  for (const std::string& arg : result.witness_argv) {
    w->Str(arg);
  }
  w->U32(static_cast<u32>(result.witness_cells.size()));
  for (const i64 cell : result.witness_cells) {
    w->I64(cell);
  }
  EncodeCrashSite(result.crash, w);
  EncodeStats(result.stats, w);
  w->U64(shard.verdicts_published);
  w->U64(shard.verdicts_imported);
  w->U64(shard.pendings_seeded);
}

bool DecodeShardResult(WireReader* r, WireShardResult* out) {
  ReplayResult& result = out->result;
  u8 reproduced = 0;
  u8 exhausted = 0;
  if (!r->U8(&reproduced) || !r->U8(&exhausted) || !r->F64(&result.wall_seconds)) {
    return false;
  }
  result.reproduced = reproduced != 0;
  result.budget_exhausted = exhausted != 0;
  u32 argv_count = 0;
  if (!r->U32(&argv_count) || !r->FitsCount(argv_count, 4)) {
    return false;
  }
  result.witness_argv.resize(argv_count);
  for (u32 i = 0; i < argv_count; ++i) {
    if (!r->Str(&result.witness_argv[i])) {
      return false;
    }
  }
  u32 cell_count = 0;
  if (!r->U32(&cell_count) || !r->FitsCount(cell_count, 8)) {
    return false;
  }
  result.witness_cells.resize(cell_count);
  for (u32 i = 0; i < cell_count; ++i) {
    if (!r->I64(&result.witness_cells[i])) {
      return false;
    }
  }
  if (!DecodeCrashSite(r, &result.crash)) {
    return false;
  }
  if (!DecodeStats(r, &result.stats)) {
    return false;
  }
  return r->U64(&out->verdicts_published) && r->U64(&out->verdicts_imported) &&
         r->U64(&out->pendings_seeded) && r->ok();
}

void EncodeJoin(const WireJoin& join, WireWriter* w) {
  w->Str(join.ident);
  w->U32(join.num_workers);
  w->Str(join.token);
}

bool DecodeJoin(WireReader* r, WireJoin* out) {
  if (!r->Str(&out->ident) || out->ident.size() > 256) {
    return false;  // An identity tag this long is hostile, not helpful.
  }
  if (!r->U32(&out->num_workers) || out->num_workers > 4096) {
    return false;
  }
  if (!r->Str(&out->token) || out->token.size() > 256) {
    return false;
  }
  return r->ok();
}

void EncodeWorkRequest(const WireWorkRequest& request, WireWriter* w) {
  w->U32(request.shard_id);
  w->U32(request.want);
  w->U64(request.frontier_size);
  w->U64(request.seq);
}

bool DecodeWorkRequest(WireReader* r, WireWorkRequest* out) {
  if (!r->U32(&out->shard_id) || !r->U32(&out->want) || !r->U64(&out->frontier_size) ||
      !r->U64(&out->seq)) {
    return false;
  }
  // A zero or absurd ask is a peer bug (or a forged frame): refuse rather
  // than letting a donor carve its whole frontier into one frame.
  return out->want >= 1 && out->want <= kMaxWorkRequestWant && r->ok();
}

void EncodePendingExport(const WirePendingExport& batch, WireWriter* w) {
  w->U32(batch.requester_shard_id);
  w->U64(batch.seq);
  w->U32(static_cast<u32>(batch.pendings.size()));
  for (const PortablePending& pending : batch.pendings) {
    EncodePending(pending, w);
  }
}

bool DecodePendingExport(WireReader* r, WirePendingExport* out) {
  u32 count = 0;
  // Smallest possible pending encoding: empty trace/constraints/seed/
  // domains = 4+4+8+1+4+4+8 bytes.
  if (!r->U32(&out->requester_shard_id) || !r->U64(&out->seq) || !r->U32(&count) ||
      count > kMaxWorkRequestWant || !r->FitsCount(count, 33)) {
    return false;
  }
  out->pendings.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    PortablePending pending;
    if (!DecodePending(r, &pending)) {
      return false;
    }
    out->pendings.push_back(std::move(pending));
  }
  return r->ok();
}

void EncodeHeartbeat(const WireHeartbeat& beat, WireWriter* w) { w->U64(beat.seq); }

bool DecodeHeartbeat(WireReader* r, WireHeartbeat* out) {
  return r->U64(&out->seq) && r->ok();
}

// ----- Job codec (the payload of kJobBegin) -----

namespace {


void EncodeConfig(const ReplayConfig& c, WireWriter* w) {
  w->U64(c.max_runs);
  w->I64(c.wall_ms);
  w->U64(c.total_steps);
  w->U64(c.max_steps_per_run);
  w->U64(c.solver.max_steps);
  w->U64(c.solver.max_enumeration);
  w->U64(c.seed);
  w->U8(c.use_syscall_log ? 1 : 0);
  w->U8(static_cast<u8>(c.pick));
  w->U32(c.num_workers);
  w->U8(c.solver_cache ? 1 : 0);
  w->U64(c.slice_cache_capacity);
  w->U32(c.solve_batch);
  w->I32(c.gossip_interval_ms);
  // v5: heartbeat knobs travel with the job so a remote shard's
  // self-termination deadline matches the coordinator's expectations.
  w->I32(c.heartbeat_interval_ms);
  w->I32(c.heartbeat_timeout_ms);
  w->U8(c.prune_subsumed ? 1 : 0);
  w->U32(static_cast<u32>(c.corpus_seeds.size()));
  for (const std::vector<i64>& seed : c.corpus_seeds) {
    w->U32(static_cast<u32>(seed.size()));
    for (const i64 v : seed) {
      w->I64(v);
    }
  }
}

bool DecodeConfig(WireReader* r, ReplayConfig* c) {
  u8 use_log = 0;
  u8 pick = 0;
  u8 cache = 0;
  u8 prune = 0;
  if (!(r->U64(&c->max_runs) && r->I64(&c->wall_ms) && r->U64(&c->total_steps) &&
        r->U64(&c->max_steps_per_run) && r->U64(&c->solver.max_steps) &&
        r->U64(&c->solver.max_enumeration) && r->U64(&c->seed) && r->U8(&use_log) &&
        r->U8(&pick) && r->U32(&c->num_workers) && r->U8(&cache) &&
        r->U64(&c->slice_cache_capacity) && r->U32(&c->solve_batch) &&
        r->I32(&c->gossip_interval_ms) && r->I32(&c->heartbeat_interval_ms) &&
        r->I32(&c->heartbeat_timeout_ms) && r->U8(&prune))) {
    return false;
  }
  if (pick > static_cast<u8>(ReplayConfig::Pick::kDirection) || c->num_workers > 4096 ||
      c->solve_batch > 65536) {
    return false;
  }
  // A listening retrace_shardd decodes this off the network: hostile
  // heartbeat knobs must not disable its self-termination deadline into
  // a negative wait or a decades-long one.
  if (c->heartbeat_interval_ms < 0 || c->heartbeat_interval_ms > 60'000 ||
      c->heartbeat_timeout_ms < 0 || c->heartbeat_timeout_ms > 600'000) {
    return false;
  }
  // Corpus seeds ride the config: bounded counts (a listening
  // retrace_shardd decodes this straight off the network) and sized
  // against the payload before any allocation.
  u32 corpus_count = 0;
  if (!r->U32(&corpus_count) || corpus_count > kMaxJobCorpusSeeds ||
      !r->FitsCount(corpus_count, 4)) {
    return false;
  }
  c->corpus_seeds.clear();
  c->corpus_seeds.reserve(corpus_count);
  for (u32 i = 0; i < corpus_count; ++i) {
    u32 cell_count = 0;
    if (!r->U32(&cell_count) || cell_count > kMaxJobCorpusCells ||
        !r->FitsCount(cell_count, 8)) {
      return false;
    }
    std::vector<i64> seed(cell_count);
    for (u32 j = 0; j < cell_count; ++j) {
      if (!r->I64(&seed[j])) {
        return false;
      }
    }
    c->corpus_seeds.push_back(std::move(seed));
  }
  c->use_syscall_log = use_log != 0;
  c->pick = static_cast<ReplayConfig::Pick>(pick);
  c->solver_cache = cache != 0;
  c->prune_subsumed = prune != 0;
  // A shipped job always runs one in-process shard search on the remote
  // side; transport fields never nest.
  c->num_shards = 1;
  c->transport = ReplayTransport::kFork;
  c->shard_endpoints.clear();
  c->program = ReplayProgramSources{};
  // Fault injection is a coordinator-side test harness; a shard must
  // never inject faults into its own (only) channel.
  c->fault_spec.clear();
  // The auth token authenticates the channel; it never rides the job.
  c->shard_token.clear();
  return true;
}

void EncodePlan(const InstrumentationPlan& plan, WireWriter* w) {
  w->U8(static_cast<u8>(plan.method));
  // v4: refinement provenance travels with the plan, so a remote shard
  // reports the same plan identity the coordinator chose.
  w->U32(plan.detail_level);
  w->Str(plan.provenance);
  const u32 size = static_cast<u32>(plan.branches.size());
  w->U32(size);
  for (u32 byte = 0; byte * 8 < size; ++byte) {
    u8 packed = 0;
    for (u32 bit = 0; bit < 8 && byte * 8 + bit < size; ++bit) {
      packed |= static_cast<u8>(plan.branches.Test(byte * 8 + bit) ? 1u << bit : 0u);
    }
    w->U8(packed);
  }
}

bool DecodePlan(WireReader* r, InstrumentationPlan* out) {
  u8 method = 0;
  u32 size = 0;
  if (!r->U8(&method) || method > static_cast<u8>(InstrumentMethod::kAllBranches) ||
      !r->U32(&out->detail_level) || out->detail_level > kMaxPlanDetailLevel ||
      !r->Str(&out->provenance) || out->provenance.size() > kMaxPlanProvenanceLen ||
      !r->U32(&size) || size > kMaxJobBranches || !r->FitsCount((size + 7) / 8, 1)) {
    return false;
  }
  out->method = static_cast<InstrumentMethod>(method);
  out->branches = DenseBitset(size);
  for (u32 byte = 0; byte * 8 < size; ++byte) {
    u8 packed = 0;
    if (!r->U8(&packed)) {
      return false;
    }
    for (u32 bit = 0; bit < 8 && byte * 8 + bit < size; ++bit) {
      if ((packed >> bit) & 1u) {
        out->branches.Set(byte * 8 + bit);
      }
    }
  }
  return true;
}

void EncodeInputShape(const InputSpec& spec, WireWriter* w) {
  w->U32(static_cast<u32>(spec.argv.size()));
  for (const std::string& arg : spec.argv) {
    w->Str(arg);
  }
  w->U32(static_cast<u32>(spec.argv_public.size()));
  for (const bool is_public : spec.argv_public) {
    w->U8(is_public ? 1 : 0);
  }
  const WorldShape& world = spec.world;
  w->U32(static_cast<u32>(world.streams.size()));
  for (const StreamShape& stream : world.streams) {
    w->Str(stream.name);
    w->U32(static_cast<u32>(stream.bytes.size()));
    for (const u8 byte : stream.bytes) {
      w->U8(byte);
    }
    w->I64(stream.length);
    w->I64(stream.chunk);
  }
  w->U32(static_cast<u32>(world.files.size()));
  for (const auto& [path, stream] : world.files) {
    w->Str(path);
    w->I32(stream);
  }
  w->I32(world.stdin_stream);
  w->U32(static_cast<u32>(world.connection_streams.size()));
  for (const i32 stream : world.connection_streams) {
    w->I32(stream);
  }
  w->I32(world.max_concurrent_conns);
  w->I32(world.listen_fd);
}

bool DecodeInputShape(WireReader* r, InputSpec* out) {
  u32 argc = 0;
  if (!r->U32(&argc) || argc > kMaxJobStrings || !r->FitsCount(argc, 4)) {
    return false;
  }
  out->argv.resize(argc);
  for (u32 i = 0; i < argc; ++i) {
    if (!r->Str(&out->argv[i])) {
      return false;
    }
  }
  u32 public_count = 0;
  if (!r->U32(&public_count) || public_count > kMaxJobStrings ||
      !r->FitsCount(public_count, 1)) {
    return false;
  }
  out->argv_public.resize(public_count);
  for (u32 i = 0; i < public_count; ++i) {
    u8 is_public = 0;
    if (!r->U8(&is_public)) {
      return false;
    }
    out->argv_public[i] = is_public != 0;
  }
  WorldShape& world = out->world;
  u32 stream_count = 0;
  if (!r->U32(&stream_count) || stream_count > kMaxJobStrings ||
      !r->FitsCount(stream_count, 4 + 4 + 8 + 8)) {
    return false;
  }
  world.streams.resize(stream_count);
  i64 total_stream_cells = 0;
  for (StreamShape& stream : world.streams) {
    u32 byte_count = 0;
    if (!r->Str(&stream.name) || !r->U32(&byte_count) || !r->FitsCount(byte_count, 1)) {
      return false;
    }
    stream.bytes.resize(byte_count);
    for (u32 i = 0; i < byte_count; ++i) {
      if (!r->U8(&stream.bytes[i])) {
        return false;
      }
    }
    // Logical lengths size the input-cell layout in the consuming shard:
    // a forged multi-GB length — per stream or summed across 4096 tiny
    // stream records — would be a memory bomb.
    if (!r->I64(&stream.length) || stream.length < 0 || stream.length > kMaxJobStreamLen ||
        !r->I64(&stream.chunk) || stream.chunk < -1) {
      return false;
    }
    total_stream_cells += stream.length;
    if (total_stream_cells > kMaxJobStreamLen) {
      return false;
    }
  }
  const auto stream_index_ok = [stream_count](i32 index) {
    return index >= -1 && (index < 0 || static_cast<u32>(index) < stream_count);
  };
  u32 file_count = 0;
  if (!r->U32(&file_count) || file_count > kMaxJobStrings || !r->FitsCount(file_count, 4 + 4)) {
    return false;
  }
  world.files.resize(file_count);
  for (auto& [path, stream] : world.files) {
    if (!r->Str(&path) || !r->I32(&stream) || !stream_index_ok(stream)) {
      return false;
    }
  }
  if (!r->I32(&world.stdin_stream) || !stream_index_ok(world.stdin_stream)) {
    return false;
  }
  u32 conn_count = 0;
  if (!r->U32(&conn_count) || conn_count > kMaxJobStrings || !r->FitsCount(conn_count, 4)) {
    return false;
  }
  world.connection_streams.resize(conn_count);
  for (i32& stream : world.connection_streams) {
    if (!r->I32(&stream) || !stream_index_ok(stream)) {
      return false;
    }
  }
  if (!r->I32(&world.max_concurrent_conns) || world.max_concurrent_conns < 0 ||
      world.max_concurrent_conns > 4096) {
    return false;
  }
  return r->I32(&world.listen_fd) && world.listen_fd >= -1;
}

}  // namespace

void EncodeReport(const BugReport& report, WireWriter* w) {
  w->U8(static_cast<u8>(report.method));
  w->U64(report.branch_log.size());
  const std::vector<u8> log_bytes = report.branch_log.Serialize();
  w->U32(static_cast<u32>(log_bytes.size()));
  for (const u8 byte : log_bytes) {
    w->U8(byte);
  }
  w->U8(report.has_syscall_log ? 1 : 0);
  w->U32(static_cast<u32>(report.syscall_log.size()));
  for (const SyscallRecord& record : report.syscall_log) {
    w->U8(static_cast<u8>(record.kind));
    w->I64(record.value);
  }
  EncodeCrashSite(report.crash, w);
  EncodeInputShape(report.shape, w);
}

bool DecodeReport(WireReader* r, BugReport* out) {
  u8 method = 0;
  if (!r->U8(&method) || method > static_cast<u8>(InstrumentMethod::kAllBranches)) {
    return false;
  }
  out->method = static_cast<InstrumentMethod>(method);
  u64 bit_count = 0;
  u32 byte_count = 0;
  if (!r->U64(&bit_count) || bit_count > kMaxJobLogBits || !r->U32(&byte_count) ||
      byte_count != (bit_count + 7) / 8 || !r->FitsCount(byte_count, 1)) {
    return false;
  }
  std::vector<u8> log_bytes(byte_count);
  for (u32 i = 0; i < byte_count; ++i) {
    if (!r->U8(&log_bytes[i])) {
      return false;
    }
  }
  out->branch_log = BitVec::Deserialize(log_bytes, static_cast<size_t>(bit_count));
  u8 has_log = 0;
  u32 record_count = 0;
  if (!r->U8(&has_log) || !r->U32(&record_count) || !r->FitsCount(record_count, 1 + 8)) {
    return false;
  }
  out->has_syscall_log = has_log != 0;
  out->syscall_log.resize(record_count);
  for (SyscallRecord& record : out->syscall_log) {
    u8 kind = 0;
    if (!r->U8(&kind) || kind >= static_cast<u8>(kNumBuiltins) || !r->I64(&record.value)) {
      return false;
    }
    record.kind = static_cast<Builtin>(kind);
  }
  return DecodeCrashSite(r, &out->crash) && DecodeInputShape(r, &out->shape);
}

u64 ReportFingerprint(const BugReport& report) {
  WireWriter w;
  EncodeReport(report, &w);
  return WireDigest(w.buf().data(), w.buf().size());
}

void EncodeJob(const WireJob& job, WireWriter* w) {
  EncodeConfig(job.config, w);
  w->Str(job.config.program.app);
  w->U32(static_cast<u32>(job.config.program.libs.size()));
  for (const std::string& lib : job.config.program.libs) {
    w->Str(lib);
  }
  EncodePlan(job.plan, w);
  EncodeReport(job.report, w);
}

bool DecodeJob(WireReader* r, WireJob* out) {
  // DecodeConfig resets program/transport fields; the sources decoded
  // next are re-attached so the consumer sees one coherent config.
  if (!DecodeConfig(r, &out->config)) {
    return false;
  }
  if (!r->Str(&out->config.program.app)) {
    return false;
  }
  u32 lib_count = 0;
  if (!r->U32(&lib_count) || lib_count > kMaxJobStrings || !r->FitsCount(lib_count, 4)) {
    return false;
  }
  out->config.program.libs.resize(lib_count);
  for (u32 i = 0; i < lib_count; ++i) {
    if (!r->Str(&out->config.program.libs[i])) {
      return false;
    }
  }
  if (!DecodePlan(r, &out->plan)) {
    return false;
  }
  return DecodeReport(r, &out->report) && r->ok();
}

// ----- Standing-fleet job exchange (v7) -----

void EncodeJobBegin(const WireJobBegin& begin, WireWriter* w) {
  w->U64(begin.job_id);
  EncodeJob(begin.job, w);
}

bool DecodeJobBegin(WireReader* r, WireJobBegin* out) {
  return r->U64(&out->job_id) && DecodeJob(r, &out->job);
}

void EncodeJobEnd(const WireJobEnd& end, WireWriter* w) { w->U64(end.jobs_served); }

bool DecodeJobEnd(WireReader* r, WireJobEnd* out) {
  return r->U64(&out->jobs_served) && r->ok();
}

// ----- Service ingest codecs (v7) -----

void EncodeReportSubmit(const WireReportSubmit& submit, WireWriter* w) {
  w->Str(submit.tenant);
  EncodeReport(submit.report, w);
}

bool DecodeReportSubmit(WireReader* r, WireReportSubmit* out) {
  if (!r->Str(&out->tenant) || out->tenant.size() > 256) {
    return false;  // Tenant tags are short labels; anything longer is hostile.
  }
  return DecodeReport(r, &out->report) && r->ok();
}

void EncodeReportVerdict(const WireReportVerdict& verdict, WireWriter* w) {
  w->U64(verdict.cluster);
  w->U8(verdict.origin);
  EncodeShardResult(verdict.result, w);
}

bool DecodeReportVerdict(WireReader* r, WireReportVerdict* out) {
  if (!r->U64(&out->cluster) || !r->U8(&out->origin) ||
      out->origin > static_cast<u8>(VerdictOrigin::kRejected)) {
    return false;
  }
  return DecodeShardResult(r, &out->result) && r->ok();
}

void EncodeHealthStats(const WireHealthStats& stats, WireWriter* w) {
  w->U64(stats.reports_ingested);
  w->U64(stats.clusters);
  w->U64(stats.searches_run);
  w->U64(stats.duplicates_attached);
  w->U64(stats.cached_verdicts);
  w->U64(stats.rejected);
  w->U64(stats.queue_depth);
  w->U64(stats.in_flight);
  w->U64(stats.cache_sat_entries);
  w->U64(stats.cache_unsat_entries);
  w->U64(stats.cache_evictions);
  w->U8(stats.snapshot_loaded);
  w->U32(stats.fleet_shards);
  w->U32(stats.fleet_live);
  w->U64(stats.fleet_jobs);
  w->U32(static_cast<u32>(stats.rows.size()));
  for (const WireClusterRow& row : stats.rows) {
    w->U64(row.fp);
    w->U8(row.state);
    w->U8(row.reproduced);
    w->U64(row.reports);
  }
}

bool DecodeHealthStats(WireReader* r, WireHealthStats* out) {
  if (!(r->U64(&out->reports_ingested) && r->U64(&out->clusters) &&
        r->U64(&out->searches_run) && r->U64(&out->duplicates_attached) &&
        r->U64(&out->cached_verdicts) && r->U64(&out->rejected) &&
        r->U64(&out->queue_depth) && r->U64(&out->in_flight) &&
        r->U64(&out->cache_sat_entries) && r->U64(&out->cache_unsat_entries) &&
        r->U64(&out->cache_evictions) && r->U8(&out->snapshot_loaded) &&
        r->U32(&out->fleet_shards) && r->U32(&out->fleet_live) &&
        r->U64(&out->fleet_jobs))) {
    return false;
  }
  u32 row_count = 0;
  if (!r->U32(&row_count) || row_count > kMaxHealthClusterRows ||
      !r->FitsCount(row_count, 8 + 1 + 1 + 8)) {
    return false;
  }
  out->rows.resize(row_count);
  for (WireClusterRow& row : out->rows) {
    if (!r->U64(&row.fp) || !r->U8(&row.state) || row.state > 2 ||
        !r->U8(&row.reproduced) || !r->U64(&row.reports)) {
      return false;
    }
  }
  return r->ok();
}

// ----- Transport -----

namespace {

// Backlog ceiling past which droppable (gossip) frames are discarded
// instead of queued. Critical frames (handshake, stop) queue regardless.
constexpr size_t kMaxQueuedBytes = 8u * 1024u * 1024u;

}  // namespace

WireChannel::WireChannel(WireChannel&& other) noexcept
    : fd_(other.fd_),
      broken_(other.broken_),
      parser_(std::move(other.parser_)),
      out_(std::move(other.out_)),
      out_off_(other.out_off_),
      tx_(other.tx_),
      rx_(other.rx_),
      dropped_(other.dropped_) {
  other.fd_ = -1;
}

WireChannel::~WireChannel() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool WireChannel::Flush(bool blocking) {
  if (fd_ < 0 || broken_) {
    return false;
  }
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                             MSG_NOSIGNAL | (blocking ? 0 : MSG_DONTWAIT));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (!blocking && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;  // Socket full right now; the rest flushes later.
      }
      broken_ = true;
      return false;
    }
    out_off_ += static_cast<size_t>(n);
    tx_ += static_cast<u64>(n);
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  } else if (out_off_ > kMaxQueuedBytes / 2 && out_off_ * 2 > out_.size()) {
    out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(out_off_));
    out_off_ = 0;
  }
  return true;
}

bool WireChannel::Send(WireMsg type, const std::vector<u8>& payload) {
  if (fd_ < 0 || broken_) {
    return false;
  }
  AppendFrame(type, payload, &out_);
  return Flush(/*blocking=*/true);
}

bool WireChannel::Queue(WireMsg type, const std::vector<u8>& payload, bool droppable) {
  if (fd_ < 0 || broken_) {
    return false;
  }
  if (droppable && out_.size() - out_off_ > kMaxQueuedBytes) {
    ++dropped_;
    Flush(/*blocking=*/false);
    return false;
  }
  AppendFrame(type, payload, &out_);
  Flush(/*blocking=*/false);
  return !broken_;
}

WireChannel::RecvStatus WireChannel::Poll(int timeout_ms, std::vector<WireFrame>* out,
                                          int wake_fd) {
  if (fd_ < 0) {
    return RecvStatus::kClosed;
  }
  Flush(/*blocking=*/false);
  // pfds[0] is the channel; pfds[1], when present, only cuts the wait
  // short — it is never read here.
  struct pollfd pfds[2] = {};
  pfds[0].fd = fd_;
  pfds[0].events = POLLIN;
  pfds[1].fd = wake_fd;
  pfds[1].events = POLLIN;
  const nfds_t nfds = wake_fd >= 0 ? 2 : 1;
  const struct pollfd& pfd = pfds[0];
  bool saw_eof = false;
  // EINTR wakeups (a reaped child's SIGCHLD, a profiler tick) must
  // neither restart the full timeout nor — the old bug — collapse the
  // remaining wait to zero: recompute what is left against a deadline.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  int wait_ms = timeout_ms;
  for (;;) {
    const int ready = ::poll(pfds, nfds, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) {
        if (wait_ms > 0) {
          const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
          wait_ms = static_cast<int>(std::max<i64>(0, left.count()));
        }
        continue;
      }
      return RecvStatus::kClosed;
    }
    wait_ms = 0;  // Only the first poll blocks; drain without waiting.
    if (ready == 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      break;
    }
    u8 buf[64 * 1024];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      // A read error ends the stream like EOF does, but only after the
      // bytes already received are delivered: a Linux AF_UNIX peer that
      // closes with unread data in its own buffer leaves the reader its
      // last frames, then ECONNRESET; those frames can carry a departing
      // shard's final kResult.
      saw_eof = true;
      break;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    rx_ += static_cast<u64>(n);
    parser_.Append(buf, static_cast<size_t>(n));
  }
  for (;;) {
    WireFrame frame;
    const FrameStatus status = parser_.Next(&frame);
    if (status == FrameStatus::kFrame) {
      out->push_back(std::move(frame));
      continue;
    }
    if (status == FrameStatus::kNeedMore) {
      break;
    }
    return status == FrameStatus::kVersionMismatch ? RecvStatus::kVersionMismatch
                                                   : RecvStatus::kCorrupt;
  }
  return saw_eof ? RecvStatus::kClosed : RecvStatus::kOk;
}

}  // namespace retrace
