#include "src/solver/incremental.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>

namespace retrace {

SliceCache::SliceCache(u64 capacity)
    : per_shard_cap_(capacity == 0 ? 0 : std::max<u64>(1, (capacity + kShards - 1) / kShards)) {}

void SliceCache::TouchLocked(Shard& shard, std::list<LruKey>::iterator pos) const {
  if (per_shard_cap_ != 0) {
    shard.lru.splice(shard.lru.begin(), shard.lru, pos);
  }
}

void SliceCache::EvictLocked(Shard& shard) {
  if (per_shard_cap_ == 0) {
    return;
  }
  while (shard.sat.size() + shard.unsat.size() > per_shard_cap_) {
    const LruKey victim = shard.lru.back();
    shard.lru.pop_back();
    if (victim.is_sat) {
      shard.sat.erase(victim.key);
    } else {
      shard.unsat.erase(victim.key);
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SliceCache::LookupSat(u64 key, SliceModel* model) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.sat.find(key);
  if (it == shard.sat.end()) {
    return false;
  }
  TouchLocked(shard, it->second.pos);
  *model = it->second.model;
  return true;
}

bool SliceCache::LookupUnsat(u64 key, u64 check) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.unsat.find(key);
  if (it == shard.unsat.end() || it->second.check != check) {
    return false;
  }
  TouchLocked(shard, it->second.pos);
  return true;
}

void SliceCache::StoreSatImpl(u64 key, SliceModel model, bool journal) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.sat.find(key);
  if (it != shard.sat.end()) {
    TouchLocked(shard, it->second.pos);  // First store wins; refresh recency.
    return;
  }
  if (journal) {
    shard.sat_journal.push_back(SatEntry{key, model});
  }
  std::list<LruKey>::iterator pos = shard.lru.end();
  if (per_shard_cap_ != 0) {
    pos = shard.lru.insert(shard.lru.begin(), LruKey{key, /*is_sat=*/true});
  }
  shard.sat.emplace(key, SatNode{std::move(model), pos});
  EvictLocked(shard);
}

void SliceCache::StoreUnsatImpl(u64 key, u64 check, bool journal) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.unsat.find(key);
  if (it != shard.unsat.end()) {
    TouchLocked(shard, it->second.pos);
    return;
  }
  if (journal) {
    shard.unsat_journal.push_back(UnsatEntry{key, check});
  }
  std::list<LruKey>::iterator pos = shard.lru.end();
  if (per_shard_cap_ != 0) {
    pos = shard.lru.insert(shard.lru.begin(), LruKey{key, /*is_sat=*/false});
  }
  shard.unsat.emplace(key, UnsatNode{check, pos});
  EvictLocked(shard);
}

void SliceCache::StoreSat(u64 key, SliceModel model) {
  StoreSatImpl(key, std::move(model), journal_.load(std::memory_order_acquire));
}

void SliceCache::StoreUnsat(u64 key, u64 check) {
  StoreUnsatImpl(key, check, journal_.load(std::memory_order_acquire));
}

void SliceCache::MergeSat(u64 key, SliceModel model) {
  StoreSatImpl(key, std::move(model), /*journal=*/false);
}

void SliceCache::MergeUnsat(u64 key, u64 check) {
  StoreUnsatImpl(key, check, /*journal=*/false);
}

void SliceCache::DrainJournal(std::vector<SatEntry>* sat, std::vector<UnsatEntry>* unsat) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::move(shard.sat_journal.begin(), shard.sat_journal.end(), std::back_inserter(*sat));
    shard.sat_journal.clear();
    std::move(shard.unsat_journal.begin(), shard.unsat_journal.end(),
              std::back_inserter(*unsat));
    shard.unsat_journal.clear();
  }
}

u64 SliceCache::sat_entries() const {
  u64 n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.sat.size();
  }
  return n;
}

u64 SliceCache::unsat_entries() const {
  u64 n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.unsat.size();
  }
  return n;
}

void SliceCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.sat.clear();
    shard.unsat.clear();
    shard.lru.clear();
    shard.sat_journal.clear();
    shard.unsat_journal.clear();
  }
}

// ----- Snapshot persistence -----

namespace {

constexpr u32 kSnapshotMagic = 0x43535452u;  // "RTSC" little-endian.
constexpr u16 kSnapshotVersion = 1;
// Header: magic u32 | version u16 | reserved u16 | payload_len u64 |
// digest u64. Fixed width, little-endian, mirroring the wire framing.
constexpr size_t kSnapshotHeaderBytes = 4 + 2 + 2 + 8 + 8;
// A snapshot is a local file, but it sizes allocations on load exactly
// like a network payload would: cap it the same way (the wire layer's
// whole-payload ceiling is 1 GiB; a slice cache that big is a bug).
constexpr u64 kMaxSnapshotPayload = 1ull << 30;

void SnapPutU16(u16 v, std::vector<u8>* out) {
  out->push_back(static_cast<u8>(v & 0xff));
  out->push_back(static_cast<u8>((v >> 8) & 0xff));
}

void SnapPutU32(u32 v, std::vector<u8>* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<u8>((v >> (8 * i)) & 0xff));
  }
}

void SnapPutU64(u64 v, std::vector<u8>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<u8>((v >> (8 * i)) & 0xff));
  }
}

// Structural digest of the payload: HashMix chain over 8-byte words,
// length-mixed so a truncated-but-zero-padded payload cannot collide.
u64 SnapshotDigest(const u8* data, size_t n) {
  u64 h = 0x5851f42d4c957f2dull;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 word = 0;
    std::memcpy(&word, data + i, 8);
    h = HashMix(h, word);
  }
  u64 tail = 0;
  for (size_t j = 0; i + j < n; ++j) {
    tail |= static_cast<u64>(data[i + j]) << (8 * j);
  }
  h = HashMix(h, tail);
  return HashMix(h, static_cast<u64>(n));
}

// Bounds-checked little-endian reader over the snapshot payload; any
// overrun poisons it, so the decode loop can bail once.
struct SnapReader {
  const u8* p = nullptr;
  size_t n = 0;
  size_t off = 0;
  bool ok = true;

  bool Raw(void* out, size_t count) {
    if (!ok || n - off < count) {
      ok = false;
      return false;
    }
    std::memcpy(out, p + off, count);
    off += count;
    return true;
  }
  bool U32(u32* v) { return Raw(v, 4); }
  bool U64(u64* v) { return Raw(v, 8); }
  bool I32(i32* v) { return Raw(v, 4); }
  bool I64(i64* v) { return Raw(v, 8); }
  size_t remaining() const { return n - off; }
};

}  // namespace

bool SliceCache::SaveSnapshot(const std::string& path, SnapshotInfo* info) const {
  std::vector<u8> payload;
  u64 sat_count = 0;
  u64 unsat_count = 0;
  // Per-section counts are back-patched after the sweep; the sweep locks
  // one internal shard at a time, so a save concurrent with stores is a
  // coherent point-in-time view per shard, not fleet-wide.
  SnapPutU64(0, &payload);  // sat_count placeholder.
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, node] : shard.sat) {
      SnapPutU64(key, &payload);
      SnapPutU32(static_cast<u32>(node.model.size()), &payload);
      for (const auto& [var, value] : node.model) {
        SnapPutU32(static_cast<u32>(var), &payload);
        SnapPutU64(static_cast<u64>(value), &payload);
      }
      ++sat_count;
    }
  }
  SnapPutU64(0, &payload);  // unsat_count placeholder (offset noted below).
  const size_t unsat_count_off = payload.size() - 8;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, node] : shard.unsat) {
      SnapPutU64(key, &payload);
      SnapPutU64(node.check, &payload);
      ++unsat_count;
    }
  }
  for (int i = 0; i < 8; ++i) {
    payload[static_cast<size_t>(i)] = static_cast<u8>((sat_count >> (8 * i)) & 0xff);
    payload[unsat_count_off + static_cast<size_t>(i)] =
        static_cast<u8>((unsat_count >> (8 * i)) & 0xff);
  }

  std::vector<u8> file;
  file.reserve(kSnapshotHeaderBytes + payload.size());
  SnapPutU32(kSnapshotMagic, &file);
  SnapPutU16(kSnapshotVersion, &file);
  SnapPutU16(0, &file);
  SnapPutU64(static_cast<u64>(payload.size()), &file);
  SnapPutU64(SnapshotDigest(payload.data(), payload.size()), &file);
  file.insert(file.end(), payload.begin(), payload.end());

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool wrote = std::fwrite(file.data(), 1, file.size(), f) == file.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  if (info != nullptr) {
    info->sat_entries = sat_count;
    info->unsat_entries = unsat_count;
    info->bytes = file.size();
  }
  return true;
}

bool SliceCache::LoadSnapshot(const std::string& path, SnapshotInfo* info) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::vector<u8> file;
  u8 chunk[64 * 1024];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    file.insert(file.end(), chunk, chunk + got);
    if (file.size() > kSnapshotHeaderBytes + kMaxSnapshotPayload) {
      std::fclose(f);
      return false;
    }
  }
  std::fclose(f);

  if (file.size() < kSnapshotHeaderBytes) {
    return false;
  }
  SnapReader hdr{file.data(), kSnapshotHeaderBytes, 0, true};
  u32 magic = 0;
  u32 version_reserved = 0;
  u64 payload_len = 0;
  u64 digest = 0;
  hdr.U32(&magic);
  hdr.U32(&version_reserved);
  hdr.U64(&payload_len);
  hdr.U64(&digest);
  if (!hdr.ok || magic != kSnapshotMagic || (version_reserved & 0xffffu) != kSnapshotVersion) {
    return false;
  }
  if (payload_len > kMaxSnapshotPayload ||
      file.size() - kSnapshotHeaderBytes != payload_len) {
    return false;  // Truncated or trailing garbage.
  }
  const u8* payload = file.data() + kSnapshotHeaderBytes;
  if (SnapshotDigest(payload, payload_len) != digest) {
    return false;
  }

  // Decode into staging vectors first: a payload that goes bad half-way
  // (impossible counts, short entries) must leave the cache untouched.
  SnapReader r{payload, static_cast<size_t>(payload_len), 0, true};
  u64 sat_count = 0;
  if (!r.U64(&sat_count) || sat_count > r.remaining() / 12) {
    return false;
  }
  std::vector<SatEntry> sat;
  sat.reserve(sat_count);
  for (u64 i = 0; i < sat_count; ++i) {
    SatEntry entry;
    u32 model_size = 0;
    if (!r.U64(&entry.key) || !r.U32(&model_size) || model_size > r.remaining() / 12) {
      return false;
    }
    entry.model.reserve(model_size);
    for (u32 j = 0; j < model_size; ++j) {
      i32 var = 0;
      i64 value = 0;
      if (!r.I32(&var) || !r.I64(&value)) {
        return false;
      }
      entry.model.emplace_back(var, value);
    }
    sat.push_back(std::move(entry));
  }
  u64 unsat_count = 0;
  if (!r.U64(&unsat_count) || unsat_count > r.remaining() / 16) {
    return false;
  }
  std::vector<UnsatEntry> unsat;
  unsat.reserve(unsat_count);
  for (u64 i = 0; i < unsat_count; ++i) {
    UnsatEntry entry;
    if (!r.U64(&entry.key) || !r.U64(&entry.check)) {
      return false;
    }
    unsat.push_back(entry);
  }
  if (!r.ok || r.remaining() != 0) {
    return false;
  }

  for (SatEntry& entry : sat) {
    MergeSat(entry.key, std::move(entry.model));
  }
  for (const UnsatEntry& entry : unsat) {
    MergeUnsat(entry.key, entry.check);
  }
  if (info != nullptr) {
    info->sat_entries = sat.size();
    info->unsat_entries = unsat.size();
    info->bytes = file.size();
  }
  return true;
}

std::span<const i32> IncrementalSolver::VarsOf(ExprRef expr) {
  const size_t ref = static_cast<size_t>(expr);
  if (ref >= vars_memo_.size()) {
    vars_memo_.resize(std::max(ref + 1, arena_.size()));
  }
  VarsSpan& memo = vars_memo_[ref];
  if (memo.off == kNone) {
    vars_scratch_.clear();
    arena_.CollectVars(expr, &vars_scratch_);
    memo.off = static_cast<u32>(vars_pool_.size());
    memo.len = static_cast<u32>(vars_scratch_.size());
    vars_pool_.insert(vars_pool_.end(), vars_scratch_.begin(), vars_scratch_.end());
  }
  return {vars_pool_.data() + memo.off, memo.len};
}

namespace {

Interval DomainOf(const std::vector<Interval>& domains, i32 v) {
  return static_cast<size_t>(v) < domains.size() ? domains[v] : Interval{0, 255};
}

// The base of every depth-0 solve.
const SliceState kEmptyState;

// True when base slice `slice` may be taken over as is: its resolution
// is inheritable and no variable's domain changed.
bool Inherits(const SliceState& base, u32 slice, const std::vector<Interval>& domains) {
  if (base.inheritable[slice] == 0) {
    return false;
  }
  if (base.domains == &domains) {
    return true;
  }
  for (u32 k = base.var_start[slice]; k < base.var_start[slice + 1]; ++k) {
    if (!(DomainOf(domains, base.vars[k]) == DomainOf(*base.domains, base.vars[k]))) {
      return false;  // The slice key changed with the domain.
    }
  }
  return true;
}

}  // namespace

bool SliceState::Prefixes(ConstraintSpan other) const {
  const size_t len = set.size();
  if (len > other.size()) {
    return false;
  }
  if (len == 0) {
    return true;
  }
  // Only the last entry of either view can be negated.
  for (size_t i = 0; other.data != set.data && i + 1 < len; ++i) {
    if (!(other.data[i] == set.data[i])) {
      return false;
    }
  }
  return other[len - 1] == set[len - 1];
}

bool SliceState::Rebase(std::shared_ptr<const std::vector<Constraint>> trace,
                        std::shared_ptr<const std::vector<Interval>> trace_domains) {
  const ConstraintSpan view(trace->data(), set.size());
  if (trace->size() < set.size() || !Prefixes(view)) {
    return false;
  }
  set = view;
  set_owner = std::move(trace);
  if (domains != nullptr && *trace_domains == *domains) {
    domains = trace_domains.get();
    domains_owner = std::move(trace_domains);
  }
  return true;
}

void SliceState::Clear() {
  set = ConstraintSpan();
  domains = nullptr;
  set_owner.reset();
  domains_owner.reset();
  max_var = -1;
  var_slice.clear();
  member_start.assign(1, 0);
  members.clear();
  var_start.assign(1, 0);
  vars.clear();
  values.clear();
  inheritable.clear();
}

SolveResult IncrementalSolver::Solve(ConstraintSpan constraints,
                                     const std::vector<Interval>& domains,
                                     const std::vector<i64>& seed, const SliceState* base,
                                     SliceState* out) {
  const size_t n = constraints.size();
  SolveResult result;
  if (out != nullptr) {
    out->Clear();
  }
  // Without a cache every slice is re-solved from the call's seed, so
  // there is nothing to inherit and no state worth keeping.
  const bool keep = out != nullptr && cache_ != nullptr;
  if (base == nullptr || cache_ == nullptr || !base->Prefixes(constraints)) {
    base = &kEmptyState;
  } else {
    ++stats_.solves_from_base;
  }
  const size_t base_len = base->set.size();
  const u32 base_slices = static_cast<u32>(base->num_slices());

  // Union-find over nodes: the base's slices [0, base_slices), then one
  // node per delta constraint. A delta constraint joins the base slice
  // owning any of its variables, or the delta constraint that named the
  // variable first. At depth 0 the nodes are just the constraints.
  const size_t num_nodes = base_slices + (n - base_len);
  auto delta_index = [&](u32 node) { return base_len + (node - base_slices); };
  parent_.resize(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    parent_[i] = static_cast<u32>(i);
  }
  auto find = [&](u32 x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  };

  // var_owner_[v]: the first delta node naming v (kNone outside a call).
  // A span from VarsOf is used up before the next VarsOf call: memoizing
  // a new expression may move the pool. Constant constraints (fully
  // folded conditions) form no slice: they hold or fail regardless of
  // any model, and one that fails ends the call. The base's constants
  // all held: it was solved SAT.
  i32 max_var = base->max_var;
  bool constant_fails = false;
  owner_touched_.clear();
  node_slice_.resize(num_nodes);
  std::fill(node_slice_.begin(), node_slice_.begin() + base_slices, 0);
  for (u32 node = base_slices; node < num_nodes && !constant_fails; ++node) {
    const Constraint c = constraints[delta_index(node)];
    const std::span<const i32> vars = VarsOf(c.expr);
    if (vars.empty()) {
      constant_fails = (arena_.Eval(c.expr, {}) != 0) != c.want_true;
      node_slice_[node] = kNone;
      continue;
    }
    node_slice_[node] = 0;  // Assigned below.
    for (const i32 v : vars) {
      max_var = std::max(max_var, v);
      const size_t var = static_cast<size_t>(v);
      if (var < base->var_slice.size() && base->var_slice[var] != kNone) {
        parent_[find(node)] = find(base->var_slice[var]);
        continue;
      }
      if (var >= var_owner_.size()) {
        var_owner_.resize(var + 1, kNone);
      }
      if (var_owner_[var] == kNone) {
        var_owner_[var] = node;
        owner_touched_.push_back(v);
      } else {
        parent_[find(node)] = find(var_owner_[var]);
      }
    }
  }
  for (const i32 v : owner_touched_) {
    var_owner_[static_cast<size_t>(v)] = kNone;
  }
  if (constant_fails) {
    result.status = SolveStatus::kUnsat;
    return result;
  }

  // Group nodes into slices, ordered by first appearance so slice keys
  // are deterministic for a given trace prefix: base slices are already
  // in that order and every delta constraint comes after them, so node
  // order is first-appearance order. Counting pass, then a CSR fill
  // that keeps node order within a slice.
  root_slice_.assign(num_nodes, kNone);
  slice_start_.assign(1, 0);
  for (u32 node = 0; node < num_nodes; ++node) {
    if (node_slice_[node] == kNone) {
      continue;
    }
    u32& slice = root_slice_[find(node)];
    if (slice == kNone) {
      slice = static_cast<u32>(slice_start_.size() - 1);
      slice_start_.push_back(0);
    }
    node_slice_[node] = slice;
    ++slice_start_[slice + 1];
  }
  const size_t num_slices = slice_start_.size() - 1;
  for (size_t s = 0; s < num_slices; ++s) {
    slice_start_[s + 1] += slice_start_[s];
  }
  slice_fill_.assign(slice_start_.begin(), slice_start_.end() - 1);
  slice_nodes_.resize(slice_start_.back());
  for (u32 node = 0; node < num_nodes; ++node) {
    if (node_slice_[node] != kNone) {
      slice_nodes_[slice_fill_[node_slice_[node]]++] = node;
    }
  }

  // Base model: the seed clamped into domains (the same initialization the
  // monolithic solver applies), stitched over slice by slice below.
  std::vector<i64> model(std::max<size_t>(seed.size(), static_cast<size_t>(max_var) + 1), 0);
  for (size_t i = 0; i < model.size(); ++i) {
    const Interval dom = i < domains.size() ? domains[i] : Interval{0, 255};
    model[i] = std::clamp(i < seed.size() ? seed[i] : 0, dom.lo, dom.hi);
  }

  // Where each slice's state comes from when `keep`: a base slice, or
  // entry d of the resolved (dirty) slices recorded below.
  slice_origin_.clear();
  dirty_.Clear();

  for (size_t s = 0; s < num_slices; ++s) {
    const std::span<const u32> nodes(slice_nodes_.data() + slice_start_[s],
                                     slice_start_[s + 1] - slice_start_[s]);
    const u32 head = nodes[0];
    ++stats_.slices_total;

    // A base slice the delta left alone, with unchanged domains and an
    // inheritable resolution: the cache would return the sub-model it
    // was validated with, and revalidation would pass again.
    if (head < base_slices && nodes.size() == 1 && Inherits(*base, head, domains)) {
      for (u32 k = base->var_start[head]; k < base->var_start[head + 1]; ++k) {
        model[base->vars[k]] = base->values[k];
      }
      ++stats_.slice_sat_hits;
      ++stats_.slices_inherited;
      if (keep) {
        slice_origin_.push_back(SliceOrigin{true, head});
      }
      continue;
    }

    // Everything else is resolved through the caches. Its constraints,
    // in trace order: merged base slices interleave, delta constraints
    // follow them. At depth 0 the nodes are the constraint indices.
    std::span<const u32> members = nodes;
    if (base_len != 0) {
      slice_members_.clear();
      u32 merged_base = 0;
      for (const u32 node : nodes) {
        if (node < base_slices) {
          ++merged_base;
          slice_members_.insert(slice_members_.end(),
                                base->members.begin() + base->member_start[node],
                                base->members.begin() + base->member_start[node + 1]);
        } else {
          slice_members_.push_back(static_cast<u32>(delta_index(node)));
        }
      }
      if (merged_base > 1) {
        std::sort(slice_members_.begin(), slice_members_.end());
      }
      members = slice_members_;
    }

    // Key: constraint structure + polarity in trace order, then each
    // mentioned variable with its domain (ascending, deduplicated).
    // `check` accumulates the same content from an independent seed; the
    // UNSAT cache requires both to match, so masking a SAT slice takes a
    // simultaneous 128-bit collision.
    slice_vars_.clear();
    slice_constraints_.clear();
    u64 key = 0x452821e638d01377ull;
    u64 check = 0xbe5466cf34e90c6cull;
    for (const u32 ci : members) {
      const Constraint c = constraints[ci];
      slice_constraints_.push_back(c);
      const u64 expr_hash = arena_.StructuralHash(c.expr);
      key = HashMix(key, expr_hash);
      key = HashMix(key, c.want_true ? 1 : 2);
      check = HashMix(check, c.want_true ? 1 : 2);
      check = HashMix(check, expr_hash);
      const std::span<const i32> vars = VarsOf(c.expr);
      slice_vars_.insert(slice_vars_.end(), vars.begin(), vars.end());
    }
    std::sort(slice_vars_.begin(), slice_vars_.end());
    slice_vars_.erase(std::unique(slice_vars_.begin(), slice_vars_.end()), slice_vars_.end());
    for (const i32 v : slice_vars_) {
      const Interval dom = DomainOf(domains, v);
      key = HashMix(key, static_cast<u64>(v));
      key = dom.MixInto(key);
      check = dom.MixInto(check);
      check = HashMix(check, static_cast<u64>(v));
    }

    // Whether a later solve may inherit this slice's resolution.
    bool inheritable = false;
    bool resolved = false;
    bool hit_failed = false;
    if (cache_ != nullptr) {
      if (cache_->LookupUnsat(key, check)) {
        ++stats_.slice_unsat_hits;
        result.status = SolveStatus::kUnsat;
        result.steps = 0;
        return result;
      }
      if (cache_->LookupSat(key, &cached_model_)) {
        for (const auto& [v, value] : cached_model_) {
          if (static_cast<size_t>(v) < model.size()) {
            model[v] = value;
          }
        }
        // Revalidate against the live constraints: a fingerprint collision
        // (or any cache bug) degrades to a miss instead of a wrong model.
        if (solver_.Satisfies(slice_constraints_, model)) {
          ++stats_.slice_sat_hits;
          resolved = true;
          // Only a model of exactly the slice's variables validates
          // independently of the seed.
          inheritable = keep && cached_model_.size() == slice_vars_.size() &&
                        std::equal(slice_vars_.begin(), slice_vars_.end(), cached_model_.begin(),
                                   [](i32 v, const auto& entry) { return v == entry.first; });
        } else {
          hit_failed = true;
          for (const i32 v : slice_vars_) {  // Undo the misapplied sub-model.
            if (static_cast<size_t>(v) < model.size()) {
              const Interval dom = DomainOf(domains, v);
              model[v] = std::clamp(static_cast<size_t>(v) < seed.size() ? seed[v] : 0, dom.lo,
                                    dom.hi);
            }
          }
        }
      }
    }

    if (!resolved) {
      ++stats_.slices_solved;
      SolveResult sub = solver_.Solve(slice_constraints_, domains, seed);
      result.steps += sub.steps;
      if (sub.status == SolveStatus::kUnsat) {
        if (cache_ != nullptr) {
          cache_->StoreUnsat(key, check);
        }
        result.status = SolveStatus::kUnsat;
        return result;
      }
      if (sub.status != SolveStatus::kSat) {
        result.status = SolveStatus::kUnknown;
        return result;
      }
      SliceCache::SliceModel sub_model;
      sub_model.reserve(slice_vars_.size());
      for (const i32 v : slice_vars_) {
        const i64 value = static_cast<size_t>(v) < sub.model.size() ? sub.model[v] : 0;
        sub_model.emplace_back(v, value);
        if (static_cast<size_t>(v) < model.size()) {
          model[v] = value;
        }
      }
      if (cache_ != nullptr) {
        cache_->StoreSat(key, std::move(sub_model));
      }
      // The next lookup returns this sub-model, unless the store lost to
      // the entry that failed revalidation (first store wins).
      inheritable = cache_ != nullptr && !hit_failed;
    }

    if (keep) {
      slice_origin_.push_back(SliceOrigin{false, static_cast<u32>(dirty_.num_slices())});
      dirty_.members.insert(dirty_.members.end(), members.begin(), members.end());
      dirty_.member_start.push_back(static_cast<u32>(dirty_.members.size()));
      for (const i32 v : slice_vars_) {
        dirty_.vars.push_back(v);
        dirty_.values.push_back(model[v]);
      }
      dirty_.var_start.push_back(static_cast<u32>(dirty_.vars.size()));
      dirty_.inheritable.push_back(inheritable ? 1 : 0);
    }
  }

  if (keep) {
    // The solved set's state: every slice in order, sized exactly (states
    // stay alive in the frontier). Consecutive slices of one source are
    // copied as one run: most of a state is its base's, in base order.
    out->set = constraints;
    out->domains = &domains;
    out->max_var = max_var;
    out->var_slice.assign(static_cast<size_t>(max_var + 1), kNone);
    size_t num_members = 0;
    size_t num_vars = 0;
    for (const SliceOrigin& origin : slice_origin_) {
      const SliceState& from = origin.from_base ? *base : dirty_;
      num_members += from.member_start[origin.slice + 1] - from.member_start[origin.slice];
      num_vars += from.var_start[origin.slice + 1] - from.var_start[origin.slice];
    }
    out->member_start.reserve(num_slices + 1);
    out->members.reserve(num_members);
    out->var_start.reserve(num_slices + 1);
    out->vars.reserve(num_vars);
    out->values.reserve(num_vars);
    out->inheritable.reserve(num_slices);
    for (size_t i = 0; i < slice_origin_.size();) {
      const SliceOrigin origin = slice_origin_[i];
      size_t run = 1;
      while (i + run < slice_origin_.size() &&
             slice_origin_[i + run].from_base == origin.from_base &&
             slice_origin_[i + run].slice == origin.slice + run) {
        ++run;
      }
      const SliceState& from = origin.from_base ? *base : dirty_;
      const u32 first = origin.slice;
      const u32 last = first + static_cast<u32>(run);
      const u32 member_base = static_cast<u32>(out->members.size());
      const u32 var_base = static_cast<u32>(out->vars.size());
      out->members.insert(out->members.end(), from.members.begin() + from.member_start[first],
                          from.members.begin() + from.member_start[last]);
      out->vars.insert(out->vars.end(), from.vars.begin() + from.var_start[first],
                       from.vars.begin() + from.var_start[last]);
      out->values.insert(out->values.end(), from.values.begin() + from.var_start[first],
                         from.values.begin() + from.var_start[last]);
      out->inheritable.insert(out->inheritable.end(), from.inheritable.begin() + first,
                              from.inheritable.begin() + last);
      for (u32 b = first; b < last; ++b) {
        const u32 slice = static_cast<u32>(out->num_slices());
        out->member_start.push_back(member_base + from.member_start[b + 1] -
                                    from.member_start[first]);
        out->var_start.push_back(var_base + from.var_start[b + 1] - from.var_start[first]);
        for (u32 k = from.var_start[b]; k < from.var_start[b + 1]; ++k) {
          out->var_slice[static_cast<size_t>(from.vars[k])] = slice;
        }
      }
      i += run;
    }
  }

  result.status = SolveStatus::kSat;
  result.model = std::move(model);
  return result;
}

}  // namespace retrace
