#include "src/solver/incremental.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>

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

// Bump allocator behind one state's own slices and map nodes. Everything
// it holds is trivially destructible and freed with the state.
class Arena {
 public:
  void* Alloc(size_t bytes) {
    const size_t words = (bytes + 7) / 8;
    if (blocks_.empty() || used_ + words > block_words_) {
      block_words_ = std::max(words, std::min<size_t>(2 * block_words_, kMaxBlockWords));
      blocks_.push_back(std::make_unique<u64[]>(block_words_));
      used_ = 0;
    }
    void* at = blocks_.back().get() + used_;
    used_ += words;
    total_ += words * 8;
    return at;
  }
  template <typename T>
  T* Copy(std::span<const T> items) {
    T* out = static_cast<T*>(Alloc(std::max<size_t>(1, items.size()) * sizeof(T)));
    std::copy(items.begin(), items.end(), out);
    return out;
  }
  size_t used() const { return total_; }

 private:
  static constexpr size_t kMaxBlockWords = 1024;
  std::vector<std::unique_ptr<u64[]>> blocks_;
  size_t block_words_ = 32;
  size_t used_ = 0;
  size_t total_ = 0;
};

}  // namespace

// One slice of a state: its first constraint index, its constraint
// indices in trace order, its variables ascending, whether a later solve
// may inherit its resolution, and the key and check hashes of its
// constraints alone (before its variables are mixed in), which a group
// that extends it goes on from. Lives in the arena of the state whose
// solve resolved it.
struct IncrementalSlice {
  u32 head = 0;
  u32 num_members = 0;
  u32 num_vars = 0;
  bool inheritable = false;
  u64 key = 0;
  u64 check = 0;
  const u32* members = nullptr;
  const i32* vars = nullptr;

  std::span<const u32> Members() const { return {members, num_members}; }
  std::span<const i32> Vars() const { return {vars, num_vars}; }
};

namespace {

using Slice = IncrementalSlice;

// A map entry: the slice owning the key (null: none).
struct Entry {
  const Slice* slice;
};

// A persistent array of Entry over u32 keys: a 16-ary radix tree whose
// writes copy the path to the entry into the writer's arena and share
// every other node with the tree the writer started from. A node the
// writer already owns is written in place. Every node counts the
// occupied entries below it, so Rank is one walk down too.
class PersistentMap {
 public:
  u32 size() const { return root_ != nullptr ? root_->count : 0; }

  Entry Get(u32 key) const {
    if (root_ == nullptr || key >= Capacity(height_)) {
      return Entry{nullptr};
    }
    const Node* node = root_;
    for (u32 level = height_ - 1; level > 0; --level) {
      node = static_cast<const Inner*>(node)->child[Index(key, level)];
      if (node == nullptr) {
        return Entry{nullptr};
      }
    }
    return static_cast<const Leaf*>(node)->entry[key & kMask];
  }

  // Occupied keys below `key`.
  u32 Rank(u32 key) const {
    if (root_ == nullptr) {
      return 0;
    }
    if (key >= Capacity(height_)) {
      return size();
    }
    u32 rank = 0;
    const Node* node = root_;
    for (u32 level = height_ - 1; level > 0; --level) {
      const Inner* inner = static_cast<const Inner*>(node);
      const u32 at = Index(key, level);
      for (u32 i = 0; i < at; ++i) {
        rank += inner->child[i] != nullptr ? inner->child[i]->count : 0;
      }
      node = inner->child[at];
      if (node == nullptr) {
        return rank;
      }
    }
    const Leaf* leaf = static_cast<const Leaf*>(node);
    for (u32 i = 0; i < (key & kMask); ++i) {
      rank += leaf->entry[i].slice != nullptr ? 1 : 0;
    }
    return rank;
  }

  // Writes `entry` at `key` (a null slice erases it).
  void Set(u32 key, Entry entry, Arena* arena) {
    const int change = (entry.slice != nullptr ? 1 : 0) - (Get(key).slice != nullptr ? 1 : 0);
    if (entry.slice == nullptr && change == 0) {
      return;  // Nothing to erase.
    }
    if (root_ == nullptr) {
      height_ = 1;
    }
    while (key >= Capacity(height_)) {
      if (root_ != nullptr) {
        Inner* grown = static_cast<Inner*>(Own(nullptr, 1, arena));
        grown->count = root_->count;
        grown->child[0] = root_;
        root_ = grown;
      }
      ++height_;
    }
    Node* node = Own(root_, height_ - 1, arena);
    root_ = node;
    for (u32 level = height_ - 1; level > 0; --level) {
      node->count = static_cast<u32>(static_cast<int>(node->count) + change);
      Inner* inner = static_cast<Inner*>(node);
      const u32 at = Index(key, level);
      Node* child = Own(inner->child[at], level - 1, arena);
      inner->child[at] = child;
      node = child;
    }
    node->count = static_cast<u32>(static_cast<int>(node->count) + change);
    static_cast<Leaf*>(node)->entry[key & kMask] = entry;
  }

 private:
  static constexpr u32 kBits = 4;
  static constexpr u32 kFanout = 1u << kBits;
  static constexpr u32 kMask = kFanout - 1;

  struct Node {
    const Arena* owner;
    u32 count;
  };
  struct Inner : Node {
    const Node* child[kFanout];
  };
  struct Leaf : Node {
    Entry entry[kFanout];
  };

  static u64 Capacity(u32 height) { return u64{1} << (kBits * height); }
  static u32 Index(u32 key, u32 level) { return (key >> (kBits * level)) & kMask; }

  // `node` (null: an empty one) as a node of `arena`, copied unless it
  // already is one.
  static Node* Own(const Node* node, u32 level, Arena* arena) {
    if (node != nullptr && node->owner == arena) {
      return const_cast<Node*>(node);
    }
    Node* own = nullptr;
    if (level > 0) {
      Inner* inner = static_cast<Inner*>(arena->Alloc(sizeof(Inner)));
      if (node != nullptr) {
        std::memcpy(static_cast<void*>(inner), node, sizeof(Inner));
      } else {
        std::memset(static_cast<void*>(inner), 0, sizeof(Inner));
      }
      own = inner;
    } else {
      Leaf* leaf = static_cast<Leaf*>(arena->Alloc(sizeof(Leaf)));
      if (node != nullptr) {
        std::memcpy(static_cast<void*>(leaf), node, sizeof(Leaf));
      } else {
        std::memset(static_cast<void*>(leaf), 0, sizeof(Leaf));
      }
      own = leaf;
    }
    own->owner = arena;
    return own;
  }

  const Node* root_ = nullptr;
  u32 height_ = 0;
};

}  // namespace

// A state's slices: an immutable parent plus the slices this state's
// own solve resolved, found through two persistent maps whose untouched
// nodes are the parent's.
struct SliceState::Core {
  ~Core() {
    // Unlink a long chain of ancestors one at a time, not recursively.
    std::shared_ptr<const Core> next = std::move(parent);
    while (next != nullptr && next.use_count() == 1) {
      std::shared_ptr<const Core> after = std::move(next->parent);
      next.reset();
      next = std::move(after);
    }
  }

  // Mutable only so that destruction can unlink it.
  mutable std::shared_ptr<const Core> parent;
  Arena arena;
  PersistentMap vars;   // Variable -> its slice.
  PersistentMap heads;  // First constraint index -> its slice.
  i32 max_var = -1;
  std::vector<const Slice*> uninheritable;  // Live slices a solve re-resolves.
};

namespace {

// The base of every depth-0 solve.
const SliceState kEmptyState;

}  // namespace

size_t SliceState::num_slices() const { return core != nullptr ? core->heads.size() : 0; }

size_t SliceState::own_bytes() const {
  return core != nullptr ? core->arena.used() + core->uninheritable.capacity() * sizeof(void*) +
                               values.capacity() * sizeof(i64) +
                               mapped.capacity() * sizeof(u64)
                         : 0;
}

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
  core.reset();
  values.clear();
  mapped.clear();
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
  static const SliceState::Core kEmptyCore;
  const SliceState::Core& from = base->core != nullptr ? *base->core : kEmptyCore;
  const size_t base_len = base->set.size();
  const u32 num_delta = static_cast<u32>(n - base_len);

  // Union-find over nodes: one per delta constraint, [0, num_delta),
  // then one per base slice the call touches. A delta constraint joins
  // the base slice owning any of its variables, or the delta constraint
  // that named the variable first. At depth 0 the nodes are just the
  // constraints.
  parent_.resize(num_delta);
  for (u32 i = 0; i < num_delta; ++i) {
    parent_[i] = i;
  }
  touched_.clear();
  touched_node_.clear();
  // A call touches few base slices: it scans for them until it has many.
  constexpr size_t kScanTouched = 32;
  auto touch = [&](const Slice* slice) {
    u32 index = kNone;
    if (touched_.size() <= kScanTouched) {
      const auto it = std::find(touched_.begin(), touched_.end(), slice);
      index = it != touched_.end() ? static_cast<u32>(it - touched_.begin()) : kNone;
    } else {
      if (touched_node_.empty()) {
        for (u32 i = 0; i < touched_.size(); ++i) {
          touched_node_.emplace(touched_[i], i);
        }
      }
      const auto it = touched_node_.find(slice);
      index = it != touched_node_.end() ? it->second : kNone;
    }
    if (index == kNone) {
      index = static_cast<u32>(touched_.size());
      touched_.push_back(slice);
      parent_.push_back(num_delta + index);
      if (!touched_node_.empty()) {
        touched_node_.emplace(slice, index);
      }
    }
    return num_delta + index;
  };
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
  i32 max_var = from.max_var;
  bool constant_fails = false;
  owner_touched_.clear();
  node_group_.assign(num_delta, 0);
  for (u32 node = 0; node < num_delta && !constant_fails; ++node) {
    const Constraint c = constraints[base_len + node];
    const std::span<const i32> vars = VarsOf(c.expr);
    if (vars.empty()) {
      constant_fails = (arena_.Eval(c.expr, {}) != 0) != c.want_true;
      node_group_[node] = kNone;
      continue;
    }
    for (const i32 v : vars) {
      max_var = std::max(max_var, v);
      if (v <= from.max_var) {
        if (const Slice* slice = from.vars.Get(static_cast<u32>(v)).slice) {
          parent_[find(node)] = find(touch(slice));
          continue;
        }
      }
      const size_t var = static_cast<size_t>(v);
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
  // Base slices the delta leaves alone are re-resolved too when they are
  // not inheritable, or when a variable's domain changed (the key did).
  for (const Slice* slice : from.uninheritable) {
    touch(slice);
  }
  if (from.max_var >= 0 && base->domains != &domains) {
    for (i32 v = 0; v <= from.max_var; ++v) {
      if (!(DomainOf(domains, v) == DomainOf(*base->domains, v))) {
        if (const Slice* slice = from.vars.Get(static_cast<u32>(v)).slice) {
          touch(slice);
        }
      }
    }
  }

  // Group the nodes into the slices this call resolves; every other base
  // slice is inherited. A group's head is its first constraint index:
  // slices are resolved in first-appearance order, the depth-0 order.
  const u32 num_nodes = static_cast<u32>(parent_.size());
  node_group_.resize(num_nodes, 0);
  root_group_.assign(num_nodes, kNone);
  group_head_.clear();
  group_start_.assign(1, 0);
  for (u32 node = 0; node < num_nodes; ++node) {
    if (node_group_[node] == kNone) {
      continue;
    }
    u32& group = root_group_[find(node)];
    if (group == kNone) {
      group = static_cast<u32>(group_head_.size());
      group_head_.push_back(kNone);
      group_start_.push_back(0);
    }
    node_group_[node] = group;
    ++group_start_[group + 1];
    const u32 head = node < num_delta ? static_cast<u32>(base_len) + node
                                      : static_cast<const Slice*>(touched_[node - num_delta])->head;
    group_head_[group] = std::min(group_head_[group], head);
  }
  const u32 num_groups = static_cast<u32>(group_head_.size());
  for (u32 g = 0; g < num_groups; ++g) {
    group_start_[g + 1] += group_start_[g];
  }
  // Within a group, base slices first: one base slice's members and the
  // delta's indices after it are then already in trace order.
  group_fill_.assign(group_start_.begin(), group_start_.end() - 1);
  group_nodes_.resize(group_start_.back());
  for (u32 pass = 0; pass < 2; ++pass) {
    for (u32 node = pass == 0 ? num_delta : 0; node < (pass == 0 ? num_nodes : num_delta);
         ++node) {
      if (node_group_[node] != kNone) {
        group_nodes_[group_fill_[node_group_[node]]++] = node;
      }
    }
  }
  order_.resize(num_groups);
  for (u32 g = 0; g < num_groups; ++g) {
    order_[g] = g;
  }
  std::sort(order_.begin(), order_.end(),
            [&](u32 a, u32 b) { return group_head_[a] < group_head_[b]; });
  // Base slices merged into a group headed by another slice stop being
  // slices. The live slices ahead of a group in the new state: the base
  // slices ahead of its head, less those merged away, plus the groups
  // made of delta constraints alone that precede it.
  absorbed_.clear();
  for (u32 node = num_delta; node < num_nodes; ++node) {
    const u32 head = static_cast<const Slice*>(touched_[node - num_delta])->head;
    if (head != group_head_[node_group_[node]]) {
      absorbed_.push_back(head);
    }
  }
  std::sort(absorbed_.begin(), absorbed_.end());
  const u32 base_slices = from.heads.size();
  const u64 inherited_total = base_slices - static_cast<u32>(touched_.size());
  u32 base_headed = 0;

  // Base model: the seed clamped into domains (the same initialization the
  // monolithic solver applies), with every base slice's validated
  // sub-model over it; a group's variables go back to the seed before it
  // is resolved, as at depth 0. Built when a slice first needs it: a
  // call that ends at its first slice's UNSAT hit never does.
  std::vector<i64> model;
  auto seeded = [&](i32 v) {
    const Interval dom = DomainOf(domains, v);
    return std::clamp(static_cast<size_t>(v) < seed.size() ? seed[v] : 0, dom.lo, dom.hi);
  };
  auto build_model = [&] {
    if (!model.empty() || (seed.empty() && max_var < 0)) {
      return;
    }
    model.resize(std::max<size_t>(seed.size(), static_cast<size_t>(max_var) + 1));
    const size_t clamped = std::min(seed.size(), domains.size());
    for (size_t i = 0; i < clamped; ++i) {
      model[i] = std::clamp(seed[i], domains[i].lo, domains[i].hi);
    }
    for (size_t i = clamped; i < model.size(); ++i) {
      model[i] = seeded(static_cast<i32>(i));
    }
    const i64* value = base->values.data();
    for (size_t word = 0; word < base->mapped.size(); ++word) {
      for (u64 bits = base->mapped[word]; bits != 0; bits &= bits - 1) {
        model[word * 64 + static_cast<size_t>(__builtin_ctzll(bits))] = *value++;
      }
    }
  };

  // Inherited slices count as they would at depth 0, in bulk: each one
  // as a slice and a SAT hit, ahead of the next group they precede.
  u64 inherited_counted = 0;
  auto count_inherited = [&](u64 upto) {
    const u64 more = upto - inherited_counted;
    stats_.slices_total += more;
    stats_.slice_sat_hits += more;
    stats_.slices_inherited += more;
    inherited_counted = upto;
  };
  dirty_members_.clear();
  dirty_vars_.clear();
  dirty_.clear();

  for (u32 i = 0; i < num_groups; ++i) {
    const u32 group = order_[i];
    const u32 head = group_head_[group];
    u64 ahead = 0;  // Live slices of the new state ahead of this one.
    const u64 absorbed_ahead = static_cast<u64>(
        std::lower_bound(absorbed_.begin(), absorbed_.end(), head) - absorbed_.begin());
    if (head < base_len) {
      ahead = from.heads.Rank(head) - absorbed_ahead;
      ++base_headed;
    } else {
      ahead = base_slices - absorbed_ahead + (i - base_headed);
    }
    count_inherited(ahead - i);
    ++stats_.slices_total;

    // Key: constraint structure + polarity in trace order, then each
    // mentioned variable with its domain (ascending, deduplicated).
    // `check` accumulates the same content from an independent seed; the
    // UNSAT cache requires both to match, so masking a SAT slice takes a
    // simultaneous 128-bit collision. A group of one base slice and delta
    // constraints lists the slice's constraints first, so its hashes go
    // on from the slice's: only the delta is hashed. Merged base slices
    // interleave; they are hashed whole.
    const std::span<const u32> nodes(group_nodes_.data() + group_start_[group],
                                     group_start_[group + 1] - group_start_[group]);
    u32 merged_base = 0;
    for (const u32 node : nodes) {
      merged_base += node >= num_delta ? 1 : 0;
    }
    u64 key = 0x452821e638d01377ull;
    u64 check = 0xbe5466cf34e90c6cull;
    auto hash_member = [&](u32 ci) {
      const Constraint c = constraints[ci];
      const u64 expr_hash = arena_.StructuralHash(c.expr);
      key = HashMix(key, expr_hash);
      key = HashMix(key, c.want_true ? 1 : 2);
      check = HashMix(check, c.want_true ? 1 : 2);
      check = HashMix(check, expr_hash);
      const std::span<const i32> vars = VarsOf(c.expr);
      slice_vars_.insert(slice_vars_.end(), vars.begin(), vars.end());
    };
    // Its constraint indices in trace order, gathered on first need.
    slice_members_.clear();
    auto gather_members = [&] {
      for (const u32 node : nodes) {
        if (node >= num_delta) {
          const std::span<const u32> members =
              static_cast<const Slice*>(touched_[node - num_delta])->Members();
          slice_members_.insert(slice_members_.end(), members.begin(), members.end());
        } else {
          slice_members_.push_back(static_cast<u32>(base_len) + node);
        }
      }
      if (merged_base > 1) {
        std::sort(slice_members_.begin(), slice_members_.end());
      }
    };
    slice_vars_.clear();
    if (merged_base > 1) {
      gather_members();
      for (const u32 ci : slice_members_) {
        hash_member(ci);
      }
    } else {
      for (const u32 node : nodes) {
        if (node >= num_delta) {
          const Slice* only = static_cast<const Slice*>(touched_[node - num_delta]);
          key = only->key;
          check = only->check;
          slice_vars_.assign(only->Vars().begin(), only->Vars().end());
        } else {
          hash_member(static_cast<u32>(base_len) + node);
        }
      }
    }
    const u64 member_key = key;
    const u64 member_check = check;
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
    if (cache_ != nullptr && cache_->LookupUnsat(key, check)) {
      ++stats_.slice_unsat_hits;
      result.status = SolveStatus::kUnsat;
      result.steps = 0;
      return result;
    }
    if (slice_members_.empty()) {
      gather_members();
    }
    slice_constraints_.clear();
    for (const u32 ci : slice_members_) {
      slice_constraints_.push_back(constraints[ci]);
    }
    const std::span<const u32> members = slice_members_;
    build_model();
    if (merged_base > 0) {
      for (const i32 v : slice_vars_) {
        model[v] = seeded(v);
      }
    }
    if (cache_ != nullptr) {
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
              model[v] = seeded(v);
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
      dirty_.push_back(Dirty{head, static_cast<u32>(dirty_members_.size()),
                             static_cast<u32>(dirty_vars_.size()), inheritable, member_key,
                             member_check});
      dirty_members_.insert(dirty_members_.end(), members.begin(), members.end());
      dirty_vars_.insert(dirty_vars_.end(), slice_vars_.begin(), slice_vars_.end());
    }
  }
  count_inherited(inherited_total);
  build_model();

  if (keep) {
    // The solved set's state: the base's maps, with the merged-away
    // heads erased and every resolved slice written over them.
    auto core = std::make_shared<SliceState::Core>();
    if (base != &kEmptyState) {
      core->parent = base->core;
      core->vars = from.vars;
      core->heads = from.heads;
      out->mapped = base->mapped;
    }
    core->max_var = max_var;
    out->mapped.resize((static_cast<size_t>(max_var) + 64) / 64, 0);
    Arena* arena = &core->arena;
    for (const u32 head : absorbed_) {
      core->heads.Set(head, Entry{nullptr}, arena);
    }
    dirty_.push_back(Dirty{0, static_cast<u32>(dirty_members_.size()),
                           static_cast<u32>(dirty_vars_.size()), false, 0, 0});
    for (size_t d = 0; d + 1 < dirty_.size(); ++d) {
      const Dirty& at = dirty_[d];
      const Dirty& next = dirty_[d + 1];
      Slice* slice = static_cast<Slice*>(arena->Alloc(sizeof(Slice)));
      slice->head = at.head;
      slice->num_members = next.members - at.members;
      slice->num_vars = next.vars - at.vars;
      slice->inheritable = at.inheritable;
      slice->key = at.key;
      slice->check = at.check;
      slice->members = arena->Copy(
          std::span<const u32>(dirty_members_.data() + at.members, slice->num_members));
      slice->vars =
          arena->Copy(std::span<const i32>(dirty_vars_.data() + at.vars, slice->num_vars));
      core->heads.Set(at.head, Entry{slice}, arena);
      for (u32 k = at.vars; k < next.vars; ++k) {
        const u32 v = static_cast<u32>(dirty_vars_[k]);
        core->vars.Set(v, Entry{slice}, arena);
        out->mapped[v / 64] |= u64{1} << (v % 64);
      }
      if (!at.inheritable) {
        core->uninheritable.push_back(slice);
      }
    }
    size_t mapped = 0;
    for (const u64 word : out->mapped) {
      mapped += static_cast<size_t>(__builtin_popcountll(word));
    }
    out->values.reserve(mapped);
    for (size_t word = 0; word < out->mapped.size(); ++word) {
      for (u64 bits = out->mapped[word]; bits != 0; bits &= bits - 1) {
        out->values.push_back(model[word * 64 + static_cast<size_t>(__builtin_ctzll(bits))]);
      }
    }
    out->set = constraints;
    out->domains = &domains;
    out->core = std::move(core);
  }

  result.status = SolveStatus::kSat;
  result.model = std::move(model);
  return result;
}

}  // namespace retrace
