#include "src/solver/expr.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace retrace {

bool ExprOpIsBinary(ExprOp op) {
  switch (op) {
    case ExprOp::kConst:
    case ExprOp::kVar:
    case ExprOp::kNeg:
    case ExprOp::kBitNot:
    case ExprOp::kLogicalNot:
    case ExprOp::kTruncChar:
      return false;
    default:
      return true;
  }
}

bool ExprOpIsComparison(ExprOp op) {
  switch (op) {
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      return true;
    default:
      return false;
  }
}

const char* ExprOpName(ExprOp op) {
  switch (op) {
    case ExprOp::kConst: return "const";
    case ExprOp::kVar: return "var";
    case ExprOp::kAdd: return "+";
    case ExprOp::kSub: return "-";
    case ExprOp::kMul: return "*";
    case ExprOp::kDiv: return "/";
    case ExprOp::kRem: return "%";
    case ExprOp::kAnd: return "&";
    case ExprOp::kOr: return "|";
    case ExprOp::kXor: return "^";
    case ExprOp::kShl: return "<<";
    case ExprOp::kShr: return ">>";
    case ExprOp::kEq: return "==";
    case ExprOp::kNe: return "!=";
    case ExprOp::kLt: return "<";
    case ExprOp::kLe: return "<=";
    case ExprOp::kGt: return ">";
    case ExprOp::kGe: return ">=";
    case ExprOp::kNeg: return "neg";
    case ExprOp::kBitNot: return "~";
    case ExprOp::kLogicalNot: return "!";
    case ExprOp::kTruncChar: return "truncc";
  }
  return "?";
}

i64 ExprArena::EvalBin(ExprOp op, i64 a, i64 b) {
  switch (op) {
    case ExprOp::kAdd: return static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b));
    case ExprOp::kSub: return static_cast<i64>(static_cast<u64>(a) - static_cast<u64>(b));
    case ExprOp::kMul: return static_cast<i64>(static_cast<u64>(a) * static_cast<u64>(b));
    case ExprOp::kDiv: return b == 0 ? 0 : (a == INT64_MIN && b == -1 ? a : a / b);
    case ExprOp::kRem: return b == 0 ? 0 : (a == INT64_MIN && b == -1 ? 0 : a % b);
    case ExprOp::kAnd: return a & b;
    case ExprOp::kOr: return a | b;
    case ExprOp::kXor: return a ^ b;
    case ExprOp::kShl: return static_cast<i64>(static_cast<u64>(a) << (static_cast<u64>(b) & 63));
    case ExprOp::kShr: return a >> (static_cast<u64>(b) & 63);
    case ExprOp::kEq: return a == b ? 1 : 0;
    case ExprOp::kNe: return a != b ? 1 : 0;
    case ExprOp::kLt: return a < b ? 1 : 0;
    case ExprOp::kLe: return a <= b ? 1 : 0;
    case ExprOp::kGt: return a > b ? 1 : 0;
    case ExprOp::kGe: return a >= b ? 1 : 0;
    default:
      FatalError("EvalBin: non-binary op");
  }
}

i64 ExprArena::EvalUn(ExprOp op, i64 a) {
  switch (op) {
    case ExprOp::kNeg: return static_cast<i64>(-static_cast<u64>(a));
    case ExprOp::kBitNot: return ~a;
    case ExprOp::kLogicalNot: return a == 0 ? 1 : 0;
    case ExprOp::kTruncChar: return static_cast<i64>(static_cast<u8>(a));
    default:
      FatalError("EvalUn: non-unary op");
  }
}

namespace {

constexpr u32 kInitialTableLog2 = 11;  // 2048 slots: 1024 nodes before growing.

// Hash-consing key of a node. HashMix ends in a multiply, so the top bits
// (the table's home slot) depend on every field.
u64 InternHash(const ExprNode& n) {
  const u64 operands = (static_cast<u64>(static_cast<u32>(n.a)) << 32) | static_cast<u32>(n.b);
  return HashMix(HashMix(static_cast<u64>(n.imm), operands), static_cast<u64>(n.op));
}

}  // namespace

ExprArena::ExprArena()
    : table_(size_t{1} << kInitialTableLog2, kNoExpr), table_shift_(64 - kInitialTableLog2) {
  nodes_.reserve(1024);
  var_sig_.reserve(1024);
}

ExprRef ExprArena::Intern(ExprNode node) {
  const size_t mask = table_.size() - 1;
  for (size_t slot = InternHash(node) >> table_shift_;; slot = (slot + 1) & mask) {
    const ExprRef ref = table_[slot];
    if (ref == kNoExpr) {
      const ExprRef fresh = static_cast<ExprRef>(nodes_.size());
      nodes_.push_back(node);
      var_sig_.push_back(node.op == ExprOp::kVar
                             ? VarBit(static_cast<i32>(node.imm))
                             : (node.a != kNoExpr ? var_sig_[node.a] : 0) |
                                   (node.b != kNoExpr ? var_sig_[node.b] : 0));
      table_[slot] = fresh;
      if (nodes_.size() * 2 > table_.size()) {
        GrowTable();
      }
      return fresh;
    }
    if (nodes_[ref] == node) {
      return ref;
    }
  }
}

void ExprArena::GrowTable() {
  table_.assign(table_.size() * 2, kNoExpr);
  --table_shift_;
  const size_t mask = table_.size() - 1;
  for (size_t ref = 0; ref < nodes_.size(); ++ref) {
    size_t slot = InternHash(nodes_[ref]) >> table_shift_;
    while (table_[slot] != kNoExpr) {
      slot = (slot + 1) & mask;
    }
    table_[slot] = static_cast<ExprRef>(ref);
  }
}

u32 ExprArena::BeginWalk() const {
  if (visit_mark_.size() < nodes_.size()) {
    visit_mark_.resize(nodes_.size(), 0);
  }
  if (++visit_epoch_ == 0) {  // Wrapped: clear stale marks once per 2^32 walks.
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0);
    visit_epoch_ = 1;
  }
  walk_stack_.clear();
  return visit_epoch_;
}

ExprRef ExprArena::MkConst(i64 value) {
  return Intern(ExprNode{ExprOp::kConst, kNoExpr, kNoExpr, value});
}

ExprRef ExprArena::MkVar(i32 var_id) {
  return Intern(ExprNode{ExprOp::kVar, kNoExpr, kNoExpr, var_id});
}

ExprRef ExprArena::MkUn(ExprOp op, ExprRef a) {
  Check(a != kNoExpr, "MkUn: missing operand");
  if (IsConst(a)) {
    return MkConst(EvalUn(op, ConstValue(a)));
  }
  // trunc(trunc(x)) == trunc(x); !!x is not simplified (not equal to x).
  if (op == ExprOp::kTruncChar && nodes_[a].op == ExprOp::kTruncChar) {
    return a;
  }
  return Intern(ExprNode{op, a, kNoExpr, 0});
}

ExprRef ExprArena::MkBin(ExprOp op, ExprRef a, ExprRef b) {
  Check(a != kNoExpr && b != kNoExpr, "MkBin: missing operand");
  if (IsConst(a) && IsConst(b)) {
    return MkConst(EvalBin(op, ConstValue(a), ConstValue(b)));
  }
  // Light algebraic identities; keeps chains like x+0 and 1*x small.
  if (IsConst(b)) {
    const i64 v = ConstValue(b);
    if (v == 0 && (op == ExprOp::kAdd || op == ExprOp::kSub || op == ExprOp::kOr ||
                   op == ExprOp::kXor || op == ExprOp::kShl || op == ExprOp::kShr)) {
      return a;
    }
    if (v == 1 && (op == ExprOp::kMul || op == ExprOp::kDiv)) {
      return a;
    }
    if (v == 0 && (op == ExprOp::kMul || op == ExprOp::kAnd)) {
      return MkConst(0);
    }
  }
  if (IsConst(a)) {
    const i64 v = ConstValue(a);
    if (v == 0 && (op == ExprOp::kAdd || op == ExprOp::kOr || op == ExprOp::kXor)) {
      return b;
    }
    if (v == 1 && op == ExprOp::kMul) {
      return b;
    }
    if (v == 0 && (op == ExprOp::kMul || op == ExprOp::kAnd)) {
      return MkConst(0);
    }
  }
  if (a == b) {
    switch (op) {
      case ExprOp::kSub:
      case ExprOp::kXor:
        return MkConst(0);
      case ExprOp::kEq:
      case ExprOp::kLe:
      case ExprOp::kGe:
        return MkConst(1);
      case ExprOp::kNe:
      case ExprOp::kLt:
      case ExprOp::kGt:
        return MkConst(0);
      case ExprOp::kAnd:
      case ExprOp::kOr:
        return a;
      default:
        break;
    }
  }
  return Intern(ExprNode{op, a, b, 0});
}

i64 ExprArena::Eval(ExprRef ref, const std::vector<i64>& assignment) const {
  StartEvalBatch();
  return EvalInBatch(ref, assignment);
}

void ExprArena::StartEvalBatch() const {
  if (batch_mark_.size() < nodes_.size()) {
    batch_mark_.resize(nodes_.size(), 0);
    batch_value_.resize(nodes_.size(), 0);
  }
  if (++batch_epoch_ == 0) {  // Wrapped: clear stale marks once per 2^32 batches.
    std::fill(batch_mark_.begin(), batch_mark_.end(), 0);
    batch_epoch_ = 1;
  }
}

i64 ExprArena::EvalInBatch(ExprRef ref, const std::vector<i64>& assignment) const {
  if (batch_mark_.size() < nodes_.size()) {
    batch_mark_.resize(nodes_.size(), 0);
    batch_value_.resize(nodes_.size(), 0);
  }
  const u32 epoch = batch_epoch_;
  // Leaves and nodes already evaluated in this batch; leaves are never
  // pushed or memoized.
  auto known = [&](ExprRef r, i64* value) {
    const ExprNode& n = nodes_[r];
    if (n.op == ExprOp::kConst) {
      *value = n.imm;
      return true;
    }
    if (n.op == ExprOp::kVar) {
      const size_t id = static_cast<size_t>(n.imm);
      *value = id < assignment.size() ? assignment[id] : 0;
      return true;
    }
    *value = batch_value_[r];
    return batch_mark_[r] == epoch;
  };
  i64 result = 0;
  if (known(ref, &result)) {
    return result;
  }
  std::vector<ExprRef>& stack = walk_stack_;
  stack.assign(1, ref);
  while (!stack.empty()) {
    const ExprRef cur = stack.back();
    const ExprNode& n = nodes_[cur];
    i64 a = 0;
    i64 b = 0;
    const bool binary = ExprOpIsBinary(n.op);
    const bool a_ready = known(n.a, &a);
    const bool b_ready = !binary || known(n.b, &b);
    if (!a_ready || !b_ready) {
      if (!a_ready) {
        stack.push_back(n.a);
      }
      if (!b_ready) {
        stack.push_back(n.b);
      }
      continue;
    }
    batch_value_[cur] = binary ? EvalBin(n.op, a, b) : EvalUn(n.op, a);
    batch_mark_[cur] = epoch;
    stack.pop_back();
  }
  return batch_value_[ref];
}

bool ExprArena::MentionsAny(ExprRef ref, u64 mask, const std::vector<u8>& members) const {
  const u32 epoch = BeginWalk();
  std::vector<ExprRef>& stack = walk_stack_;
  stack.push_back(ref);
  while (!stack.empty()) {
    const ExprRef cur = stack.back();
    stack.pop_back();
    if (cur == kNoExpr || visit_mark_[cur] == epoch || (var_sig_[cur] & mask) == 0) {
      continue;
    }
    visit_mark_[cur] = epoch;
    const ExprNode& n = nodes_[cur];
    if (n.op == ExprOp::kVar) {
      const size_t id = static_cast<size_t>(n.imm);
      if (id < members.size() && members[id] != 0) {
        return true;
      }
      continue;
    }
    stack.push_back(n.a);
    stack.push_back(n.b);
  }
  return false;
}

void ExprArena::CollectVars(ExprRef ref, std::vector<i32>* vars) const {
  // Iterative DFS; shadow DAGs can be deep for accumulator loops.
  const u32 epoch = BeginWalk();
  std::vector<ExprRef>& stack = walk_stack_;
  stack.push_back(ref);
  while (!stack.empty()) {
    const ExprRef cur = stack.back();
    stack.pop_back();
    if (cur == kNoExpr || visit_mark_[cur] == epoch) {
      continue;
    }
    visit_mark_[cur] = epoch;
    const ExprNode& n = nodes_[cur];
    if (n.op == ExprOp::kVar) {
      const i32 id = static_cast<i32>(n.imm);
      bool present = false;
      for (i32 v : *vars) {
        if (v == id) {
          present = true;
          break;
        }
      }
      if (!present) {
        vars->push_back(id);
      }
      continue;
    }
    if (n.a != kNoExpr) {
      stack.push_back(n.a);
    }
    if (n.b != kNoExpr) {
      stack.push_back(n.b);
    }
  }
}

void ExprArena::CollectConsts(ExprRef ref, std::vector<i64>* consts) const {
  const u32 epoch = BeginWalk();
  std::vector<ExprRef>& stack = walk_stack_;
  stack.push_back(ref);
  while (!stack.empty()) {
    const ExprRef cur = stack.back();
    stack.pop_back();
    if (cur == kNoExpr || visit_mark_[cur] == epoch) {
      continue;
    }
    visit_mark_[cur] = epoch;
    const ExprNode& n = nodes_[cur];
    if (n.op == ExprOp::kConst) {
      consts->push_back(n.imm);
      continue;
    }
    if (n.a != kNoExpr) {
      stack.push_back(n.a);
    }
    if (n.b != kNoExpr) {
      stack.push_back(n.b);
    }
  }
}

PortableTrace ExportTrace(const ExprArena& arena, const std::vector<Constraint>& constraints) {
  PortableTrace out;
  // Work proportional to the trace's reachable set, not the arena:
  // worker arenas grow monotonically across a search, so a full-arena
  // scan per export would turn quadratic over a long run. Arena refs are
  // append-ordered (children always carry smaller refs than parents), so
  // sorting the reachable refs yields a topological order for free.
  std::unordered_map<ExprRef, ExprRef> remap;  // Doubles as the seen-set.
  std::vector<ExprRef> reachable;
  std::vector<ExprRef> stack;
  auto visit = [&](ExprRef ref) {
    if (ref != kNoExpr && remap.emplace(ref, kNoExpr).second) {
      reachable.push_back(ref);
      stack.push_back(ref);
    }
  };
  for (const Constraint& c : constraints) {
    visit(c.expr);
  }
  while (!stack.empty()) {
    const ExprNode& n = arena.node(stack.back());
    stack.pop_back();
    visit(n.a);
    visit(n.b);
  }
  std::sort(reachable.begin(), reachable.end());
  out.nodes.reserve(reachable.size());
  for (const ExprRef ref : reachable) {
    ExprNode node = arena.node(ref);
    if (node.a != kNoExpr) {
      node.a = remap.at(node.a);
    }
    if (node.b != kNoExpr) {
      node.b = remap.at(node.b);
    }
    remap[ref] = static_cast<ExprRef>(out.nodes.size());
    out.nodes.push_back(node);
  }
  out.constraints.reserve(constraints.size());
  for (const Constraint& c : constraints) {
    out.constraints.push_back(
        Constraint{c.expr == kNoExpr ? kNoExpr : remap.at(c.expr), c.want_true});
  }
  return out;
}

std::vector<Constraint> ImportConstraints(const PortableTrace& trace, size_t len,
                                          bool negate_last, ExprArena* arena) {
  Check(len <= trace.constraints.size(), "ImportConstraints: len out of range");
  // Rebuild through the public constructors so interning and folding
  // invariants hold in the target arena. Exported nodes are already in
  // canonical (folded) form, so re-interning is structure-preserving.
  std::vector<ExprRef> remap(trace.nodes.size(), kNoExpr);
  for (size_t i = 0; i < trace.nodes.size(); ++i) {
    const ExprNode& n = trace.nodes[i];
    switch (n.op) {
      case ExprOp::kConst:
        remap[i] = arena->MkConst(n.imm);
        break;
      case ExprOp::kVar:
        remap[i] = arena->MkVar(static_cast<i32>(n.imm));
        break;
      default:
        if (ExprOpIsBinary(n.op)) {
          remap[i] = arena->MkBin(n.op, remap[n.a], remap[n.b]);
        } else {
          remap[i] = arena->MkUn(n.op, remap[n.a]);
        }
    }
  }
  std::vector<Constraint> out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    const Constraint& c = trace.constraints[i];
    out.push_back(Constraint{c.expr == kNoExpr ? kNoExpr : remap[c.expr], c.want_true});
  }
  if (negate_last && !out.empty()) {
    out.back().want_true = !out.back().want_true;
  }
  return out;
}

namespace {

// Node hash shared by FingerprintConstraints (over portable nodes) and
// ExprArena::StructuralHash (over arena nodes): the two must agree so a
// slice solved from an imported trace hits cache entries produced from
// native arena expressions.
u64 NodeHash(const ExprNode& n, u64 hash_a, u64 hash_b) {
  u64 h = HashMix(0x243f6a8885a308d3ull, static_cast<u64>(n.op));
  h = HashMix(h, static_cast<u64>(n.imm));
  if (n.a != kNoExpr) {
    h = HashMix(h, hash_a);
  }
  if (n.b != kNoExpr) {
    h = HashMix(h, hash_b);
  }
  return h;
}

}  // namespace

u64 ExprArena::StructuralHash(ExprRef ref) const {
  if (static_cast<size_t>(ref) < struct_hash_.size() && struct_hash_[ref] != 0) {
    return struct_hash_[ref];
  }
  if (struct_hash_.size() < nodes_.size()) {
    struct_hash_.resize(nodes_.size(), 0);
  }
  std::vector<ExprRef>& stack = walk_stack_;
  stack.assign(1, ref);
  while (!stack.empty()) {
    const ExprRef cur = stack.back();
    if (struct_hash_[cur] != 0) {
      stack.pop_back();
      continue;
    }
    const ExprNode& n = nodes_[cur];
    bool ready = true;
    if (n.a != kNoExpr && struct_hash_[n.a] == 0) {
      stack.push_back(n.a);
      ready = false;
    }
    if (n.b != kNoExpr && struct_hash_[n.b] == 0) {
      stack.push_back(n.b);
      ready = false;
    }
    if (!ready) {
      continue;
    }
    const u64 h = NodeHash(n, n.a != kNoExpr ? struct_hash_[n.a] : 0,
                           n.b != kNoExpr ? struct_hash_[n.b] : 0);
    struct_hash_[cur] = h != 0 ? h : 1;  // 0 is the not-yet-computed mark.
    stack.pop_back();
  }
  return struct_hash_[ref];
}

std::vector<u64> PortableNodeHashes(const PortableTrace& trace) {
  // Topological order guarantees children are hashed before their parents.
  std::vector<u64> node_hash(trace.nodes.size(), 0);
  for (size_t i = 0; i < trace.nodes.size(); ++i) {
    const ExprNode& n = trace.nodes[i];
    node_hash[i] = NodeHash(n, n.a != kNoExpr ? node_hash[n.a] : 0,
                            n.b != kNoExpr ? node_hash[n.b] : 0);
  }
  return node_hash;
}

u64 FingerprintConstraints(const PortableTrace& trace, size_t len, bool negate_last) {
  const std::vector<u64> node_hash = PortableNodeHashes(trace);
  Check(len <= trace.constraints.size(), "FingerprintConstraints: len out of range");
  u64 h = kConstraintFingerprintSeed;
  for (size_t i = 0; i < len; ++i) {
    const Constraint& c = trace.constraints[i];
    bool want = c.want_true;
    if (negate_last && i + 1 == len) {
      want = !want;
    }
    h = ExtendConstraintFingerprint(h, c.expr == kNoExpr ? 0 : node_hash[c.expr], want);
  }
  return h;
}

std::string ExprArena::ToString(ExprRef ref) const {
  const ExprNode& n = nodes_[ref];
  std::ostringstream os;
  switch (n.op) {
    case ExprOp::kConst:
      os << n.imm;
      break;
    case ExprOp::kVar:
      os << "v" << n.imm;
      break;
    default:
      if (ExprOpIsBinary(n.op)) {
        os << "(" << ToString(n.a) << " " << ExprOpName(n.op) << " " << ToString(n.b) << ")";
      } else {
        os << ExprOpName(n.op) << "(" << ToString(n.a) << ")";
      }
  }
  return os.str();
}

}  // namespace retrace
