// Symbolic expression DAG.
//
// Expressions are immutable nodes in an arena, referenced by index
// (ExprRef). Variables stand for input cells: argv bytes, bytes produced by
// read(), and the results of nondeterministic system calls. The interpreter
// builds shadow expressions along the concrete path; branch conditions over
// them become path constraints.
#ifndef RETRACE_SOLVER_EXPR_H_
#define RETRACE_SOLVER_EXPR_H_

#include <string>
#include <vector>

#include "src/support/common.h"

namespace retrace {

using ExprRef = i32;
inline constexpr ExprRef kNoExpr = -1;

enum class ExprOp : u8 {
  kConst,
  kVar,
  // Binary (signed 64-bit semantics).
  kAdd, kSub, kMul, kDiv, kRem,
  kAnd, kOr, kXor, kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  // Unary.
  kNeg, kBitNot, kLogicalNot,
  kTruncChar,  // Truncation to unsigned char on store to a char cell.
};

bool ExprOpIsBinary(ExprOp op);
bool ExprOpIsComparison(ExprOp op);
const char* ExprOpName(ExprOp op);

// Hash mixing step shared by every structural fingerprint in the solver
// (node hashes, constraint-set fingerprints, slice-cache keys). One
// formula everywhere keeps arena-side and portable-side hashes equal.
inline u64 HashMix(u64 h, u64 v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

struct ExprNode {
  ExprOp op = ExprOp::kConst;
  ExprRef a = kNoExpr;
  ExprRef b = kNoExpr;
  i64 imm = 0;  // kConst: value; kVar: variable id.

  bool operator==(const ExprNode&) const = default;
};

// Arena of hash-consed expression nodes. Node construction performs
// constant folding and light algebraic simplification, which keeps shadow
// DAGs small across millions of branch executions.
//
// Refs are dense and handed out in creation order: the n-th distinct node
// is ref n-1, and re-making an existing node returns its original ref.
// The arena is thread-confined, const methods included: the graph walks
// (CollectVars, CollectConsts, StructuralHash) reuse per-arena scratch
// state instead of allocating per call.
class ExprArena {
 public:
  ExprArena();

  ExprRef MkConst(i64 value);
  ExprRef MkVar(i32 var_id);
  ExprRef MkUn(ExprOp op, ExprRef a);
  ExprRef MkBin(ExprOp op, ExprRef a, ExprRef b);

  const ExprNode& node(ExprRef ref) const { return nodes_[ref]; }
  size_t size() const { return nodes_.size(); }

  bool IsConst(ExprRef ref) const { return nodes_[ref].op == ExprOp::kConst; }
  i64 ConstValue(ExprRef ref) const { return nodes_[ref].imm; }

  // Evaluates under an assignment of values to variable ids. Variables not
  // present in `assignment` (id >= size) evaluate to 0. The walk is
  // iterative, so deep accumulator chains do not recurse, and evaluates
  // each shared node once.
  i64 Eval(ExprRef ref, const std::vector<i64>& assignment) const;

  // Eval for many expressions under one assignment: StartEvalBatch()
  // begins a batch, and every EvalInBatch() of the batch must pass the
  // same assignment. A node shared by the batch's expressions is
  // evaluated once. Eval is a batch of one.
  void StartEvalBatch() const;
  i64 EvalInBatch(ExprRef ref, const std::vector<i64>& assignment) const;

  // Variable signature: the OR of VarBit over the variables `ref`
  // mentions. A filter only — two variables may share a bit — so
  // `(VarSig(ref) & mask) == 0` proves `ref` mentions no variable of the
  // mask's set, and anything else must be checked exactly.
  u64 VarSig(ExprRef ref) const { return var_sig_[ref]; }
  static u64 VarBit(i32 var_id) { return u64{1} << (static_cast<u32>(var_id) & 63); }
  // True when `ref` mentions a variable v with `members[v]` set. `mask`
  // must cover VarBit of every member; subtrees outside it are skipped.
  bool MentionsAny(ExprRef ref, u64 mask, const std::vector<u8>& members) const;

  // Appends all variable ids reachable from `ref` (deduplicated).
  void CollectVars(ExprRef ref, std::vector<i32>* vars) const;
  // Appends all constants appearing in the expression.
  void CollectConsts(ExprRef ref, std::vector<i64>* consts) const;

  std::string ToString(ExprRef ref) const;

  // Arena-independent structural hash of the sub-DAG rooted at `ref`:
  // equal for structurally identical expressions built in different
  // arenas (it uses the same node mixing as FingerprintConstraints).
  // Memoized per node — nodes are immutable and refs append-only, so each
  // node is hashed at most once per arena lifetime.
  u64 StructuralHash(ExprRef ref) const;

  // Total 64-bit semantics used everywhere (interpreter shadow, solver):
  // division by zero yields 0, shifts use only the low 6 bits of the count.
  static i64 EvalBin(ExprOp op, i64 a, i64 b);
  static i64 EvalUn(ExprOp op, i64 a);

 private:
  ExprRef Intern(ExprNode node);
  void GrowTable();
  // Starts a graph walk: returns a fresh visit epoch (nodes whose mark
  // equals it were seen by this walk) and an empty walk stack.
  u32 BeginWalk() const;

  std::vector<ExprNode> nodes_;
  std::vector<u64> var_sig_;  // Per node: VarSig.
  // Hash-consing table: open addressing with linear probing over refs into
  // nodes_ (kNoExpr = empty slot). Power-of-two sized, at most half full;
  // the home slot is the top bits of the node hash.
  std::vector<ExprRef> table_;
  u32 table_shift_ = 0;
  mutable std::vector<u64> struct_hash_;  // 0 = not yet computed.
  mutable std::vector<u32> visit_mark_;   // Per node: epoch of its last visit.
  mutable u32 visit_epoch_ = 0;
  mutable std::vector<ExprRef> walk_stack_;
  mutable std::vector<i64> batch_value_;  // Per node: value in eval batch batch_mark_.
  mutable std::vector<u32> batch_mark_;
  mutable u32 batch_epoch_ = 0;
};

// A path constraint: `expr` must evaluate truthy (want_true) or falsy.
struct Constraint {
  ExprRef expr = kNoExpr;
  bool want_true = true;

  bool operator==(const Constraint&) const = default;
};

// Non-owning view of a constraint-set prefix with an optional negation of
// the last element — the pending-set shape of the replay frontier. Lets
// the solver walk a trace prefix directly instead of materializing a
// fresh (prefix-copied, last-negated) vector for every frontier pop. The
// view does not own the storage; it must not outlive the trace.
struct ConstraintSpan {
  const Constraint* data = nullptr;
  size_t count = 0;
  bool negate_last = false;

  ConstraintSpan() = default;
  ConstraintSpan(const Constraint* d, size_t n, bool negate = false)
      : data(d), count(n), negate_last(negate) {}

  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  Constraint operator[](size_t i) const {
    Constraint c = data[i];
    if (negate_last && i + 1 == count) {
      c.want_true = !c.want_true;
    }
    return c;
  }
};

// Arena-independent snapshot of a constraint trace. The parallel replay
// scheduler publishes pending constraint sets through a shared frontier,
// and the distributed scheduler ships them between shard processes
// (src/dist/wire.h encodes exactly this struct); because every worker
// owns a private ExprArena (hash-consing is not thread-safe), the sets
// travel in this portable form and are re-interned into the consuming
// worker's arena. `nodes` is in topological order (children strictly
// precede parents); node fields a/b and Constraint::expr index into
// `nodes` instead of an arena.
struct PortableTrace {
  std::vector<ExprNode> nodes;
  std::vector<Constraint> constraints;
};

// Snapshots `constraints` (all of them) out of `arena`.
PortableTrace ExportTrace(const ExprArena& arena, const std::vector<Constraint>& constraints);

// Re-interns the nodes of `trace` into `arena` and returns constraints
// [0, len), negating the last one when `negate_last` — the pending-set
// shape of the replay frontier. Because arenas apply identical folding and
// interning rules, importing an exported trace reproduces the structure
// exactly.
std::vector<Constraint> ImportConstraints(const PortableTrace& trace, size_t len,
                                          bool negate_last, ExprArena* arena);

// Bottom-up structural hashes of every node of `trace` (children precede
// parents, so one forward pass suffices); entry i agrees with
// ExprArena::StructuralHash of the same node interned in any arena.
std::vector<u64> PortableNodeHashes(const PortableTrace& trace);

// Structural fingerprint of constraints [0, len) (with the optional
// negation), stable across arenas: the key under which the search's
// dedup and the coordinator's recovery ledger recognise a pending set.
u64 FingerprintConstraints(const PortableTrace& trace, size_t len, bool negate_last);

// The chain primitives behind FingerprintConstraints, exposed so the
// replay engine can fingerprint a pending set held in its own arena:
//
//   fp([0, 0))     = kConstraintFingerprintSeed
//   fp([0, i + 1)) = ExtendConstraintFingerprint(fp([0, i)), hash_i, want_i)
//
// where hash_i is the constraint expression's structural hash (arena
// StructuralHash or PortableNodeHashes entry — the two agree). A
// negate-last pending set fingerprints as the chain with the final
// step's polarity flipped.
inline constexpr u64 kConstraintFingerprintSeed = 0x13198a2e03707344ull;

inline u64 ExtendConstraintFingerprint(u64 fp, u64 expr_hash, bool want_true) {
  return HashMix(HashMix(fp, expr_hash), want_true ? 1 : 2);
}

}  // namespace retrace

#endif  // RETRACE_SOLVER_EXPR_H_
