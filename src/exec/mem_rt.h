// Memory-access and builtin semantics of the interpreter.
//
// The trap checks, builtin argument validation, data delivery and shadow
// attachment that interp.cc runs, kept apart from the dispatch loop: the
// interpreter supplies its memory-object table and arena, this header
// supplies the semantics.
#ifndef RETRACE_EXEC_MEM_RT_H_
#define RETRACE_EXEC_MEM_RT_H_

#include <string>
#include <vector>

#include "src/exec/value.h"
#include "src/ir/ir.h"
#include "src/lang/builtins.h"
#include "src/solver/expr.h"

namespace retrace {

class SyscallHandler;

// IR operator -> shadow-expression operator, used by shadow construction.
inline ExprOp ToExprOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return ExprOp::kAdd;
    case BinaryOp::kSub: return ExprOp::kSub;
    case BinaryOp::kMul: return ExprOp::kMul;
    case BinaryOp::kDiv: return ExprOp::kDiv;
    case BinaryOp::kRem: return ExprOp::kRem;
    case BinaryOp::kBitAnd: return ExprOp::kAnd;
    case BinaryOp::kBitOr: return ExprOp::kOr;
    case BinaryOp::kBitXor: return ExprOp::kXor;
    case BinaryOp::kShl: return ExprOp::kShl;
    case BinaryOp::kShr: return ExprOp::kShr;
    case BinaryOp::kEq: return ExprOp::kEq;
    case BinaryOp::kNe: return ExprOp::kNe;
    case BinaryOp::kLt: return ExprOp::kLt;
    case BinaryOp::kLe: return ExprOp::kLe;
    case BinaryOp::kGt: return ExprOp::kGt;
    case BinaryOp::kGe: return ExprOp::kGe;
  }
  FatalError("unreachable binary op");
}

inline ExprOp ToExprOp(IrUnOp op) {
  switch (op) {
    case IrUnOp::kNeg: return ExprOp::kNeg;
    case IrUnOp::kBitNot: return ExprOp::kBitNot;
    case IrUnOp::kLogicalNot: return ExprOp::kLogicalNot;
    case IrUnOp::kTruncChar: return ExprOp::kTruncChar;
  }
  FatalError("unreachable unary op");
}

// Validates a [load/store/buffer] access of `addr` at element `index`.
// On success fills obj/off; on failure fills `kind` with the crash kind
// the engine must trap with (the caller owns location attribution).
inline bool CheckMemAccessRt(const std::vector<MemObject>& objects, const Value& addr, i64 index,
                             CrashSite::Kind* kind, i32* obj, i64* off) {
  if (!addr.IsPtr()) {
    *kind = CrashSite::Kind::kNullDeref;
    return false;
  }
  if (addr.obj < 0 || addr.obj >= static_cast<i32>(objects.size())) {
    *kind = CrashSite::Kind::kPtrDomain;
    return false;
  }
  const MemObject& m = objects[addr.obj];
  if (!m.alive || m.gen != addr.gen) {
    *kind = CrashSite::Kind::kDangling;
    return false;
  }
  const i64 o = addr.num + index;
  if (o < 0 || o >= static_cast<i64>(m.cells.size())) {
    *kind = CrashSite::Kind::kOutOfBounds;
    return false;
  }
  *obj = addr.obj;
  *off = o;
  return true;
}

// Extracts the NUL-terminated string at `ptr` (open/print_str paths).
// Failure fills `kind` exactly as the historical Interp::ExtractCString.
inline bool ExtractCStringRt(const std::vector<MemObject>& objects, const Value& ptr,
                             CrashSite::Kind* kind, std::string* out) {
  if (!ptr.IsPtr()) {
    *kind = CrashSite::Kind::kNullDeref;
    return false;
  }
  const MemObject& m = objects[ptr.obj];
  if (!m.alive || m.gen != ptr.gen) {
    *kind = CrashSite::Kind::kDangling;
    return false;
  }
  out->clear();
  for (i64 i = ptr.num;; ++i) {
    if (i < 0 || i >= static_cast<i64>(m.cells.size())) {
      *kind = CrashSite::Kind::kOutOfBounds;
      return false;
    }
    const Value& cell = m.cells[i];
    if (!cell.IsInt()) {
      *kind = CrashSite::Kind::kBadBuiltinArg;
      return false;
    }
    if (cell.num == 0) {
      return true;
    }
    out->push_back(static_cast<char>(static_cast<u8>(cell.num)));
  }
}

// Appends `shadow` to a concretization record (Interp::concretized)
// unless it is kNoExpr or repeats the record's last entry.
inline void RecordConcretized(std::vector<ExprRef>* record, ExprRef shadow) {
  if (shadow != kNoExpr && (record->empty() || record->back() != shadow)) {
    record->push_back(shadow);
  }
}

// Outcome of one builtin execution. The caller turns
// kTrap into a Trap at its current instruction, kExit into run exit, and
// writes `ret`/`ret_shadow` to its destination on kOk (when has_ret).
// kStall is "failed without a crash": the engine must leave ip where it
// is and keep looping (historically, write() with a negative length spins
// on the call instruction until the step budget trips — preserved, since
// run counts are pinned by the sentinel tests).
struct BuiltinRtResult {
  enum class Status { kOk, kTrap, kExit, kStall };
  Status status = Status::kOk;
  CrashSite::Kind trap_kind = CrashSite::Kind::kNone;
  i64 trap_code = 0;  // kExplicit crash code.
  i64 exit_code = 0;
  bool has_ret = false;
  Value ret = Value::Int(0);
  ExprRef ret_shadow = kNoExpr;
};

// Executes builtin `b` with already-evaluated argument values against the
// engine's object table. `arena` non-null means shadow mode: syscall
// results and delivered read() bytes get MkVar shadows, in the same
// arena-construction order as the historical interpreter. `want_ret`
// mirrors "the call has a destination": the ret-cell shadow is only
// interned when someone will store it (arena construction order decides
// every shadow ref a run produces). `concretized` (null outside shadow
// mode) records the shadows of the memory cells write, print_str, open
// and select_fd read.
BuiltinRtResult ExecBuiltinRt(Builtin b, const std::vector<Value>& args, bool want_ret,
                              std::vector<MemObject>& objects, ExprArena* arena,
                              SyscallHandler* syscalls, std::vector<ExprRef>* concretized);

}  // namespace retrace

#endif  // RETRACE_EXEC_MEM_RT_H_
