#include "src/exec/mem_rt.h"

#include "src/exec/engine.h"
#include "src/solver/expr.h"

namespace retrace {
namespace {

BuiltinRtResult TrapResult(CrashSite::Kind kind, i64 code = 0) {
  BuiltinRtResult out;
  out.status = BuiltinRtResult::Status::kTrap;
  out.trap_kind = kind;
  out.trap_code = code;
  return out;
}

}  // namespace

BuiltinRtResult ExecBuiltinRt(Builtin b, const std::vector<Value>& args, bool want_ret,
                              std::vector<MemObject>& objects, ExprArena* arena,
                              SyscallHandler* syscalls, std::vector<ExprRef>* concretized) {
  BuiltinRtResult out;
  CrashSite::Kind kind = CrashSite::Kind::kNone;
  // The builtin reads cells [first, first + count) of `ptr`'s object.
  auto concretize_cells = [&](const Value& ptr, i64 count) {
    const MemObject& m = objects[ptr.obj];
    if (concretized == nullptr || m.shadows.empty()) {
      return;
    }
    for (i64 i = 0; i < count; ++i) {
      RecordConcretized(concretized, m.shadows[ptr.num + i]);
    }
  };

  switch (b) {
    case Builtin::kCrash: {
      const i64 code = !args.empty() && args[0].IsInt() ? args[0].num : 0;
      return TrapResult(CrashSite::Kind::kExplicit, code);
    }
    case Builtin::kExit: {
      out.status = BuiltinRtResult::Status::kExit;
      out.exit_code = !args.empty() && args[0].IsInt() ? args[0].num : 0;
      return out;
    }
    default:
      break;
  }

  if (syscalls == nullptr) {
    return TrapResult(CrashSite::Kind::kBadBuiltinArg);
  }

  std::vector<i64> int_args;
  std::string str_arg;
  std::vector<u8> write_data;

  switch (b) {
    case Builtin::kRead: {
      if (args.size() != 3 || !args[0].IsInt() || !args[1].IsPtr() || !args[2].IsInt()) {
        return TrapResult(CrashSite::Kind::kBadBuiltinArg);
      }
      int_args = {args[0].num, args[2].num};
      break;
    }
    case Builtin::kWrite: {
      if (args.size() != 3 || !args[0].IsInt() || !args[1].IsPtr() || !args[2].IsInt()) {
        return TrapResult(CrashSite::Kind::kBadBuiltinArg);
      }
      const Value& buf = args[1];
      const i64 n = args[2].num;
      i32 obj;
      i64 off;
      if (n < 0) {
        out.status = BuiltinRtResult::Status::kStall;
        return out;
      }
      if (!CheckMemAccessRt(objects, buf, 0, &kind, &obj, &off) ||
          (n > 0 && !CheckMemAccessRt(objects, buf, n - 1, &kind, &obj, &off))) {
        return TrapResult(kind);
      }
      const MemObject& m = objects[buf.obj];
      for (i64 i = 0; i < n; ++i) {
        const Value& cell = m.cells[buf.num + i];
        write_data.push_back(cell.IsInt() ? static_cast<u8>(cell.num) : 0);
      }
      concretize_cells(buf, n);
      int_args = {args[0].num, n};
      break;
    }
    case Builtin::kOpen: {
      if (args.size() != 2 || !args[1].IsInt()) {
        return TrapResult(CrashSite::Kind::kBadBuiltinArg);
      }
      if (!ExtractCStringRt(objects, args[0], &kind, &str_arg)) {
        return TrapResult(kind);
      }
      concretize_cells(args[0], static_cast<i64>(str_arg.size()) + 1);
      int_args = {args[1].num};
      break;
    }
    case Builtin::kClose: {
      if (args.size() != 1 || !args[0].IsInt()) {
        return TrapResult(CrashSite::Kind::kBadBuiltinArg);
      }
      int_args = {args[0].num};
      break;
    }
    case Builtin::kSelectFd: {
      if (args.size() != 2 || !args[0].IsPtr() || !args[1].IsInt()) {
        return TrapResult(CrashSite::Kind::kBadBuiltinArg);
      }
      const i64 nfds = args[1].num;
      i32 obj;
      i64 off;
      if (nfds < 0) {
        return TrapResult(CrashSite::Kind::kBadBuiltinArg);
      }
      if (nfds > 0 && !CheckMemAccessRt(objects, args[0], nfds - 1, &kind, &obj, &off)) {
        return TrapResult(kind);
      }
      int_args.push_back(nfds);
      const MemObject& m = objects[args[0].obj];
      for (i64 i = 0; i < nfds; ++i) {
        const Value& cell = m.cells[args[0].num + i];
        int_args.push_back(cell.IsInt() ? cell.num : -1);
      }
      concretize_cells(args[0], nfds);
      break;
    }
    case Builtin::kAcceptConn: {
      if (args.size() != 1 || !args[0].IsInt()) {
        return TrapResult(CrashSite::Kind::kBadBuiltinArg);
      }
      int_args = {args[0].num};
      break;
    }
    case Builtin::kPollSignal:
      break;
    case Builtin::kPrintInt: {
      if (args.size() != 1 || !args[0].IsInt()) {
        return TrapResult(CrashSite::Kind::kBadBuiltinArg);
      }
      int_args = {args[0].num};
      break;
    }
    case Builtin::kPrintStr: {
      if (args.size() != 1) {
        return TrapResult(CrashSite::Kind::kBadBuiltinArg);
      }
      if (!ExtractCStringRt(objects, args[0], &kind, &str_arg)) {
        return TrapResult(kind);
      }
      concretize_cells(args[0], static_cast<i64>(str_arg.size()) + 1);
      break;
    }
    default:
      return TrapResult(CrashSite::Kind::kBadBuiltinArg);
  }

  const SyscallOutcome outcome = syscalls->OnSyscall(b, int_args, str_arg, write_data);

  // Deliver read() data into the buffer.
  if (b == Builtin::kRead && !outcome.data.empty()) {
    const Value& buf = args[1];
    i32 obj;
    i64 off;
    if (!CheckMemAccessRt(objects, buf, static_cast<i64>(outcome.data.size()) - 1, &kind, &obj,
                          &off)) {
      // Input larger than buffer: an OOB crash, as native code would corrupt.
      return TrapResult(kind);
    }
    MemObject& m = objects[buf.obj];
    m.Touch(buf.num, static_cast<i64>(outcome.data.size()));
    for (size_t i = 0; i < outcome.data.size(); ++i) {
      m.cells[buf.num + i] = Value::Int(outcome.data[i]);
      if (arena != nullptr && !m.shadows.empty()) {
        m.shadows[buf.num + i] = i < outcome.data_cells.size() && outcome.data_cells[i] >= 0
                                     ? arena->MkVar(outcome.data_cells[i])
                                     : kNoExpr;
      }
    }
  }

  if (want_ret) {
    out.has_ret = true;
    out.ret = Value::Int(outcome.ret);
    out.ret_shadow = arena != nullptr && outcome.ret_cell >= 0 ? arena->MkVar(outcome.ret_cell)
                                                               : kNoExpr;
  }
  return out;
}

}  // namespace retrace
