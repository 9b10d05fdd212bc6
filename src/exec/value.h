// Runtime value model for the IR interpreter.
//
// A value is a 64-bit integer or a pointer into a memory object
// (object id, generation, element offset). Generations catch use of
// dangling pointers after frame objects die. The null pointer is the
// integer 0, as in C source.
#ifndef RETRACE_EXEC_VALUE_H_
#define RETRACE_EXEC_VALUE_H_

#include <string>
#include <vector>

#include "src/solver/expr.h"
#include "src/support/common.h"

namespace retrace {

struct Value {
  enum class Kind : u8 { kInt, kPtr };
  Kind kind = Kind::kInt;
  i32 obj = -1;
  u32 gen = 0;
  i64 num = 0;  // Integer value, or pointer element offset.

  static Value Int(i64 v) { return Value{Kind::kInt, -1, 0, v}; }
  static Value Ptr(i32 obj, u32 gen, i64 off) { return Value{Kind::kPtr, obj, gen, off}; }

  bool IsInt() const { return kind == Kind::kInt; }
  bool IsPtr() const { return kind == Kind::kPtr; }
  bool Truthy() const { return IsPtr() || num != 0; }

  bool operator==(const Value&) const = default;
  std::string ToString() const;
};

// One memory object: a run of cells plus (when shadow tracking is on) a
// parallel run of shadow expressions.
struct MemObject {
  std::vector<Value> cells;
  std::vector<ExprRef> shadows;  // Sized with cells only in shadow mode.
  u32 gen = 1;
  bool alive = false;
  bool is_char = false;
  // Change tracking for Interp::Save, which copies only what changed:
  // the cells form at most 64 pages of 2^page_shift cells, and `dirty`
  // has a bit for each page written since the object was last saved or
  // restored. Every bit is set when the object itself changed (allocated,
  // freed or reset).
  u8 page_shift = kMinPageShift;
  u64 dirty = ~u64{0};

  static constexpr u8 kMinPageShift = 6;

  void Touch(i64 off) { dirty |= u64{1} << (off >> page_shift); }
  void Touch(i64 first, i64 count) {
    for (i64 page = first >> page_shift; page <= (first + count - 1) >> page_shift; ++page) {
      dirty |= u64{1} << page;
    }
  }
  // After `cells` was resized: re-pages the object and marks it changed.
  void Reshape() {
    page_shift = kMinPageShift;
    while ((cells.size() >> page_shift) >= 64) {
      ++page_shift;
    }
    dirty = ~u64{0};
  }
};

// Where and why a run crashed. Crash sites compare by location, which is
// how the pipeline decides that a reproduced execution hit "the same bug".
struct CrashSite {
  enum class Kind {
    kNone,
    kExplicit,      // crash(code) builtin — the injected SIGSEGV stand-in.
    kOutOfBounds,   // Load/store outside an object.
    kNullDeref,     // Deref of integer (null) value.
    kDivByZero,
    kDangling,      // Access to a dead frame object.
    kPtrDomain,     // Invalid pointer arithmetic/comparison.
    kBadBuiltinArg, // Builtin invoked with an unusable argument.
    kStackOverflow,
  };
  Kind kind = Kind::kNone;
  i32 func = -1;
  SourceLoc loc;
  i64 code = 0;

  bool SameSite(const CrashSite& other) const {
    return kind == other.kind && func == other.func && loc == other.loc;
  }
  std::string ToString() const;
};

struct RunStats {
  u64 instrs = 0;
  u64 branch_execs = 0;
  u64 calls = 0;
  u64 syscalls = 0;
};

struct RunResult {
  enum class Status {
    kExit,     // Program returned from main or called exit().
    kCrash,    // Trap or crash() builtin; see `crash`.
    kAborted,  // A branch observer requested abort (replay mismatch).
    kBudget,   // Step/time budget exhausted.
    kError,    // Internal interpreter error (bug in retrace or the IR).
  };
  Status status = Status::kExit;
  i64 exit_code = 0;
  CrashSite crash;
  RunStats stats;
  std::string message;

  bool Crashed() const { return status == Status::kCrash; }
};

}  // namespace retrace

#endif  // RETRACE_EXEC_VALUE_H_
