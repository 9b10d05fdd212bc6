#include "src/exec/interp.h"

#include <algorithm>

#include "src/exec/mem_rt.h"

namespace retrace {

Interp::Interp(const IrModule& module, InterpOptions options)
    : module_(module), options_(options) {}

i32 Interp::AllocObject(i64 size, bool is_char) {
  i32 id;
  if (!free_objects_.empty()) {
    id = free_objects_.back();
    free_objects_.pop_back();
  } else {
    id = static_cast<i32>(objects_.size());
    objects_.emplace_back();
  }
  MemObject& obj = objects_[id];
  obj.cells.assign(static_cast<size_t>(size), Value::Int(0));
  if (shadow_on()) {
    obj.shadows.assign(static_cast<size_t>(size), kNoExpr);
  } else {
    obj.shadows.clear();
  }
  obj.alive = true;
  obj.is_char = is_char;
  obj.Reshape();
  return id;
}

void Interp::FreeObject(i32 id) {
  MemObject& obj = objects_[id];
  obj.alive = false;
  ++obj.gen;
  obj.cells.clear();
  obj.shadows.clear();
  obj.dirty = ~u64{0};
  free_objects_.push_back(id);
}

void Interp::ResetObjectPool() {
  free_objects_.clear();
  for (i32 id = static_cast<i32>(objects_.size()) - 1; id >= 0; --id) {
    MemObject& obj = objects_[id];
    if (obj.alive) {
      obj.alive = false;
      ++obj.gen;
    }
    obj.cells.clear();
    obj.shadows.clear();
    obj.dirty = ~u64{0};
    // Descending push: pop_back then hands out ids 0, 1, 2, ... — the
    // same allocation order a freshly constructed interpreter produces.
    free_objects_.push_back(id);
  }
}

Value Interp::EvalOperand(const Operand& op, const Frame& frame) const {
  switch (op.kind) {
    case Operand::Kind::kConstInt:
      return Value::Int(op.imm);
    case Operand::Kind::kSlot:
      return frame.slots[op.index];
    case Operand::Kind::kGlobalSlot:
      return global_slots_[op.index];
    case Operand::Kind::kObjAddr:
      return Value::Ptr(op.index, objects_[op.index].gen, 0);
    case Operand::Kind::kFrameObjAddr: {
      const i32 obj = frame.objects[op.index];
      return Value::Ptr(obj, objects_[obj].gen, 0);
    }
    case Operand::Kind::kNone:
      break;
  }
  FatalError("EvalOperand on kNone");
}

ExprRef Interp::EvalShadow(const Operand& op, const Frame& frame) const {
  switch (op.kind) {
    case Operand::Kind::kSlot:
      return frame.shadows[op.index];
    case Operand::Kind::kGlobalSlot:
      return global_shadows_[op.index];
    default:
      return kNoExpr;
  }
}

void Interp::WriteSlot(const Operand& dst, Frame& frame, Value v, ExprRef shadow) {
  if (dst.kind == Operand::Kind::kSlot) {
    frame.slots[dst.index] = v;
    if (shadow_on()) {
      frame.shadows[dst.index] = shadow;
    }
    return;
  }
  Check(dst.kind == Operand::Kind::kGlobalSlot, "WriteSlot: bad destination");
  global_slots_[dst.index] = v;
  if (shadow_on()) {
    global_shadows_[dst.index] = shadow;
  }
}

void Interp::Concretize(const Operand& op, const Frame& frame) {
  if (pause_listener_ != nullptr && shadow_on()) {
    RecordConcretized(&concretized_, EvalShadow(op, frame));
  }
}

void Interp::Trap(CrashSite::Kind kind, const Instr& instr, const Frame& frame, i64 code) {
  pending_crash_ = CrashSite{kind, frame.fn->index, instr.loc, code};
  has_crash_ = true;
}

bool Interp::CheckMemAccess(const Value& addr, i64 index, const Instr& instr, const Frame& frame,
                            i32* obj, i64* off) {
  CrashSite::Kind kind = CrashSite::Kind::kNone;
  if (!CheckMemAccessRt(objects_, addr, index, &kind, obj, off)) {
    Trap(kind, instr, frame);
    return false;
  }
  return true;
}

namespace {

using SavedObject = Interp::SavedObject;

size_t PageCount(size_t size, u8 page_shift) {
  return (size + (size_t{1} << page_shift) - 1) >> page_shift;
}

// True when `a` and `b` split their cells into the same pages.
bool SamePaging(const SavedObject& a, const SavedObject& b) {
  return a.size == b.size && a.page_shift == b.page_shift && a.shadowed == b.shadowed;
}

// Saves `obj`, sharing with `prev` (its last save, or null) every page
// not dirty since. `arena` signs the copied pages' shadows.
std::shared_ptr<const SavedObject> SaveObject(const MemObject& obj, const SavedObject* prev,
                                              const ExprArena* arena) {
  auto out = std::make_shared<SavedObject>();
  out->size = obj.cells.size();
  out->gen = obj.gen;
  out->alive = obj.alive;
  out->is_char = obj.is_char;
  out->shadowed = !obj.shadows.empty();
  out->page_shift = obj.page_shift;
  const bool share = prev != nullptr && SamePaging(*prev, *out);
  out->pages.resize(PageCount(out->size, out->page_shift));
  for (size_t p = 0; p < out->pages.size(); ++p) {
    if (share && ((obj.dirty >> p) & 1) == 0) {
      out->pages[p] = prev->pages[p];
      continue;
    }
    const size_t lo = p << obj.page_shift;
    const size_t hi = std::min(out->size, lo + (size_t{1} << obj.page_shift));
    auto page = std::make_shared<SavedObject::Page>();
    page->cells.assign(obj.cells.begin() + lo, obj.cells.begin() + hi);
    if (out->shadowed) {
      page->shadows.assign(obj.shadows.begin() + lo, obj.shadows.begin() + hi);
      for (const ExprRef shadow : page->shadows) {
        if (shadow != kNoExpr) {
          page->sig |= arena->VarSig(shadow);
        }
      }
    }
    out->pages[p] = std::move(page);
  }
  return out;
}

// Makes `obj` equal to `target`. `live` is the object's last save or
// restore: pages not dirty since, and shared by `live` and `target`,
// already hold the right cells.
void RestoreObject(const SavedObject& target, const SavedObject* live, MemObject* obj) {
  const bool share = live != nullptr && SamePaging(*live, target);
  obj->cells.resize(target.size);
  obj->shadows.resize(target.shadowed ? target.size : 0);
  obj->gen = target.gen;
  obj->alive = target.alive;
  obj->is_char = target.is_char;
  obj->page_shift = target.page_shift;
  for (size_t p = 0; p < target.pages.size(); ++p) {
    const SavedObject::Page& page = *target.pages[p];
    if (share && ((obj->dirty >> p) & 1) == 0 && live->pages[p] == target.pages[p]) {
      continue;
    }
    const size_t lo = p << target.page_shift;
    std::copy(page.cells.begin(), page.cells.end(), obj->cells.begin() + lo);
    std::copy(page.shadows.begin(), page.shadows.end(), obj->shadows.begin() + lo);
  }
  obj->dirty = 0;
}

}  // namespace

void Interp::Save(State* out) {
  saved_objects_.resize(objects_.size());
  out->objects.resize(objects_.size());
  for (size_t id = 0; id < objects_.size(); ++id) {
    MemObject& obj = objects_[id];
    std::shared_ptr<const SavedObject>& saved = saved_objects_[id];
    if (obj.dirty != 0 || saved == nullptr) {
      saved = SaveObject(obj, saved.get(), arena_);
      obj.dirty = 0;
    }
    out->objects[id] = saved;
  }
  out->free_objects = free_objects_;
  out->global_slots = global_slots_;
  out->global_shadows = global_shadows_;
  saved_frames_.resize(std::min(saved_frames_.size(), frames_low_ > 0 ? frames_low_ - 1 : 0));
  for (size_t i = saved_frames_.size(); i < frames_.size(); ++i) {
    saved_frames_.push_back(std::make_shared<const Frame>(frames_[i]));
  }
  frames_low_ = frames_.size();
  out->frames = saved_frames_;
  out->stats = stats_;
  // The dispatch loop already counted the pause point's instruction; the
  // resumed loop counts it again.
  --out->stats.instrs;
}

void Interp::PatchShadows(const ResumePatch& patch) {
  arena_->StartEvalBatch();
  auto patch_one = [&](Value* value, ExprRef shadow) {
    if (shadow == kNoExpr || (arena_->VarSig(shadow) & patch.mask) == 0 || !value->IsInt()) {
      return false;
    }
    const i64 now = arena_->EvalInBatch(shadow, *patch.values);
    if (now == value->num) {
      return false;
    }
    value->num = now;
    return true;
  };
  for (Frame& frame : frames_) {
    for (size_t i = 0; i < frame.shadows.size(); ++i) {
      patch_one(&frame.slots[i], frame.shadows[i]);
    }
  }
  for (size_t i = 0; i < global_shadows_.size(); ++i) {
    patch_one(&global_slots_[i], global_shadows_[i]);
  }
  for (size_t id = 0; id < objects_.size(); ++id) {
    const SavedObject& saved = *saved_objects_[id];
    MemObject& obj = objects_[id];
    if (!saved.alive || !saved.shadowed) {
      continue;
    }
    for (size_t p = 0; p < saved.pages.size(); ++p) {
      if ((saved.pages[p]->sig & patch.mask) == 0) {
        continue;
      }
      const size_t lo = p << saved.page_shift;
      const size_t hi = std::min(saved.size, lo + (size_t{1} << saved.page_shift));
      for (size_t i = lo; i < hi; ++i) {
        if (patch_one(&obj.cells[i], obj.shadows[i])) {
          obj.Touch(static_cast<i64>(i));
        }
      }
    }
  }
}

RunResult Interp::Resume(const State& from, const ResumePatch& patch) {
  objects_.resize(from.objects.size());
  saved_objects_.resize(from.objects.size());
  for (size_t id = 0; id < from.objects.size(); ++id) {
    MemObject& obj = objects_[id];
    std::shared_ptr<const SavedObject>& saved = saved_objects_[id];
    if (obj.dirty != 0 || saved != from.objects[id]) {
      RestoreObject(*from.objects[id], saved.get(), &obj);
      saved = from.objects[id];
    }
  }
  free_objects_ = from.free_objects;
  global_slots_ = from.global_slots;
  global_shadows_ = from.global_shadows;
  frames_.resize(from.frames.size());
  for (size_t i = 0; i < frames_.size(); ++i) {
    frames_[i] = *from.frames[i];
  }
  saved_frames_ = from.frames;
  frames_low_ = frames_.size();
  stats_ = from.stats;
  if (patch.mask != 0) {
    PatchShadows(patch);
    frames_low_ = 0;  // Patched frames differ from their saved copies.
  }
  concretized_.clear();
  if (options_.external_budget != nullptr) {
    options_.external_budget->Consume(from.budget_steps());
  }
  return Execute();
}

RunResult Interp::Run(const std::vector<std::string>& argv,
                      const std::vector<std::vector<i32>>& argv_cells) {
  // Reset per-run state (object storage is pooled, not reallocated).
  ResetObjectPool();
  frames_.clear();
  saved_frames_.clear();
  frames_low_ = 0;
  stats_ = RunStats{};
  concretized_.clear();

  // Static objects.
  for (const StaticObjectInfo& info : module_.static_objects) {
    const i32 id = AllocObject(info.size, info.is_char);
    MemObject& obj = objects_[id];
    for (size_t i = 0; i < info.init.size() && i < obj.cells.size(); ++i) {
      obj.cells[i] = Value::Int(info.init[i]);
    }
  }
  // Global scalars.
  global_slots_.clear();
  global_shadows_.clear();
  for (const GlobalScalarInfo& g : module_.global_scalars) {
    global_slots_.push_back(Value::Int(g.init));
    global_shadows_.push_back(kNoExpr);
  }

  // argv objects.
  const IrFunction& main_fn = module_.funcs[module_.main_index];
  std::vector<Value> argv_ptrs;
  for (size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    const i32 id = AllocObject(static_cast<i64>(arg.size()) + 1, /*is_char=*/true);
    MemObject& obj = objects_[id];
    for (size_t j = 0; j < arg.size(); ++j) {
      obj.cells[j] = Value::Int(static_cast<u8>(arg[j]));
    }
    if (shadow_on() && i < argv_cells.size()) {
      // Shadows cover the content bytes and, when provided, the NUL cell.
      for (size_t j = 0; j < argv_cells[i].size() && j <= arg.size(); ++j) {
        if (argv_cells[i][j] >= 0) {
          obj.shadows[j] = arena_->MkVar(argv_cells[i][j]);
        }
      }
    }
    argv_ptrs.push_back(Value::Ptr(id, obj.gen, 0));
  }
  const i32 argv_array = AllocObject(static_cast<i64>(argv_ptrs.size()), /*is_char=*/false);
  for (size_t i = 0; i < argv_ptrs.size(); ++i) {
    objects_[argv_array].cells[i] = argv_ptrs[i];
  }

  // Entry frame.
  Frame main_frame;
  main_frame.fn = &main_fn;
  main_frame.slots.assign(main_fn.num_slots, Value::Int(0));
  if (shadow_on()) {
    main_frame.shadows.assign(main_fn.num_slots, kNoExpr);
  }
  for (const FrameObjectInfo& info : main_fn.frame_objects) {
    main_frame.objects.push_back(AllocObject(info.size, info.is_char));
  }
  if (main_fn.num_params == 2) {
    main_frame.slots[0] = Value::Int(static_cast<i64>(argv.size()));
    main_frame.slots[1] = Value::Ptr(argv_array, objects_[argv_array].gen, 0);
  }
  frames_.push_back(std::move(main_frame));
  return Execute();
}

RunResult Interp::Execute() {
  has_crash_ = false;
  abort_requested_ = false;
  exit_requested_ = false;
  exit_code_ = 0;
  RunResult result;
  while (!frames_.empty()) {
    Frame& frame = frames_.back();
    const std::vector<Instr>& instrs = frame.fn->blocks[frame.bb].instrs;
    if (frame.ip >= instrs.size()) {
      result.status = RunResult::Status::kError;
      result.message = "fell off the end of a basic block";
      result.stats = stats_;
      return result;
    }
    const Instr& instr = instrs[frame.ip];

    ++stats_.instrs;
    if (stats_.instrs > options_.max_steps) {
      result.status = RunResult::Status::kBudget;
      result.stats = stats_;
      return result;
    }
    if (options_.external_budget != nullptr && stats_.instrs % kBudgetChunk == 0 &&
        !options_.external_budget->Consume(kBudgetChunk)) {
      result.status = RunResult::Status::kBudget;
      result.stats = stats_;
      return result;
    }

    switch (instr.op) {
      case Opcode::kAssign: {
        Value v = EvalOperand(instr.a, frame);
        ExprRef shadow = shadow_on() ? EvalShadow(instr.a, frame) : kNoExpr;
        if (instr.store_char) {
          if (v.IsInt()) {
            v = Value::Int(static_cast<i64>(static_cast<u8>(v.num)));
            if (shadow != kNoExpr) {
              shadow = arena_->MkUn(ExprOp::kTruncChar, shadow);
            }
          }
        }
        WriteSlot(instr.dst, frame, v, shadow);
        ++frame.ip;
        break;
      }
      case Opcode::kBin: {
        const Value a = EvalOperand(instr.a, frame);
        const Value b = EvalOperand(instr.b, frame);
        Value out;
        ExprRef shadow = kNoExpr;
        if (a.IsInt() && b.IsInt()) {
          if (instr.bin_op == BinaryOp::kDiv || instr.bin_op == BinaryOp::kRem) {
            Concretize(instr.b, frame);
            if (b.num == 0) {
              Trap(CrashSite::Kind::kDivByZero, instr, frame);
              break;
            }
          }
          out = Value::Int(ExprArena::EvalBin(ToExprOp(instr.bin_op), a.num, b.num));
          if (shadow_on()) {
            const ExprRef sa = EvalShadow(instr.a, frame);
            const ExprRef sb = EvalShadow(instr.b, frame);
            if (sa != kNoExpr || sb != kNoExpr) {
              shadow = arena_->MkBin(ToExprOp(instr.bin_op),
                                     sa != kNoExpr ? sa : arena_->MkConst(a.num),
                                     sb != kNoExpr ? sb : arena_->MkConst(b.num));
            }
          }
        } else if (a.IsPtr() && b.IsPtr()) {
          switch (instr.bin_op) {
            case BinaryOp::kEq:
              out = Value::Int(a == b ? 1 : 0);
              break;
            case BinaryOp::kNe:
              out = Value::Int(a == b ? 0 : 1);
              break;
            case BinaryOp::kSub:
            case BinaryOp::kLt:
            case BinaryOp::kLe:
            case BinaryOp::kGt:
            case BinaryOp::kGe: {
              if (a.obj != b.obj || a.gen != b.gen) {
                Trap(CrashSite::Kind::kPtrDomain, instr, frame);
                break;
              }
              if (instr.bin_op == BinaryOp::kSub) {
                out = Value::Int(a.num - b.num);
              } else {
                out = Value::Int(
                    ExprArena::EvalBin(ToExprOp(instr.bin_op), a.num, b.num));
              }
              break;
            }
            default:
              Trap(CrashSite::Kind::kPtrDomain, instr, frame);
              break;
          }
          if (has_crash_) {
            break;
          }
        } else {
          // Mixed pointer/integer: only null comparisons are meaningful.
          const Value& other = a.IsPtr() ? b : a;
          Concretize(a.IsPtr() ? instr.b : instr.a, frame);
          if (instr.bin_op == BinaryOp::kEq) {
            out = Value::Int(0);  // A live pointer never equals an integer.
          } else if (instr.bin_op == BinaryOp::kNe) {
            out = Value::Int(1);
          } else if (other.num == 0 &&
                     (instr.bin_op == BinaryOp::kLt || instr.bin_op == BinaryOp::kLe ||
                      instr.bin_op == BinaryOp::kGt || instr.bin_op == BinaryOp::kGe)) {
            // Relational against null: treat pointer as nonzero address.
            const bool ptr_is_a = a.IsPtr();
            const i64 av = ptr_is_a ? 1 : 0;
            const i64 bv = ptr_is_a ? 0 : 1;
            out = Value::Int(ExprArena::EvalBin(ToExprOp(instr.bin_op), av, bv));
          } else {
            Trap(CrashSite::Kind::kPtrDomain, instr, frame);
            break;
          }
        }
        WriteSlot(instr.dst, frame, out, shadow);
        ++frame.ip;
        break;
      }
      case Opcode::kUn: {
        const Value a = EvalOperand(instr.a, frame);
        Value out;
        ExprRef shadow = kNoExpr;
        if (instr.un_op == IrUnOp::kLogicalNot) {
          out = Value::Int(a.Truthy() ? 0 : 1);
          if (shadow_on() && a.IsInt()) {
            const ExprRef sa = EvalShadow(instr.a, frame);
            if (sa != kNoExpr) {
              shadow = arena_->MkUn(ExprOp::kLogicalNot, sa);
            }
          }
        } else if (a.IsInt()) {
          out = Value::Int(ExprArena::EvalUn(ToExprOp(instr.un_op), a.num));
          if (shadow_on()) {
            const ExprRef sa = EvalShadow(instr.a, frame);
            if (sa != kNoExpr) {
              shadow = arena_->MkUn(ToExprOp(instr.un_op), sa);
            }
          }
        } else {
          Trap(CrashSite::Kind::kPtrDomain, instr, frame);
          break;
        }
        WriteSlot(instr.dst, frame, out, shadow);
        ++frame.ip;
        break;
      }
      case Opcode::kLoad: {
        const Value addr = EvalOperand(instr.a, frame);
        const Value index = EvalOperand(instr.b, frame);
        Concretize(instr.b, frame);
        if (!index.IsInt()) {
          Trap(CrashSite::Kind::kPtrDomain, instr, frame);
          break;
        }
        i32 obj;
        i64 off;
        if (!CheckMemAccess(addr, index.num, instr, frame, &obj, &off)) {
          break;
        }
        const MemObject& m = objects_[obj];
        WriteSlot(instr.dst, frame, m.cells[off],
                  shadow_on() && !m.shadows.empty() ? m.shadows[off] : kNoExpr);
        ++frame.ip;
        break;
      }
      case Opcode::kStore: {
        const Value addr = EvalOperand(instr.a, frame);
        const Value index = EvalOperand(instr.b, frame);
        Concretize(instr.b, frame);
        if (!index.IsInt()) {
          Trap(CrashSite::Kind::kPtrDomain, instr, frame);
          break;
        }
        i32 obj;
        i64 off;
        if (!CheckMemAccess(addr, index.num, instr, frame, &obj, &off)) {
          break;
        }
        Value v = EvalOperand(instr.c, frame);
        ExprRef shadow = shadow_on() ? EvalShadow(instr.c, frame) : kNoExpr;
        MemObject& m = objects_[obj];
        m.Touch(off);
        if (m.is_char && v.IsInt()) {
          v = Value::Int(static_cast<i64>(static_cast<u8>(v.num)));
          if (shadow != kNoExpr) {
            shadow = arena_->MkUn(ExprOp::kTruncChar, shadow);
          }
        }
        m.cells[off] = v;
        if (shadow_on() && !m.shadows.empty()) {
          m.shadows[off] = shadow;
        }
        ++frame.ip;
        break;
      }
      case Opcode::kPtrAdd: {
        const Value addr = EvalOperand(instr.a, frame);
        const Value delta = EvalOperand(instr.b, frame);
        Concretize(instr.b, frame);
        if (!addr.IsPtr() || !delta.IsInt()) {
          Trap(addr.IsPtr() ? CrashSite::Kind::kPtrDomain : CrashSite::Kind::kNullDeref, instr,
               frame);
          break;
        }
        WriteSlot(instr.dst, frame, Value::Ptr(addr.obj, addr.gen, addr.num + delta.num),
                  kNoExpr);
        ++frame.ip;
        break;
      }
      case Opcode::kCall: {
        if (pause_listener_ != nullptr && instr.callee_is_builtin &&
            static_cast<Builtin>(instr.callee) == Builtin::kRead) {
          pause_listener_->BeforeRead();
        }
        if (!ExecCall(instr, frame)) {
          break;  // Crash or exit raised below.
        }
        break;  // ExecCall advanced ip / pushed frame.
      }
      case Opcode::kBr: {
        const Value cond = EvalOperand(instr.a, frame);
        const bool taken = cond.Truthy();
        const ExprRef shadow =
            shadow_on() && cond.IsInt() ? EvalShadow(instr.a, frame) : kNoExpr;
        if (pause_listener_ != nullptr && shadow != kNoExpr) {
          pause_listener_->BeforeBranch(instr.branch_id, taken, shadow);
        }
        ++stats_.branch_execs;
        for (BranchObserver* obs : observers_) {
          if (obs->OnBranch(instr.branch_id, taken, shadow) == BranchObserver::Action::kAbort) {
            abort_requested_ = true;
          }
        }
        if (abort_requested_) {
          break;
        }
        frame.bb = taken ? instr.bb_true : instr.bb_false;
        frame.ip = 0;
        break;
      }
      case Opcode::kJmp: {
        frame.bb = instr.bb_true;
        frame.ip = 0;
        break;
      }
      case Opcode::kRet: {
        Value ret = Value::Int(0);
        ExprRef ret_shadow = kNoExpr;
        if (!instr.a.IsNone()) {
          ret = EvalOperand(instr.a, frame);
          ret_shadow = shadow_on() ? EvalShadow(instr.a, frame) : kNoExpr;
        }
        for (i32 obj : frame.objects) {
          FreeObject(obj);
        }
        const Operand ret_dst = frame.ret_dst;
        const bool ret_dst_char = frame.ret_dst_char;
        frames_.pop_back();
        frames_low_ = std::min(frames_low_, frames_.size());
        if (frames_.empty()) {
          result.status = RunResult::Status::kExit;
          result.exit_code = ret.IsInt() ? ret.num : 0;
          result.stats = stats_;
          return result;
        }
        Frame& caller = frames_.back();
        if (!ret_dst.IsNone()) {
          if (ret_dst_char && ret.IsInt()) {
            ret = Value::Int(static_cast<i64>(static_cast<u8>(ret.num)));
            if (ret_shadow != kNoExpr) {
              ret_shadow = arena_->MkUn(ExprOp::kTruncChar, ret_shadow);
            }
          }
          WriteSlot(ret_dst, caller, ret, ret_shadow);
        }
        ++caller.ip;
        break;
      }
    }

    if (has_crash_) {
      result.status = RunResult::Status::kCrash;
      result.crash = pending_crash_;
      result.stats = stats_;
      return result;
    }
    if (abort_requested_) {
      result.status = RunResult::Status::kAborted;
      result.stats = stats_;
      return result;
    }
    if (exit_requested_) {
      result.status = RunResult::Status::kExit;
      result.exit_code = exit_code_;
      result.stats = stats_;
      return result;
    }
  }
  result.status = RunResult::Status::kError;
  result.message = "empty frame stack";
  result.stats = stats_;
  return result;
}

bool Interp::ExecCall(const Instr& instr, Frame& frame) {
  ++stats_.calls;
  if (instr.callee_is_builtin) {
    return ExecBuiltin(instr, frame);
  }
  if (static_cast<int>(frames_.size()) >= options_.max_call_depth) {
    Trap(CrashSite::Kind::kStackOverflow, instr, frame);
    return false;
  }
  const IrFunction& callee = module_.funcs[instr.callee];
  Frame next;
  next.fn = &callee;
  next.slots.assign(callee.num_slots, Value::Int(0));
  if (shadow_on()) {
    next.shadows.assign(callee.num_slots, kNoExpr);
  }
  for (size_t i = 0; i < instr.args.size(); ++i) {
    Value v = EvalOperand(instr.args[i], frame);
    ExprRef shadow = shadow_on() ? EvalShadow(instr.args[i], frame) : kNoExpr;
    if (i < callee.param_types.size() && callee.param_types[i].kind == TypeKind::kChar &&
        v.IsInt()) {
      v = Value::Int(static_cast<i64>(static_cast<u8>(v.num)));
      if (shadow != kNoExpr) {
        shadow = arena_->MkUn(ExprOp::kTruncChar, shadow);
      }
    }
    next.slots[i] = v;
    if (shadow_on()) {
      next.shadows[i] = shadow;
    }
  }
  for (const FrameObjectInfo& info : callee.frame_objects) {
    next.objects.push_back(AllocObject(info.size, info.is_char));
  }
  next.ret_dst = instr.dst;
  next.ret_dst_char = false;
  frames_.push_back(std::move(next));
  return true;
}

bool Interp::ExecBuiltin(const Instr& instr, Frame& frame) {
  ++stats_.syscalls;
  const Builtin b = static_cast<Builtin>(instr.callee);
  std::vector<Value> args;
  args.reserve(instr.args.size());
  for (const Operand& op : instr.args) {
    args.push_back(EvalOperand(op, frame));
    Concretize(op, frame);
  }

  const BuiltinRtResult out =
      ExecBuiltinRt(b, args, /*want_ret=*/!instr.dst.IsNone(), objects_, arena_, syscalls_,
                    pause_listener_ != nullptr && shadow_on() ? &concretized_ : nullptr);
  switch (out.status) {
    case BuiltinRtResult::Status::kTrap:
      Trap(out.trap_kind, instr, frame, out.trap_code);
      return false;
    case BuiltinRtResult::Status::kStall:
      return false;
    case BuiltinRtResult::Status::kExit:
      exit_requested_ = true;
      exit_code_ = out.exit_code;
      return true;
    case BuiltinRtResult::Status::kOk:
      break;
  }
  if (out.has_ret) {
    WriteSlot(instr.dst, frame, out.ret, out.ret_shadow);
  }
  ++frame.ip;
  return true;
}

}  // namespace retrace
