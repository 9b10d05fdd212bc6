#include "src/replay/replay_run.h"

#include <algorithm>
#include <bitset>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace retrace {

ReplayFailureProfile FailureAccum::ToProfile() const {
  ReplayFailureProfile profile;
  for (size_t id = 0; id < blind_execs.size(); ++id) {
    if (blind_execs[id] == 0 && deaths_concrete[id] == 0 && deaths_exhausted[id] == 0 &&
        deaths_wrong_crash[id] == 0) {
      continue;
    }
    profile.branches.push_back(BranchFailureCounts{static_cast<u32>(id), deaths_concrete[id],
                                                   deaths_exhausted[id], deaths_wrong_crash[id],
                                                   blind_execs[id]});
  }
  profile.deaths_unattributed = unattributed;
  return profile;
}

namespace {

// RETRACE_DEBUG_REPLAY, read once per process: an observer is built for
// every replay run, thousands per search.
bool DebugReplayEnabled() {
  static const bool enabled = std::getenv("RETRACE_DEBUG_REPLAY") != nullptr;
  return enabled;
}

}  // namespace

// Branch observer implementing the four replay cases of paper §3.1.
class ReplayObserver : public BranchObserver {
 public:
  ReplayObserver(const InstrumentationPlan& plan, const BitVec& log, FailureAccum* failures)
      : plan_(plan), log_(log), failures_(failures) {}

  Action OnBranch(i32 branch_id, bool taken, ExprRef cond_shadow) override {
    const bool instrumented = plan_.Instrumented(branch_id);
    const bool symbolic = cond_shadow != kNoExpr;
    if (!instrumented) {
      if (symbolic) {
        // Case 1: both directions remain explorable. This is also where
        // the search is blind — the log cannot check the direction — so
        // the telemetry layer remembers the most recent such branch as
        // the attribution point for an off-log death later in the run.
        path.flippable.push_back(path.trace.size());
        path.blind_branches.push_back(branch_id);
        path.trace.push_back(Constraint{cond_shadow, taken});
        path.bits_at.push_back(path.cursor);
        path.last_blind_branch = branch_id;
        if (failures_ != nullptr) {
          failures_->BlindExec(branch_id);
        }
      }
      // Case 4: nothing to do.
      return Action::kContinue;
    }
    if (path.cursor >= log_.size()) {
      // The recorded execution ended (it crashed); running past the log on
      // an instrumented branch means this path already diverged.
      path.log_exhausted = true;
      return Action::kAbort;
    }
    const bool logged = log_.GetBit(path.cursor++);
    if (symbolic) {
      if (taken == logged) {
        path.trace.push_back(Constraint{cond_shadow, taken});  // Case 2a.
        path.bits_at.push_back(path.cursor);
        return Action::kContinue;
      }
      // Case 2b: append the constraint forcing the *logged* direction and
      // abort; the engine pushes this set so the next input follows the log.
      path.trace.push_back(Constraint{cond_shadow, logged});
      path.bits_at.push_back(path.cursor);
      path.forced_direction = true;
      return Action::kAbort;
    }
    if (taken == logged) {
      return Action::kContinue;  // Case 3a.
    }
    path.concrete_mismatch = true;  // Case 3b.
    if (DebugReplayEnabled()) {
      std::fprintf(stderr, "[replay] 3b concrete mismatch branch=%d cursor=%zu taken=%d\n",
                   branch_id, path.cursor - 1, taken ? 1 : 0);
    }
    return Action::kAbort;
  }

  ReplayPath path;

 private:
  const InstrumentationPlan& plan_;
  const BitVec& log_;
  FailureAccum* failures_ = nullptr;
};

ReplayRunner::ReplayRunner(const IrModule& module, const InstrumentationPlan& plan,
                           const BugReport& report, ExprArena* arena, FailureAccum* failures,
                           ReplayRunLimits limits)
    : plan_(plan),
      report_(report),
      arena_(arena),
      failures_(failures),
      limits_(limits),
      cells_(module, report.shape),
      rule_(cells_.layout(), *arena) {}

ReplayRunner::~ReplayRunner() = default;

void ReplayRunner::Sync() {
  for (; synced_ < depth_; ++synced_) {
    const RunCheckpoint& ckpt = entries_[synced_].run;
    u64 sig = 0;
    for (const RunCheckpoint::ConsumedCell& c : ckpt.consumed) {
      sig |= ExprArena::VarBit(c.cell);
      if (path_cell_.size() <= static_cast<size_t>(c.cell)) {
        path_cell_.resize(static_cast<size_t>(c.cell) + 1);
      }
      PathCell& cell = path_cell_[c.cell];
      if (cell.count++ == 0) {
        path_cells_.push_back(c.cell);
      }
      records_.push_back(PathRecord{c.cell, cell.newest, first_serial_ + synced_, c.value});
      cell.newest = static_cast<i32>(records_.size() - 1);
      cell.value = c.value;
    }
    for (const ExprRef shadow : ckpt.concretized) {
      sig |= arena_->VarSig(shadow);
    }
    for (const Constraint& branch : ckpt.branches) {
      sig |= arena_->VarSig(branch.expr);
    }
    sig_.push_back(sig);
  }
}

size_t ReplayRunner::EntryOf(const PathRecord& record) const {
  // Records of checkpoints folded into the first one belong to it.
  return record.serial > first_serial_ ? static_cast<size_t>(record.serial - first_serial_) : 0;
}

void ReplayRunner::Truncate(size_t depth) {
  // Records leave in the reverse of the order Sync added them, so a
  // cell's first record leaves last, and with it the cell.
  while (!records_.empty() && EntryOf(records_.back()) >= depth) {
    const PathRecord& record = records_.back();
    PathCell& cell = path_cell_[record.cell];
    cell.newest = record.older;
    if (record.older >= 0) {
      cell.value = records_[record.older].value;
    }
    if (--cell.count == 0) {
      path_cells_.pop_back();
    }
    records_.pop_back();
  }
  synced_ = std::min(synced_, depth);
  sig_.resize(synced_);
  depth_ = depth;
}

ReplayRun ReplayRunner::Run(const std::vector<i64>& model, size_t start_depth) {
  // The deepest checkpoint the rule admits, among those the budget could
  // have paid the steps before without running out (budget steps grow
  // along the path).
  Sync();
  size_t depth = depth_;
  if (limits_.budget != nullptr) {
    const auto end = entries_.begin() + static_cast<std::ptrdiff_t>(depth_);
    depth = static_cast<size_t>(
        std::partition_point(entries_.begin(), end,
                             [&](const Entry& e) {
                               return limits_.budget->Affords(e.run.exec.budget_steps());
                             }) -
        entries_.begin());
  }
  // Δ: the cells whose newest record on the path holds another value
  // than the model gives them. The newest records are the values of the
  // run that took the deepest checkpoint, and the rule admitted that run
  // at its start, so with Δ empty it admits every checkpoint (the budget
  // aside). Only Δ can make it refuse: each Δ cell's records are offered
  // to the rule, and while a record puts a stream byte in Δ, until its
  // next record, so is every checkpoint whose own signature meets the
  // byte's bit. The rule admits the others unchanged.
  ResumeRule& rule = rule_;
  rule.Start(model);
  const i32 num_static = cells_.layout().num_static();
  std::bitset<kMaxCheckpoints> offered;
  // Stream bytes outside Δ with older records, which may hold another
  // value: the resume patches those if it starts short of their newest.
  std::vector<i32>& older = older_scratch_;
  older.clear();
  for (const i32 cell : path_cells_) {
    const PathCell& pc = path_cell_[cell];
    const bool stream = cell < num_static;
    const i64 value = stream ? rule.values()[cell] : 0;
    if (!stream) {
      // A syscall result is held to the model exactly; branches after it
      // evaluate it at the value the path consumed.
      rule.Pin(cell, pc.value);
      if (static_cast<size_t>(cell) < model.size() && model[cell] == pc.value) {
        continue;
      }
    } else if (value == pc.value) {
      if (pc.count > 1) {
        older.push_back(cell);
      }
      continue;
    }
    size_t next = depth;  // Entry of the cell's next newer record.
    for (i32 r = pc.newest; r >= 0; r = records_[r].older) {
      const size_t at = EntryOf(records_[r]);
      if (at < depth) {
        offered.set(at);
      }
      if (stream && records_[r].value != value) {
        const u64 bit = ExprArena::VarBit(cell);
        for (size_t k = at + 1; k < next; ++k) {
          if ((sig_[k] & bit) != 0) {
            offered.set(k);
          }
        }
      }
      next = std::min(next, at);
    }
  }
  signature_hits_ += offered.count();
  for (size_t k = 0; k < depth; ++k) {
    if (!offered.test(k)) {
      continue;
    }
    ++exact_checks_;
    if (!rule.Admit(entries_[k].run)) {
      depth = k;
      break;
    }
  }
  const bool truncated = depth < depth_;
  Truncate(depth);  // Deeper checkpoints are off this run's path.
  // What the resume patches: the stream bytes whose newest record, now
  // that the resume checkpoint is the deepest, holds another value than
  // the model's. The rule's Δ has those of Δ; short of the deepest
  // checkpoint the bytes with older records may add to them.
  std::vector<i32>& patch = config_.resume_delta;
  patch.clear();
  if (depth > 0) {
    patch = rule.Delta();
    for (size_t i = 0; truncated && i < older.size(); ++i) {
      const PathCell& pc = path_cell_[older[i]];
      if (pc.count > 0 && pc.value != rule.values()[older[i]]) {
        patch.push_back(older[i]);
      }
    }
  }
  // The run may fold `from` off a full stack, so read it up front.
  const Entry* from = depth > 0 ? &entries_[depth - 1] : nullptr;
  const u64 skipped = from != nullptr ? from->run.exec.stats.instrs : 0;
  const bool at_branch = from != nullptr && from->run.at_branch;

  ReplayObserver observer(plan_, report_.branch_log, failures_);
  flip_at_ = kNotYet;
  if (from != nullptr) {
    const Mark& mark = from->mark;
    ReplayPath& path = observer.path;
    auto prefix = [](auto& out, const auto& stacked, size_t len) {
      out.assign(stacked.begin(), stacked.begin() + static_cast<std::ptrdiff_t>(len));
    };
    prefix(path.trace, path_.trace, mark.trace_len);
    prefix(path.bits_at, path_.bits_at, mark.trace_len);
    prefix(path.flippable, path_.flippable, mark.flippable_len);
    prefix(path.blind_branches, path_.blind_branches, mark.flippable_len);
    path.cursor = mark.cursor;
    path.last_blind_branch = mark.last_blind_branch;
    if (failures_ != nullptr) {
      for (i32 branch_id : path.blind_branches) {
        failures_->BlindExec(branch_id);
      }
    }
    ++resumed_runs_;
    instrs_skipped_ += skipped;
    if (at_branch) {
      ++resumed_at_branch_;
      if (mark.trace_len + 1 == start_depth) {
        flip_at_ = skipped;  // Resumed at the flipped branch itself.
      }
    }
  }

  // One config for every run, so that its vectors keep their storage.
  CellRunConfig& config = config_;
  config.model.assign(model.begin(), model.end());
  config.arena = arena_;
  config.observers.assign(1, &observer);
  if (limits_.cancel != nullptr) {
    config.observers.push_back(limits_.cancel);
  }
  config.replay_log = limits_.syscall_log;
  config.max_steps = limits_.max_steps;
  config.external_budget = limits_.budget;
  config.checkpoints = this;
  config.resume_from = from != nullptr ? &from->run : nullptr;

  ReplayRun run;
  observer_ = &observer;
  start_depth_ = start_depth;
  run.out = cells_.Run(config);
  observer_ = nullptr;
  run.path = std::move(observer.path);
  run.resumed_at = from != nullptr ? static_cast<i64>(skipped) : -1;
  run.resumed_at_branch = at_branch;
  if (start_depth > 0) {
    run.instrs_before_flip =
        (flip_at_ != kNotYet ? flip_at_ : run.out.result.stats.instrs) - skipped;
    instrs_before_flip_ += run.instrs_before_flip;
  }
  return run;
}

RunCheckpoint* ReplayRunner::AtPause(const PausePoint& at) {
  Sync();  // The previous checkpoint's records are complete by now.
  const ReplayPath& live = observer_->path;
  if (at.at_branch) {
    // The branch is about to record trace entry live.trace.size(), unless
    // it finds the log exhausted.
    const size_t index = live.trace.size();
    if (index + 1 == start_depth_ && flip_at_ == kNotYet) {
      flip_at_ = at.instrs;
    }
    const bool publishes =
        plan_.Instrumented(at.branch_id)
            ? live.cursor < report_.branch_log.size() &&
                  at.taken != report_.branch_log.GetBit(live.cursor)  // Case 2b.
            : index >= start_depth_;                                  // Case 1.
    if (!publishes) {
      return nullptr;
    }
  }
  if (depth_ == kMaxCheckpoints) {
    // Full: fold the shallowest checkpoint into the next one. A pending
    // that flips before it starts at main, which costs only the short
    // prefix up to its flip.
    // Each fold appends only `next`'s own records to the folded prefix.
    RunCheckpoint& first = entries_[0].run;
    RunCheckpoint& next = entries_[1].run;
    auto fold = [](auto& prefix, auto& records) {
      prefix.insert(prefix.end(), std::make_move_iterator(records.begin()),
                    std::make_move_iterator(records.end()));
      records.swap(prefix);
    };
    fold(first.consumed, next.consumed);
    fold(first.concretized, next.concretized);
    fold(first.branches, next.branches);
    // A larger model size only refuses more syscall results (ResumeRule).
    next.model_size = std::max(next.model_size, first.model_size);
    entries_.pop_front();
    --depth_;
    // Both were synced; their records stay on the path.
    sig_[1] |= sig_[0];
    sig_.erase(sig_.begin());
    ++first_serial_;
    --synced_;
  }
  // path_ holds the path up to the previous checkpoint; extend it with
  // what the run observed since.
  const Mark prev = depth_ > 0 ? entries_[depth_ - 1].mark : Mark{};
  auto extend = [](auto& stacked, const auto& observed, size_t len) {
    stacked.resize(len);
    stacked.insert(stacked.end(), observed.begin() + static_cast<std::ptrdiff_t>(len),
                   observed.end());
  };
  extend(path_.trace, live.trace, prev.trace_len);
  extend(path_.bits_at, live.bits_at, prev.trace_len);
  extend(path_.flippable, live.flippable, prev.flippable_len);
  extend(path_.blind_branches, live.blind_branches, prev.flippable_len);
  if (entries_.size() == depth_) {
    entries_.emplace_back();
  }
  Entry& entry = entries_[depth_++];
  entry.mark = Mark{live.trace.size(), live.flippable.size(), live.cursor, live.last_blind_branch};
  return &entry.run;
}

}  // namespace retrace
