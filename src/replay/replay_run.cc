#include "src/replay/replay_run.h"

#include <algorithm>
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
      cells_(module, report.shape) {}

ReplayRunner::~ReplayRunner() = default;

ReplayRun ReplayRunner::Run(const std::vector<i64>& model, size_t start_depth) {
  // The deepest checkpoint the rule admits, among those the budget could
  // have paid the steps before without running out.
  ResumeRule rule(cells_.layout(), *arena_, model);
  size_t depth = 0;
  while (depth < depth_ &&
         (limits_.budget == nullptr ||
          limits_.budget->Affords(entries_[depth].run.exec.budget_steps())) &&
         rule.Admit(entries_[depth].run)) {
    ++depth;
  }
  depth_ = depth;  // Deeper checkpoints are off this run's path.
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

  CellRunConfig config;
  config.model = model;
  config.arena = arena_;
  config.observers = {&observer};
  if (limits_.cancel != nullptr) {
    config.observers.push_back(limits_.cancel);
  }
  config.replay_log = limits_.syscall_log;
  config.max_steps = limits_.max_steps;
  config.external_budget = limits_.budget;
  config.checkpoints = this;
  if (from != nullptr) {
    config.resume_from = &from->run;
    config.resume_delta = rule.Delta();
  }

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
