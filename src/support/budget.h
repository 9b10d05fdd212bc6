// Execution budgets: wall-clock and step limits for analyses and replay.
//
// The paper cuts off dynamic analysis after a fixed time (1h for LC, 2h for
// HC coverage on the uServer) and allots 1h for bug reproduction. Budgets
// here support both wall time and deterministic step counts so tests can be
// exact while benches use time.
#ifndef RETRACE_SUPPORT_BUDGET_H_
#define RETRACE_SUPPORT_BUDGET_H_

#include <chrono>
#include <limits>

#include "src/support/common.h"

namespace retrace {

class Budget {
 public:
  // Unlimited budget.
  Budget() = default;

  static Budget Steps(u64 max_steps);
  static Budget Millis(i64 wall_ms);
  static Budget StepsAndMillis(u64 max_steps, i64 wall_ms);

  // Consumes `n` steps and reports whether the budget still has room.
  bool Consume(u64 n = 1);

  bool Exhausted() const;
  // True when `n` more steps would still leave room (the deadline is not
  // consulted).
  bool Affords(u64 n) const { return steps_used_ + n < max_steps_; }
  u64 steps_used() const { return steps_used_; }
  u64 max_steps() const { return max_steps_; }

 private:
  u64 max_steps_ = std::numeric_limits<u64>::max();
  u64 steps_used_ = 0;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace retrace

#endif  // RETRACE_SUPPORT_BUDGET_H_
