// Branch trace recorder: the user-site instrumentation (paper §2.3/§4).
//
// One bit per instrumented branch execution, packed into a 4 KB buffer that
// is flushed to the log sink when full — the paper's exact scheme (no
// compression, no per-branch program counter, 4 KB buffer to amortize disk
// writes). The recorder doubles as the overhead model: the work done per
// instrumented branch here is what the CPU-time benchmarks measure.
#ifndef RETRACE_INSTRUMENT_RECORDER_H_
#define RETRACE_INSTRUMENT_RECORDER_H_

#include <array>
#include <vector>

#include "src/exec/interp.h"
#include "src/instrument/plan.h"
#include "src/support/bitvec.h"

namespace retrace {

class BranchTraceRecorder : public BranchObserver {
 public:
  explicit BranchTraceRecorder(const InstrumentationPlan& plan) : plan_(plan) {}

  Action OnBranch(i32 branch_id, bool taken, ExprRef /*cond_shadow*/) override {
    if (plan_.Instrumented(branch_id)) {
      RecordBit(taken);
    }
    return Action::kContinue;
  }

  // Inlined hot path: set one bit, flush on full buffer.
  void RecordBit(bool taken) {
    if (taken) {
      buffer_[bit_count_ / 8] = static_cast<u8>(buffer_[bit_count_ / 8] | (1u << (bit_count_ % 8)));
    }
    ++bit_count_;
    ++total_bits_;
    if (bit_count_ == kBufferBits) {
      Flush(kBufferBytes);
    }
  }

  // Finalizes the log: flushes the partial buffer and returns the bits.
  BitVec TakeLog();

  u64 flushes() const { return flushes_; }
  u64 bits_recorded() const { return total_bits_; }
  // Log size on the wire (whole bytes).
  u64 bytes_logged() const { return (total_bits_ + 7) / 8; }

 private:
  static constexpr size_t kBufferBytes = 4096;
  static constexpr size_t kBufferBits = kBufferBytes * 8;

  void Flush(size_t bytes);

  const InstrumentationPlan& plan_;
  std::array<u8, kBufferBytes> buffer_{};
  size_t bit_count_ = 0;
  u64 total_bits_ = 0;
  u64 flushes_ = 0;
  std::vector<u8> sink_;  // The "disk": flushed log pages.
};

// Observer counting instrumented-branch executions without recording; used
// to attribute overhead (executions are proportional to CPU cost).
class InstrumentedExecCounter : public BranchObserver {
 public:
  explicit InstrumentedExecCounter(const InstrumentationPlan& plan) : plan_(plan) {}

  Action OnBranch(i32 branch_id, bool /*taken*/, ExprRef /*cond_shadow*/) override {
    if (plan_.Instrumented(branch_id)) {
      ++count_;
    }
    return Action::kContinue;
  }

  u64 count() const { return count_; }

 private:
  const InstrumentationPlan& plan_;
  u64 count_ = 0;
};

}  // namespace retrace

#endif  // RETRACE_INSTRUMENT_RECORDER_H_
