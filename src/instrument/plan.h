// Instrumentation plans: which branch locations get logged (paper §2.3).
//
// Plans are built from a PlanInputs value, which carries the analysis
// results a method needs *by reference* — the factory for each method
// demands exactly the inputs that method consumes, so "dynamic plan
// without a dynamic analysis" is a compile error rather than a runtime
// Check. Refined plans (src/instrument/refine.h) are first-class: the
// detail_level / provenance fields record how many refinement rounds
// produced a plan and from what.
#ifndef RETRACE_INSTRUMENT_PLAN_H_
#define RETRACE_INSTRUMENT_PLAN_H_

#include <string>
#include <vector>

#include "src/analysis/static_analyzer.h"
#include "src/concolic/engine.h"
#include "src/ir/ir.h"
#include "src/support/dense_bitset.h"

namespace retrace {

enum class InstrumentMethod {
  kDynamic,        // Branches labeled symbolic by dynamic analysis.
  kStatic,         // Branches labeled symbolic by static analysis.
  kDynamicStatic,  // Combination with the dynamic-overrides-static rule.
  kAllBranches,    // Every branch location.
};

const char* InstrumentMethodName(InstrumentMethod method);

struct InstrumentationPlan {
  InstrumentMethod method = InstrumentMethod::kAllBranches;
  DenseBitset branches;  // Instrumented branch ids.
  // Refinement provenance: 0 = straight out of the analyses; each
  // adaptive refinement round (src/instrument/refine.h) bumps the level
  // by one and appends to `provenance`. Both travel with the plan over
  // the wire (job codec, wire v4) so a remote shard reports the same
  // plan identity the coordinator chose.
  u32 detail_level = 0;
  std::string provenance;

  size_t NumInstrumented() const { return branches.Count(); }
  bool Instrumented(i32 branch_id) const {
    return branch_id >= 0 && static_cast<size_t>(branch_id) < branches.size() &&
           branches.Test(branch_id);
  }
  // Instrumented locations restricted to application / library code.
  size_t NumInstrumentedApp(const IrModule& module) const;
};

struct PlanOptions {
  // Ablation: when false, the dynamic analysis' `concrete` label does NOT
  // override the static `symbolic` label in the combined method (the paper
  // argues the override is what makes dynamic+static cheap; this knob
  // quantifies that claim).
  bool dynamic_overrides_static = true;
};

/// \brief The inputs an instrumentation plan is built from.
///
/// Construct through the per-method factories — each takes the analysis
/// results its method consumes by reference, so a missing input is
/// inexpressible. ForMethod is the runtime-checked escape hatch for
/// method-parameterized sweeps (benches iterating over every method);
/// it Check-fails loudly when a required result is absent.
///
/// **Ownership:** borrows the analysis results; they must outlive every
/// BuildPlan/MakePlan call using this value.
class PlanInputs {
 public:
  static PlanInputs AllBranches() {
    return PlanInputs(InstrumentMethod::kAllBranches, nullptr, nullptr);
  }
  static PlanInputs Dynamic(const AnalysisResult& dynamic_result) {
    return PlanInputs(InstrumentMethod::kDynamic, &dynamic_result.labels, nullptr);
  }
  static PlanInputs Static(const StaticAnalysisResult& static_result) {
    return PlanInputs(InstrumentMethod::kStatic, nullptr, &static_result);
  }
  static PlanInputs DynamicStatic(const AnalysisResult& dynamic_result,
                                  const StaticAnalysisResult& static_result) {
    return PlanInputs(InstrumentMethod::kDynamicStatic, &dynamic_result.labels, &static_result);
  }
  // Escape hatch for sweeps parameterized over InstrumentMethod: accepts
  // possibly-null results but Check-fails immediately when `method`
  // needs one that is null — the misuse dies at construction, not at
  // some later BuildPlan.
  static PlanInputs ForMethod(InstrumentMethod method, const AnalysisResult* dynamic_result,
                              const StaticAnalysisResult* static_result);

  InstrumentMethod method() const { return method_; }
  const std::vector<BranchLabel>* dynamic_labels() const { return dynamic_labels_; }
  const StaticAnalysisResult* static_result() const { return static_result_; }

 private:
  PlanInputs(InstrumentMethod method, const std::vector<BranchLabel>* dynamic_labels,
             const StaticAnalysisResult* static_result)
      : method_(method), dynamic_labels_(dynamic_labels), static_result_(static_result) {}

  InstrumentMethod method_;
  const std::vector<BranchLabel>* dynamic_labels_;
  const StaticAnalysisResult* static_result_;
};

// Builds a plan from the inputs' method and analysis results.
InstrumentationPlan BuildPlan(const IrModule& module, const PlanInputs& inputs,
                              const PlanOptions& options = PlanOptions{});

}  // namespace retrace

#endif  // RETRACE_INSTRUMENT_PLAN_H_
