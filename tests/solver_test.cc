#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <tuple>
#include <vector>

#include "src/solver/solver.h"
#include "src/support/rng.h"

namespace retrace {
namespace {

TEST(ExprTest, ConstantFolding) {
  ExprArena arena;
  const ExprRef e = arena.MkBin(ExprOp::kAdd, arena.MkConst(2), arena.MkConst(3));
  ASSERT_TRUE(arena.IsConst(e));
  EXPECT_EQ(arena.ConstValue(e), 5);
  const ExprRef cmp = arena.MkBin(ExprOp::kLt, arena.MkConst(2), arena.MkConst(3));
  EXPECT_EQ(arena.ConstValue(cmp), 1);
}

TEST(ExprTest, HashConsing) {
  ExprArena arena;
  const ExprRef a = arena.MkBin(ExprOp::kAdd, arena.MkVar(0), arena.MkConst(1));
  const ExprRef b = arena.MkBin(ExprOp::kAdd, arena.MkVar(0), arena.MkConst(1));
  EXPECT_EQ(a, b);
}

// One Mk* call of a random build sequence; operands index earlier steps.
struct MkStep {
  int kind = 0;  // 0 const, 1 var, 2 unary, 3 binary.
  ExprOp op = ExprOp::kConst;
  i64 value = 0;
  size_t a = 0;
  size_t b = 0;
};

std::vector<MkStep> RandomMkSequence(size_t steps) {
  constexpr ExprOp kUnary[] = {ExprOp::kNeg, ExprOp::kBitNot, ExprOp::kLogicalNot,
                               ExprOp::kTruncChar};
  constexpr ExprOp kBinary[] = {ExprOp::kAdd, ExprOp::kSub, ExprOp::kMul, ExprOp::kAnd,
                                ExprOp::kXor, ExprOp::kShl, ExprOp::kEq,  ExprOp::kLt,
                                ExprOp::kGe,  ExprOp::kRem};
  Rng rng(0xc0de);
  std::vector<MkStep> seq;
  for (size_t i = 0; i < steps; ++i) {
    MkStep step;
    step.kind = i < 8 ? static_cast<int>(i % 2) : static_cast<int>(rng.NextBelow(4));
    switch (step.kind) {
      case 0:
        step.value = rng.NextInRange(-500, 3000);
        break;
      case 1:
        step.value = rng.NextInRange(0, 400);
        break;
      case 2:
        step.op = kUnary[rng.NextBelow(std::size(kUnary))];
        step.a = rng.NextBelow(i);
        break;
      default:
        step.op = kBinary[rng.NextBelow(std::size(kBinary))];
        step.a = rng.NextBelow(i);
        step.b = rng.NextBelow(i);
        break;
    }
    seq.push_back(step);
  }
  return seq;
}

ExprRef ApplyMkStep(ExprArena* arena, const MkStep& step, const std::vector<ExprRef>& refs) {
  switch (step.kind) {
    case 0:
      return arena->MkConst(step.value);
    case 1:
      return arena->MkVar(static_cast<i32>(step.value));
    case 2:
      return arena->MkUn(step.op, refs[step.a]);
    default:
      return arena->MkBin(step.op, refs[step.a], refs[step.b]);
  }
}

// The open-addressing intern table, across several doublings (2048 slots
// hold 1024 nodes; the sequence interns well over 8192): refs are dense
// and handed out in creation order, re-making any node returns its
// original ref without growing the arena, no node is stored twice, and
// structural hashes match a fresh arena that built other nodes first.
TEST(ExprTest, InternTableKeepsRefsAcrossGrowth) {
  const std::vector<MkStep> seq = RandomMkSequence(30'000);
  ExprArena arena;
  std::vector<ExprRef> refs;
  for (const MkStep& step : seq) {
    const size_t before = arena.size();
    const ExprRef ref = ApplyMkStep(&arena, step, refs);
    ASSERT_GE(ref, 0);
    if (arena.size() != before) {
      ASSERT_EQ(arena.size(), before + 1);
      ASSERT_EQ(static_cast<size_t>(ref), before);  // New nodes take the next ref.
    } else {
      ASSERT_LT(static_cast<size_t>(ref), before);
    }
    refs.push_back(ref);
  }
  ASSERT_GT(arena.size(), 8192u);

  std::set<std::tuple<ExprOp, ExprRef, ExprRef, i64>> distinct;
  for (size_t ref = 0; ref < arena.size(); ++ref) {
    const ExprNode& n = arena.node(static_cast<ExprRef>(ref));
    distinct.emplace(n.op, n.a, n.b, n.imm);
  }
  EXPECT_EQ(distinct.size(), arena.size());

  const size_t size = arena.size();
  std::vector<ExprRef> again;
  for (size_t i = 0; i < seq.size(); ++i) {
    again.push_back(ApplyMkStep(&arena, seq[i], again));
    ASSERT_EQ(again.back(), refs[i]) << "step " << i;
  }
  EXPECT_EQ(arena.size(), size);

  ExprArena fresh;
  for (i32 v = 0; v < 777; ++v) {
    fresh.MkBin(ExprOp::kOr, fresh.MkVar(1000 + v), fresh.MkConst(v));  // Shifts every ref.
  }
  std::vector<ExprRef> fresh_refs;
  for (const MkStep& step : seq) {
    fresh_refs.push_back(ApplyMkStep(&fresh, step, fresh_refs));
  }
  for (size_t i = 0; i < seq.size(); i += 7) {
    ASSERT_EQ(arena.StructuralHash(refs[i]), fresh.StructuralHash(fresh_refs[i])) << "step " << i;
  }
}

TEST(ExprTest, Identities) {
  ExprArena arena;
  const ExprRef x = arena.MkVar(3);
  EXPECT_EQ(arena.MkBin(ExprOp::kAdd, x, arena.MkConst(0)), x);
  EXPECT_EQ(arena.MkBin(ExprOp::kMul, x, arena.MkConst(1)), x);
  EXPECT_TRUE(arena.IsConst(arena.MkBin(ExprOp::kMul, x, arena.MkConst(0))));
  EXPECT_TRUE(arena.IsConst(arena.MkBin(ExprOp::kSub, x, x)));
  EXPECT_EQ(arena.ConstValue(arena.MkBin(ExprOp::kEq, x, x)), 1);
}

TEST(ExprTest, EvalWithAssignment) {
  ExprArena arena;
  // (v0 * 10 + v1) == 42
  const ExprRef e = arena.MkBin(
      ExprOp::kEq,
      arena.MkBin(ExprOp::kAdd, arena.MkBin(ExprOp::kMul, arena.MkVar(0), arena.MkConst(10)),
                  arena.MkVar(1)),
      arena.MkConst(42));
  EXPECT_EQ(arena.Eval(e, {4, 2}), 1);
  EXPECT_EQ(arena.Eval(e, {4, 3}), 0);
}

TEST(ExprTest, DivRemTotality) {
  EXPECT_EQ(ExprArena::EvalBin(ExprOp::kDiv, 5, 0), 0);
  EXPECT_EQ(ExprArena::EvalBin(ExprOp::kRem, 5, 0), 0);
  EXPECT_EQ(ExprArena::EvalBin(ExprOp::kDiv, INT64_MIN, -1), INT64_MIN);
}

TEST(ExprTest, CollectVarsDeduplicates) {
  ExprArena arena;
  const ExprRef e = arena.MkBin(ExprOp::kAdd, arena.MkVar(2),
                                arena.MkBin(ExprOp::kMul, arena.MkVar(2), arena.MkVar(5)));
  std::vector<i32> vars;
  arena.CollectVars(e, &vars);
  ASSERT_EQ(vars.size(), 2u);
}

TEST(ExprTest, TruncCharFoldsAndCollapses) {
  ExprArena arena;
  EXPECT_EQ(arena.ConstValue(arena.MkUn(ExprOp::kTruncChar, arena.MkConst(300))), 44);
  const ExprRef t = arena.MkUn(ExprOp::kTruncChar, arena.MkVar(0));
  EXPECT_EQ(arena.MkUn(ExprOp::kTruncChar, t), t);
}

TEST(IntervalTest, NarrowEquality) {
  ExprArena arena;
  Interval iv{0, 255};
  const Constraint c{arena.MkBin(ExprOp::kEq, arena.MkVar(0), arena.MkConst(65)), true};
  EXPECT_TRUE(NarrowForConstraint(arena, c, 0, &iv));
  EXPECT_EQ(iv, (Interval{65, 65}));
}

TEST(IntervalTest, NarrowNegatedComparison) {
  ExprArena arena;
  Interval iv{0, 255};
  // NOT (v0 < 100)  =>  v0 >= 100.
  const Constraint c{arena.MkBin(ExprOp::kLt, arena.MkVar(0), arena.MkConst(100)), false};
  EXPECT_TRUE(NarrowForConstraint(arena, c, 0, &iv));
  EXPECT_EQ(iv, (Interval{100, 255}));
}

TEST(IntervalTest, NarrowMirrored) {
  ExprArena arena;
  Interval iv{-10, 10};
  // 3 < v0.
  const Constraint c{arena.MkBin(ExprOp::kLt, arena.MkConst(3), arena.MkVar(0)), true};
  EXPECT_TRUE(NarrowForConstraint(arena, c, 0, &iv));
  EXPECT_EQ(iv, (Interval{4, 10}));
}

TEST(IntervalTest, TruncSeenThrough) {
  ExprArena arena;
  Interval iv{0, 255};
  const ExprRef t = arena.MkUn(ExprOp::kTruncChar, arena.MkVar(0));
  const Constraint c{arena.MkBin(ExprOp::kGe, t, arena.MkConst('a')), true};
  EXPECT_TRUE(NarrowForConstraint(arena, c, 0, &iv));
  EXPECT_EQ(iv.lo, 'a');
}

class SolverFixture : public ::testing::Test {
 protected:
  SolveResult Solve(const std::vector<Constraint>& constraints,
                    const std::vector<Interval>& domains, const std::vector<i64>& seed) {
    Solver solver(arena_, SolverOptions{});
    return solver.Solve(constraints, domains, seed);
  }

  ExprArena arena_;
};

TEST_F(SolverFixture, AlreadySatisfiedBySeed) {
  const Constraint c{arena_.MkBin(ExprOp::kEq, arena_.MkVar(0), arena_.MkConst(7)), true};
  const SolveResult r = Solve({c}, {{0, 255}}, {7});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model[0], 7);
}

TEST_F(SolverFixture, RepairsSingleByte) {
  const Constraint c{arena_.MkBin(ExprOp::kEq, arena_.MkVar(0), arena_.MkConst('G')), true};
  const SolveResult r = Solve({c}, {{0, 255}}, {'x'});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model[0], 'G');
}

TEST_F(SolverFixture, EqualityChainAcrossVars) {
  // v0 == v1, v1 == v2, v2 == 'z'.
  std::vector<Constraint> cs = {
      {arena_.MkBin(ExprOp::kEq, arena_.MkVar(0), arena_.MkVar(1)), true},
      {arena_.MkBin(ExprOp::kEq, arena_.MkVar(1), arena_.MkVar(2)), true},
      {arena_.MkBin(ExprOp::kEq, arena_.MkVar(2), arena_.MkConst('z')), true},
  };
  const SolveResult r = Solve(cs, {{0, 255}, {0, 255}, {0, 255}}, {'a', 'b', 'c'});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model[0], 'z');
  EXPECT_EQ(r.model[1], 'z');
  EXPECT_EQ(r.model[2], 'z');
}

TEST_F(SolverFixture, ArithmeticConstraint) {
  // v0 * 10 + v1 == 42 over digits.
  const ExprRef sum =
      arena_.MkBin(ExprOp::kAdd, arena_.MkBin(ExprOp::kMul, arena_.MkVar(0), arena_.MkConst(10)),
                   arena_.MkVar(1));
  const Constraint c{arena_.MkBin(ExprOp::kEq, sum, arena_.MkConst(42)), true};
  const SolveResult r = Solve({c}, {{0, 9}, {0, 9}}, {0, 0});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model[0] * 10 + r.model[1], 42);
}

TEST_F(SolverFixture, DetectsUnsat) {
  std::vector<Constraint> cs = {
      {arena_.MkBin(ExprOp::kEq, arena_.MkVar(0), arena_.MkConst(5)), true},
      {arena_.MkBin(ExprOp::kEq, arena_.MkVar(0), arena_.MkConst(6)), true},
  };
  const SolveResult r = Solve(cs, {{0, 255}}, {5});
  EXPECT_EQ(r.status, SolveStatus::kUnsat);
}

TEST_F(SolverFixture, NegatedConstraintFlips) {
  // want_true = false on (v0 == 5): any byte but 5.
  const Constraint c{arena_.MkBin(ExprOp::kEq, arena_.MkVar(0), arena_.MkConst(5)), false};
  const SolveResult r = Solve({c}, {{0, 255}}, {5});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_NE(r.model[0], 5);
}

TEST_F(SolverFixture, PreservesSatisfiedPrefix) {
  // A concolic-style set: many satisfied constraints plus one flipped tail.
  std::vector<Constraint> cs;
  std::vector<Interval> domains;
  std::vector<i64> seed;
  const std::string word = "GET /index";
  for (size_t i = 0; i < word.size(); ++i) {
    cs.push_back({arena_.MkBin(ExprOp::kEq, arena_.MkVar(static_cast<i32>(i)),
                               arena_.MkConst(word[i])),
                  true});
    domains.push_back({0, 255});
    seed.push_back(word[i]);
  }
  // Tail: byte 10 must become '?' (seed has 'x').
  cs.push_back({arena_.MkBin(ExprOp::kEq, arena_.MkVar(10), arena_.MkConst('?')), true});
  domains.push_back({0, 255});
  seed.push_back('x');
  const SolveResult r = Solve(cs, domains, seed);
  ASSERT_EQ(r.status, SolveStatus::kSat);
  for (size_t i = 0; i < word.size(); ++i) {
    EXPECT_EQ(r.model[i], word[i]);
  }
  EXPECT_EQ(r.model[10], '?');
}

TEST_F(SolverFixture, SyscallRangeVar) {
  // read() return in [-1, 64]; constraint: ret > 0 and ret != seed.
  std::vector<Constraint> cs = {
      {arena_.MkBin(ExprOp::kGt, arena_.MkVar(0), arena_.MkConst(0)), true},
      {arena_.MkBin(ExprOp::kEq, arena_.MkVar(0), arena_.MkConst(64)), false},
  };
  const SolveResult r = Solve(cs, {{-1, 64}}, {64});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_GT(r.model[0], 0);
  EXPECT_NE(r.model[0], 64);
}

TEST_F(SolverFixture, TruncCharConstraint) {
  const ExprRef t = arena_.MkUn(ExprOp::kTruncChar, arena_.MkVar(0));
  const Constraint c{arena_.MkBin(ExprOp::kEq, t, arena_.MkConst('-')), true};
  const SolveResult r = Solve({c}, {{0, 255}}, {'a'});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model[0], '-');
}

TEST_F(SolverFixture, Satisfies) {
  Solver solver(arena_, SolverOptions{});
  const Constraint c{arena_.MkBin(ExprOp::kLt, arena_.MkVar(0), arena_.MkConst(10)), true};
  EXPECT_TRUE(solver.Satisfies({c}, {5}));
  EXPECT_FALSE(solver.Satisfies({c}, {15}));
}

}  // namespace
}  // namespace retrace
