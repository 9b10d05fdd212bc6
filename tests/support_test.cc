#include <gtest/gtest.h>

#include "src/support/bitvec.h"
#include "src/support/budget.h"
#include "src/support/dense_bitset.h"
#include "src/support/env.h"
#include "src/support/rng.h"

namespace retrace {
namespace {

TEST(BitVecTest, PushAndGet) {
  BitVec bits;
  EXPECT_TRUE(bits.empty());
  bits.PushBit(true);
  bits.PushBit(false);
  bits.PushBit(true);
  EXPECT_EQ(bits.size(), 3u);
  EXPECT_TRUE(bits.GetBit(0));
  EXPECT_FALSE(bits.GetBit(1));
  EXPECT_TRUE(bits.GetBit(2));
}

TEST(BitVecTest, ByteSizeRoundsUp) {
  BitVec bits;
  for (int i = 0; i < 9; ++i) {
    bits.PushBit(i % 2 == 0);
  }
  EXPECT_EQ(bits.ByteSize(), 2u);
}

TEST(BitVecTest, SerializeRoundTrip) {
  BitVec bits;
  for (int i = 0; i < 100; ++i) {
    bits.PushBit((i * 7) % 3 == 0);
  }
  const BitVec copy = BitVec::Deserialize(bits.Serialize(), bits.size());
  EXPECT_EQ(bits, copy);
}

TEST(BitVecTest, CrossesByteBoundaries) {
  BitVec bits;
  for (int i = 0; i < 64; ++i) {
    bits.PushBit(i == 13 || i == 31 || i == 63);
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(bits.GetBit(i), i == 13 || i == 31 || i == 63) << i;
  }
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, RangesRespected) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const i64 v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const u8 c = rng.NextPrintable();
    EXPECT_GE(c, ' ');
    EXPECT_LE(c, '~');
  }
}

TEST(BudgetTest, StepLimit) {
  Budget budget = Budget::Steps(10);
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.Consume(9));
  EXPECT_FALSE(budget.Consume(1));
  EXPECT_TRUE(budget.Exhausted());
}

TEST(BudgetTest, UnlimitedByDefault) {
  Budget budget;
  EXPECT_TRUE(budget.Consume(1'000'000'000));
  EXPECT_FALSE(budget.Exhausted());
}

TEST(DenseBitsetTest, SetTestCount) {
  DenseBitset bits(130);
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Set(64, false);
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(DenseBitsetTest, UnionWith) {
  DenseBitset a(70);
  DenseBitset b(70);
  a.Set(3);
  b.Set(69);
  EXPECT_TRUE(a.UnionWith(b));
  EXPECT_TRUE(a.Test(3));
  EXPECT_TRUE(a.Test(69));
  EXPECT_FALSE(a.UnionWith(b));  // No change the second time.
}

// ----- Strict environment-knob parsing (src/support/env.h) -----
//
// The historical failure mode: a boolean knob set to `true` atoi'd to 0
// and silently *disabled* the feature the user asked for. The strict parsers
// must accept exactly the documented spellings and reject everything
// else so the EnvKnob* wrappers can fail loudly.

TEST(EnvKnobTest, ParsesWholeIntegers) {
  i64 v = 0;
  EXPECT_TRUE(ParseKnobI64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseKnobI64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseKnobI64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseKnobI64("9223372036854775807", &v));
  EXPECT_EQ(v, 9223372036854775807ll);
}

TEST(EnvKnobTest, RejectsHostileIntegers) {
  i64 v = 99;
  EXPECT_FALSE(ParseKnobI64(nullptr, &v));
  EXPECT_FALSE(ParseKnobI64("", &v));
  EXPECT_FALSE(ParseKnobI64("true", &v));   // The atoi'd-boolean bug shape.
  EXPECT_FALSE(ParseKnobI64("12abc", &v));  // Trailing garbage.
  EXPECT_FALSE(ParseKnobI64("4 ", &v));     // Trailing space counts as garbage.
  EXPECT_FALSE(ParseKnobI64("0x10", &v));   // No hex — decimal only.
  EXPECT_FALSE(ParseKnobI64("99999999999999999999", &v));  // Overflow.
  EXPECT_EQ(v, 99);  // Failed parses never write through.
}

TEST(EnvKnobTest, ParsesBooleanSpellings) {
  bool v = false;
  for (const char* text : {"1", "true", "TRUE", "on", "On", "yes"}) {
    v = false;
    EXPECT_TRUE(ParseKnobBool(text, &v)) << text;
    EXPECT_TRUE(v) << text;
  }
  for (const char* text : {"0", "false", "False", "off", "OFF", "no"}) {
    v = true;
    EXPECT_TRUE(ParseKnobBool(text, &v)) << text;
    EXPECT_FALSE(v) << text;
  }
}

TEST(EnvKnobTest, RejectsHostileBooleans) {
  bool v = true;
  EXPECT_FALSE(ParseKnobBool(nullptr, &v));
  EXPECT_FALSE(ParseKnobBool("", &v));
  EXPECT_FALSE(ParseKnobBool("2", &v));     // Not a documented spelling.
  EXPECT_FALSE(ParseKnobBool("-1", &v));
  EXPECT_FALSE(ParseKnobBool("enable", &v));
  EXPECT_FALSE(ParseKnobBool("truex", &v));
  EXPECT_TRUE(v);  // Failed parses never write through.
}

TEST(EnvKnobTest, EnvWrappersUseDefaultsWhenUnset) {
  ::unsetenv("RETRACE_TEST_KNOB");
  EXPECT_EQ(EnvKnobI64("RETRACE_TEST_KNOB", 17, 1, 100), 17);
  EXPECT_TRUE(EnvKnobBool("RETRACE_TEST_KNOB", true));
  EXPECT_FALSE(EnvKnobBool("RETRACE_TEST_KNOB", false));
}

TEST(EnvKnobTest, EnvWrappersAcceptValidValues) {
  ::setenv("RETRACE_TEST_KNOB", "33", 1);
  EXPECT_EQ(EnvKnobI64("RETRACE_TEST_KNOB", 17, 1, 100), 33);
  ::setenv("RETRACE_TEST_KNOB", "on", 1);
  EXPECT_TRUE(EnvKnobBool("RETRACE_TEST_KNOB", false));
  ::setenv("RETRACE_TEST_KNOB", "false", 1);
  EXPECT_FALSE(EnvKnobBool("RETRACE_TEST_KNOB", true));
  ::unsetenv("RETRACE_TEST_KNOB");
}

// The loud-failure contract: garbage and out-of-range values exit(2)
// with a message naming the knob, instead of silently defaulting.
TEST(EnvKnobDeathTest, GarbageIntegerDiesLoudly) {
  ::setenv("RETRACE_TEST_KNOB", "fast", 1);
  EXPECT_EXIT(EnvKnobI64("RETRACE_TEST_KNOB", 1, 1, 100), testing::ExitedWithCode(2),
              "RETRACE_TEST_KNOB");
  ::setenv("RETRACE_TEST_KNOB", "101", 1);  // Out of range.
  EXPECT_EXIT(EnvKnobI64("RETRACE_TEST_KNOB", 1, 1, 100), testing::ExitedWithCode(2),
              "RETRACE_TEST_KNOB");
  ::setenv("RETRACE_TEST_KNOB", "-3", 1);   // Negative where min is 1.
  EXPECT_EXIT(EnvKnobI64("RETRACE_TEST_KNOB", 1, 1, 100), testing::ExitedWithCode(2),
              "RETRACE_TEST_KNOB");
  ::unsetenv("RETRACE_TEST_KNOB");
}

TEST(EnvKnobDeathTest, GarbageBooleanDiesLoudly) {
  ::setenv("RETRACE_TEST_KNOB", "maybe", 1);
  EXPECT_EXIT(EnvKnobBool("RETRACE_TEST_KNOB", true), testing::ExitedWithCode(2),
              "RETRACE_TEST_KNOB");
  ::unsetenv("RETRACE_TEST_KNOB");
}

}  // namespace
}  // namespace retrace
