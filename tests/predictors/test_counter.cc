/** @file Tests for saturating counters and counter tables. */

#include <gtest/gtest.h>

#include "predictors/counter.hh"

namespace bpsim
{
namespace
{

TEST(SaturatingCounter, TwoBitSequence)
{
    SaturatingCounter c(2, 0);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_FALSE(c.predictTaken());
    c.update(true);
    EXPECT_EQ(c.value(), 1u);
    EXPECT_FALSE(c.predictTaken());
    c.update(true);
    EXPECT_EQ(c.value(), 2u);
    EXPECT_TRUE(c.predictTaken());
    c.update(true);
    EXPECT_EQ(c.value(), 3u);
    c.update(true);
    EXPECT_EQ(c.value(), 3u) << "must saturate at 3";
    c.update(false);
    EXPECT_EQ(c.value(), 2u);
}

TEST(SaturatingCounter, SaturatesAtZero)
{
    SaturatingCounter c(2, 1);
    c.update(false);
    c.update(false);
    c.update(false);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_TRUE(c.isSaturated());
}

TEST(SaturatingCounter, HysteresisProperty)
{
    // From strongly-taken, one not-taken outcome must not flip the
    // prediction — the defining property of 2-bit counters.
    SaturatingCounter c(2, 3);
    c.update(false);
    EXPECT_TRUE(c.predictTaken());
    c.update(false);
    EXPECT_FALSE(c.predictTaken());
}

TEST(SaturatingCounter, InitialClamped)
{
    SaturatingCounter c(2, 200);
    EXPECT_EQ(c.value(), 3u);
}

TEST(SaturatingCounter, WeakInitializers)
{
    EXPECT_EQ(SaturatingCounter::weaklyTaken(2), 2u);
    EXPECT_EQ(SaturatingCounter::weaklyNotTaken(2), 1u);
    EXPECT_EQ(SaturatingCounter::weaklyTaken(3), 4u);
    EXPECT_EQ(SaturatingCounter::weaklyNotTaken(3), 3u);
    EXPECT_EQ(SaturatingCounter::weaklyTaken(1), 1u);
    EXPECT_EQ(SaturatingCounter::weaklyNotTaken(1), 0u);
}

TEST(SaturatingCounter, WeakInitializersPredictCorrectSide)
{
    for (unsigned bits = 1; bits <= 6; ++bits) {
        SaturatingCounter taken(bits, SaturatingCounter::weaklyTaken(bits));
        SaturatingCounter not_taken(
            bits, SaturatingCounter::weaklyNotTaken(bits));
        EXPECT_TRUE(taken.predictTaken()) << "bits=" << bits;
        EXPECT_FALSE(not_taken.predictTaken()) << "bits=" << bits;
    }
}

/** Property sweep over counter widths. */
class CounterWidthTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CounterWidthTest, ValueStaysInRange)
{
    const unsigned bits = GetParam();
    SaturatingCounter c(bits, 0);
    for (int i = 0; i < 300; ++i) {
        c.update(i % 3 != 0);
        EXPECT_LE(c.value(), maskBits(bits));
    }
}

TEST_P(CounterWidthTest, AllTakenSaturatesHigh)
{
    const unsigned bits = GetParam();
    SaturatingCounter c(bits, 0);
    for (unsigned i = 0; i < (1u << bits) + 5; ++i)
        c.update(true);
    EXPECT_EQ(c.value(), maskBits(bits));
    EXPECT_TRUE(c.predictTaken());
    EXPECT_TRUE(c.isSaturated());
}

TEST_P(CounterWidthTest, WeakFlipNeedsOneOutcome)
{
    const unsigned bits = GetParam();
    SaturatingCounter c(bits, SaturatingCounter::weaklyTaken(bits));
    c.update(false);
    EXPECT_FALSE(c.predictTaken())
        << "weakly-taken must flip after one not-taken";
}

INSTANTIATE_TEST_SUITE_P(Widths, CounterWidthTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(CounterTable, InitialValueApplied)
{
    CounterTable table(16, 2, 2);
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(table.value(i), 2u);
        EXPECT_TRUE(table.predictTaken(i));
    }
}

TEST(CounterTable, UpdatesAreIndependent)
{
    CounterTable table(8, 2, 1);
    table.update(3, true);
    table.update(3, true);
    EXPECT_EQ(table.value(3), 3u);
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (i != 3) {
            EXPECT_EQ(table.value(i), 1u);
        }
    }
}

TEST(CounterTable, ResetRestoresInitial)
{
    CounterTable table(8, 2, 1);
    table.update(0, true);
    table.update(7, false);
    table.reset();
    for (std::size_t i = 0; i < table.size(); ++i)
        EXPECT_EQ(table.value(i), 1u);
}

TEST(CounterTable, SetClamps)
{
    CounterTable table(4, 2, 0);
    table.set(0, 250);
    EXPECT_EQ(table.value(0), 3u);
}

TEST(CounterTable, StorageBits)
{
    CounterTable table(1024, 2, 0);
    EXPECT_EQ(table.storageBits(), 2048u);
    CounterTable wide(256, 3, 0);
    EXPECT_EQ(wide.storageBits(), 768u);
}

TEST(CounterTableDeath, NonPowerOfTwoPanics)
{
    EXPECT_DEATH(CounterTable(100, 2, 0), "not a power of two");
}

TEST(CounterTableDeath, ZeroWidthPanics)
{
    EXPECT_THROW(CounterTable(16, 0, 0), ConfigError);
    EXPECT_THROW(SaturatingCounter(9), ConfigError);
}

} // namespace
} // namespace bpsim
