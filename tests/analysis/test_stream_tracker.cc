/** @file Tests for the s_ij substream tracker. */

#include <gtest/gtest.h>

#include <vector>

#include "analysis/stream_tracker.hh"

namespace bpsim
{
namespace
{

TEST(StreamTracker, AccumulatesOneStream)
{
    StreamTracker tracker;
    tracker.observe(0x1000, 5, true, false);
    tracker.observe(0x1000, 5, true, true);
    tracker.observe(0x1000, 5, false, false);
    ASSERT_EQ(tracker.streamCount(), 1u);
    const StreamStats *stream = tracker.find(0x1000, 5);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->count, 3u);
    EXPECT_EQ(stream->takenCount, 2u);
    EXPECT_EQ(stream->mispredictions, 1u);
    EXPECT_EQ(stream->pc, 0x1000u);
    EXPECT_EQ(stream->counterId, 5u);
}

TEST(StreamTracker, SeparatesByCounter)
{
    StreamTracker tracker;
    tracker.observe(0x1000, 5, true, false);
    tracker.observe(0x1000, 6, false, false);
    EXPECT_EQ(tracker.streamCount(), 2u);
    EXPECT_EQ(tracker.find(0x1000, 5)->takenCount, 1u);
    EXPECT_EQ(tracker.find(0x1000, 6)->takenCount, 0u);
}

TEST(StreamTracker, SeparatesByBranch)
{
    StreamTracker tracker;
    tracker.observe(0x1000, 5, true, false);
    tracker.observe(0x2000, 5, true, false);
    EXPECT_EQ(tracker.streamCount(), 2u);
}

TEST(StreamTracker, FindMissReturnsNull)
{
    StreamTracker tracker;
    EXPECT_EQ(tracker.find(0x1000, 5), nullptr);
}

TEST(StreamTracker, TotalObservations)
{
    StreamTracker tracker;
    for (int i = 0; i < 7; ++i)
        tracker.observe(0x1000 + 8 * (i % 3), i % 4, true, false);
    EXPECT_EQ(tracker.totalObservations(), 7u);
}

TEST(StreamTracker, AllStreamsReturnsEverything)
{
    StreamTracker tracker;
    tracker.observe(0x1000, 1, true, false);
    tracker.observe(0x2000, 2, false, false);
    tracker.observe(0x3000, 1, true, true);
    const std::vector<StreamStats> &streams = tracker.streams();
    EXPECT_EQ(streams.size(), 3u);
    std::uint64_t total = 0;
    for (const StreamStats &stream : streams)
        total += stream.count;
    EXPECT_EQ(total, tracker.totalObservations());
}

TEST(StreamTracker, StreamsOfCounterFilters)
{
    StreamTracker tracker;
    tracker.observe(0x1000, 1, true, false);
    tracker.observe(0x2000, 2, false, false);
    tracker.observe(0x3000, 1, true, true);
    const auto at1 = tracker.streamsOfCounter(1);
    EXPECT_EQ(at1.size(), 2u);
    EXPECT_TRUE(tracker.streamsOfCounter(9).empty());
}

TEST(StreamTracker, ClassificationThroughStats)
{
    StreamTracker tracker;
    for (int i = 0; i < 10; ++i)
        tracker.observe(0x1000, 0, i < 9, false);
    EXPECT_EQ(tracker.find(0x1000, 0)->biasClass(),
              BiasClass::StronglyTaken);
}

TEST(StreamTracker, NoKeyCollisionsAcrossLargeSpace)
{
    // pcs and counter ids chosen adversarially close must remain
    // distinct streams.
    StreamTracker tracker;
    tracker.observe(0x1000, 0x1, true, false);
    tracker.observe(0x1001, 0x0, true, false);
    tracker.observe((0x1000 << 1) | 1, 0x1, true, false);
    EXPECT_EQ(tracker.streamCount(), 3u);
}

TEST(StreamTracker, NoKeyCollisionsForWideCounterIds)
{
    // Counter ids reach 2^28 (the registry's largest tables); a
    // packed key that shifts the pc left would fold them into the
    // pc bits.
    StreamTracker tracker;
    tracker.observe(0x1004, 0, true, false);
    tracker.observe(0x1000, std::uint64_t{1} << 26, false, false);
    EXPECT_EQ(tracker.streamCount(), 2u);
    EXPECT_EQ(tracker.find(0x1004, 0)->takenCount, 1u);
    EXPECT_EQ(tracker.find(0x1000, std::uint64_t{1} << 26)->takenCount,
              0u);
}

TEST(StreamTracker, NoKeyCollisionsForHighPcBits)
{
    // Imported traces carry full 48-bit pcs; two that differ only
    // above bit 40 are still distinct branches.
    StreamTracker tracker;
    tracker.observe(0x7f0000401000, 3, true, false);
    tracker.observe(0x401000, 3, false, false);
    EXPECT_EQ(tracker.streamCount(), 2u);
    EXPECT_EQ(tracker.find(0x7f0000401000, 3)->pc, 0x7f0000401000u);
    EXPECT_EQ(tracker.find(0x401000, 3)->pc, 0x401000u);
}

TEST(StreamTracker, StreamsComeInFirstAppearanceOrder)
{
    // Table 3's paper example lists its streams in the order they are
    // fed; the tracker must return them that way, not in hash order.
    StreamTracker tracker;
    const std::vector<std::uint64_t> pcs = {0x001, 0x005, 0x100, 0x150};
    for (int round = 0; round < 3; ++round) {
        for (const std::uint64_t pc : pcs)
            tracker.observe(pc, 0, true, false);
        tracker.observe(0x200, 1, true, false);
    }
    std::vector<std::uint64_t> at0;
    for (const StreamStats *stream : tracker.streamsOfCounter(0))
        at0.push_back(stream->pc);
    EXPECT_EQ(at0, pcs);
    std::vector<std::uint64_t> all;
    for (const StreamStats &stream : tracker.streams())
        all.push_back(stream.pc);
    EXPECT_EQ(all, (std::vector<std::uint64_t>{0x001, 0x005, 0x100, 0x150,
                                               0x200}));
}

TEST(StreamTracker, StepsRecordTheObservationSequence)
{
    StreamTracker tracker(StepLog::Keep);
    tracker.observe(0x1000, 1, true, false);
    tracker.observe(0x2000, 1, false, true);
    tracker.observe(0x1000, 1, false, false);
    const std::vector<StreamStep> &steps = tracker.steps();
    ASSERT_EQ(steps.size(), 3u);
    EXPECT_EQ(steps[0].stream(), 0u);
    EXPECT_EQ(steps[1].stream(), 1u);
    EXPECT_EQ(steps[2].stream(), 0u);
    EXPECT_TRUE(steps[0].taken());
    EXPECT_FALSE(steps[0].mispredicted());
    EXPECT_FALSE(steps[1].taken());
    EXPECT_TRUE(steps[1].mispredicted());
    EXPECT_EQ(tracker.streams()[steps[1].stream()].pc, 0x2000u);
}

TEST(StreamTracker, DropsStepsUnlessAsked)
{
    // The default tracker keeps counts only; reading its steps is a
    // caller bug, not an empty sequence.
    StreamTracker tracker;
    tracker.observe(0x1000, 1, true, false);
    tracker.observe(0x2000, 1, false, true);
    EXPECT_EQ(tracker.totalObservations(), 2u);
    EXPECT_EQ(tracker.streamCount(), 2u);
    EXPECT_DEATH(tracker.steps(), "StepLog::Keep");
}

TEST(StreamTracker, FindsEveryStreamAcrossTableGrowth)
{
    // Enough streams to grow the index several times over.
    StreamTracker tracker;
    for (std::uint64_t i = 0; i < 5000; ++i)
        tracker.observe(0x400000 + 4 * (i % 2500), i / 2500, true, false);
    ASSERT_EQ(tracker.streamCount(), 5000u);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const StreamStats *stream =
            tracker.find(0x400000 + 4 * (i % 2500), i / 2500);
        ASSERT_NE(stream, nullptr);
        EXPECT_EQ(stream, &tracker.streams()[i]);
    }
}

} // namespace
} // namespace bpsim
