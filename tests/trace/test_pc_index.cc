/** @file PcIndex against a plain std::unordered_map reference. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "trace/packed_trace.hh"
#include "trace/pc_index.hh"
#include "util/random.hh"

namespace bpsim
{
namespace
{

/** A packed trace over @p pcs with pseudo-random outcomes. */
PackedTrace
packedOver(const std::vector<std::uint64_t> &pcs)
{
    TraceWordVector pcWords(pcs.begin(), pcs.end());
    TraceWordVector taken((pcs.size() + PackedTrace::kWordBits - 1) /
                          PackedTrace::kWordBits);
    Rng rng(17);
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        if (rng.nextBool(0.5))
            taken[i / PackedTrace::kWordBits] |=
                std::uint64_t{1} << (i % PackedTrace::kWordBits);
    }
    return PackedTrace(std::move(pcWords), std::move(taken), pcs.size());
}

/** Expects @p index to assign exactly the first-appearance ids an
 *  unordered_map assigns, and its countRange() to match a direct
 *  count over the same records. */
void
expectMatchesReference(const PackedTrace &packed, const PcIndex &index)
{
    std::unordered_map<std::uint64_t, std::uint32_t> idOf;
    std::vector<std::uint64_t> pcOf;
    ASSERT_EQ(index.size(), packed.size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
        const auto [it, inserted] = idOf.try_emplace(
            packed.pc(i), static_cast<std::uint32_t>(pcOf.size()));
        if (inserted)
            pcOf.push_back(packed.pc(i));
        ASSERT_EQ(index.idData()[i], it->second) << "record " << i;
    }
    ASSERT_EQ(index.staticCount(), pcOf.size());
    for (std::uint32_t id = 0; id < pcOf.size(); ++id)
        ASSERT_EQ(index.pcOf(id), pcOf[id]) << "id " << id;

    const std::size_t from = packed.size() / 3;
    const std::size_t to = packed.size() - packed.size() / 5;
    std::vector<std::uint64_t> executions(pcOf.size()), taken(pcOf.size());
    for (std::size_t i = from; i < to; ++i) {
        const std::uint32_t id = idOf.at(packed.pc(i));
        ++executions[id];
        taken[id] += packed.taken(i) ? 1 : 0;
    }
    const PcIndex::RangeCounts counts = index.countRange(packed, from, to);
    EXPECT_EQ(counts.executions, executions);
    EXPECT_EQ(counts.taken, taken);
}

TEST(PcIndex, ManyDistinctPcsSurviveRehashes)
{
    // 120k distinct pcs grow the table from 1024 slots through
    // several rehashes; revisits keep hitting old ids along the way.
    Rng rng(23);
    std::vector<std::uint64_t> pcs;
    for (std::uint64_t k = 0; k < 120'000; ++k) {
        pcs.push_back(0x400000 + 4 * k);
        if (k % 3 == 0)
            pcs.push_back(0x400000 + 4 * rng.nextBounded(k + 1));
    }
    const PackedTrace packed = packedOver(pcs);
    const PcIndex index(packed);
    EXPECT_EQ(index.staticCount(), 120'000u);
    expectMatchesReference(packed, index);
}

TEST(PcIndex, PowerOfTwoStridesThatShareLowBits)
{
    // Every pc is a multiple of 2^20: identical low 20 bits.
    Rng rng(29);
    std::vector<std::uint64_t> pcs;
    for (int i = 0; i < 50'000; ++i)
        pcs.push_back(rng.nextBounded(4096) << 20);
    const PackedTrace packed = packedOver(pcs);
    expectMatchesReference(packed, PcIndex(packed));
}

TEST(PcIndex, ExtremePcsAreOrdinaryKeys)
{
    // pc 0 and UINT64_MAX are valid branch addresses, not sentinels.
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::uint64_t> pcs;
    for (int i = 0; i < 3000; ++i) {
        pcs.push_back(i % 5 == 0 ? 0 : 0x1000 + 4 * (i % 37));
        if (i % 7 == 0)
            pcs.push_back(max);
        if (i % 11 == 0)
            pcs.push_back(max - 4 * (i % 3));
    }
    const PackedTrace packed = packedOver(pcs);
    const PcIndex index(packed);
    EXPECT_EQ(index.pcOf(0), 0u);
    expectMatchesReference(packed, index);
}

TEST(PcIndex, EmptyTrace)
{
    const PackedTrace packed = packedOver({});
    const PcIndex index(packed);
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.staticCount(), 0u);
}

} // namespace
} // namespace bpsim
