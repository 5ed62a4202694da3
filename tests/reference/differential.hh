/**
 * @file
 * What the gshare and bi-mode reference tests share: the branch
 * stream they replay and the check of a predictor bank's lanes on
 * every kernel tier.
 *
 * The stream is built to reach every rule of both predictors: 3000
 * static branches overflow even the 2^11-entry tables, so
 * taken-biased and not-taken-biased branches alias onto shared
 * counters; a hot set of 64 branches carries half the traffic, so
 * counters also saturate; and unbiased and history-correlated
 * branches keep the choice counters disagreeing with the outcome,
 * which is when the bi-mode choice exception applies.
 */

#ifndef BPSIM_TESTS_REFERENCE_DIFFERENTIAL_HH
#define BPSIM_TESTS_REFERENCE_DIFFERENTIAL_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "sim/replay.hh"
#include "sim/simd/kernel_tier.hh"
#include "trace/memory_trace.hh"
#include "trace/packed_trace.hh"
#include "util/random.hh"

namespace bpsim::reference
{

inline const MemoryTrace &
aliasingTrace()
{
    static const MemoryTrace trace = [] {
        constexpr std::uint64_t kSites = 3000;
        MemoryTrace built;
        Rng rng(0xb1d0);
        bool previous = false;
        for (std::size_t i = 0; i < 60'000; ++i) {
            const std::uint64_t site = rng.nextBool(0.5)
                                           ? rng.nextBounded(64)
                                           : rng.nextBounded(kSites);
            BranchRecord record;
            record.type = BranchType::Conditional;
            record.pc = 0x400000 + 4 * site;
            record.target = record.pc + 64;
            switch (site % 10) {
              case 0:
                // Unbiased.
                record.taken = rng.nextBool(0.5);
                break;
              case 1:
                // Follows the branch before it.
                record.taken = previous;
                break;
              default:
                // Strongly biased, taken for even sites.
                record.taken = rng.nextBool(site % 2 == 0 ? 0.97 : 0.03);
                break;
            }
            previous = record.taken;
            built.append(record);
        }
        return built;
    }();
    return trace;
}

/**
 * Replays one bank of @p specs over aliasingTrace() on every kernel
 * tier this host runs (the scalar bank and each SIMD tier) and
 * expects lane l to have run on that tier, measured every branch and
 * mispredicted exactly @p mispredictions[l] of them.
 */
inline void
expectBankLanesOnEveryTier(const std::vector<std::string> &specs,
                           const std::vector<std::uint64_t> &mispredictions)
{
    const MemoryTrace &trace = aliasingTrace();
    const PackedTrace packed(trace);
    for (const KernelTier tier : availableKernelTiers()) {
        std::vector<PredictorPtr> owned;
        std::vector<BranchPredictor *> bank;
        for (const std::string &spec : specs) {
            owned.push_back(makePredictor(spec));
            bank.push_back(owned.back().get());
        }
        SimConfig config;
        config.kernelTier = tier;
        std::vector<SimResult> results;
        ASSERT_TRUE(replayKernelBankAny(bank, packed, config, results));
        ASSERT_EQ(results.size(), specs.size());
        for (std::size_t l = 0; l < specs.size(); ++l) {
            const std::string where =
                specs[l] + " tier=" + kernelTierName(tier);
            EXPECT_EQ(results[l].kernelTier, tier) << where;
            EXPECT_EQ(results[l].branches, trace.size()) << where;
            EXPECT_EQ(results[l].takenBranches, packed.takenCount())
                << where;
            EXPECT_EQ(results[l].mispredictions, mispredictions[l])
                << where;
        }
    }
}

} // namespace bpsim::reference

#endif // BPSIM_TESTS_REFERENCE_DIFFERENTIAL_HH
