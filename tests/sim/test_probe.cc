/** @file Per-branch accounting probe tests.
 *
 * The probe contract (sim/probe.hh): a probed replay produces, on
 * every kernel path — solo, scalar bank, every available SIMD tier —
 * exactly the per-branch table the virtual simulate() loop produces,
 * while the aggregate counts stay bit-identical to an unprobed run.
 * PcIndex supplies the trace-side columns (executions, taken) that
 * probes deliberately do not accumulate.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "sim/probe.hh"
#include "sim/replay.hh"
#include "sim/simd/kernel_tier.hh"
#include "sim/simulator.hh"
#include "trace/packed_trace.hh"
#include "trace/pc_index.hh"
#include "workload/generator.hh"

namespace bpsim
{
namespace
{

WorkloadSpec
probeSpec(const std::string &name, std::uint32_t seed)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.suite = "test";
    spec.staticBranches = 200;
    spec.dynamicBranches = 30'000;
    spec.seed = seed;
    return spec;
}

const MemoryTrace &
sharedTrace()
{
    static const MemoryTrace trace =
        generateWorkloadTrace(probeSpec("probe-test", 41));
    return trace;
}

const PackedTrace &
sharedPacked()
{
    static const PackedTrace packed(sharedTrace());
    return packed;
}

/** Expects two per-branch tables to be row-for-row identical. */
void
expectSamePerBranch(const std::vector<PerBranchResult> &got,
                    const std::vector<PerBranchResult> &want,
                    const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].pc, want[i].pc) << where << " row " << i;
        EXPECT_EQ(got[i].executions, want[i].executions)
            << where << " row " << i;
        EXPECT_EQ(got[i].mispredictions, want[i].mispredictions)
            << where << " row " << i;
        EXPECT_EQ(got[i].takenCount, want[i].takenCount)
            << where << " row " << i;
    }
}

TEST(PcIndex, IdsAreDenseFirstAppearanceOrder)
{
    const PcIndex index(sharedPacked());
    ASSERT_EQ(index.size(), sharedPacked().size());
    ASSERT_GT(index.staticCount(), 0u);
    ASSERT_LE(index.staticCount(), 200u);

    // Every record's id resolves back to the record's pc, and the
    // first record carrying each id is also the first appearance of
    // that pc (dense, first-appearance order).
    const std::uint32_t *ids = index.idData();
    const std::uint64_t *pcs = sharedPacked().pcData();
    std::uint32_t maxSeen = 0;
    for (std::size_t i = 0; i < index.size(); ++i) {
        ASSERT_LT(ids[i], index.staticCount());
        ASSERT_EQ(index.pcOf(ids[i]), pcs[i]) << "record " << i;
        // A new id must be exactly the next unused integer.
        if (ids[i] > maxSeen) {
            ASSERT_EQ(ids[i], maxSeen + 1) << "record " << i;
            maxSeen = ids[i];
        }
    }
    EXPECT_EQ(std::size_t{maxSeen} + 1, index.staticCount());
}

TEST(PcIndex, CountRangeMatchesTraceFacts)
{
    const PcIndex index(sharedPacked());
    const std::size_t total = sharedPacked().size();

    const PcIndex::RangeCounts full =
        index.countRange(sharedPacked(), 0, total);
    std::uint64_t executions = 0, taken = 0;
    for (std::size_t k = 0; k < index.staticCount(); ++k) {
        executions += full.executions[k];
        taken += full.taken[k];
    }
    EXPECT_EQ(executions, total);
    std::uint64_t takenExpected = 0;
    for (std::size_t i = 0; i < total; ++i)
        takenExpected += sharedPacked().taken(i) ? 1 : 0;
    EXPECT_EQ(taken, takenExpected);

    // A split region sums to the whole.
    const std::size_t cut = 501; // mid-word on purpose
    const PcIndex::RangeCounts head =
        index.countRange(sharedPacked(), 0, cut);
    const PcIndex::RangeCounts tail =
        index.countRange(sharedPacked(), cut, total);
    for (std::size_t k = 0; k < index.staticCount(); ++k) {
        EXPECT_EQ(head.executions[k] + tail.executions[k],
                  full.executions[k])
            << "id " << k;
        EXPECT_EQ(head.taken[k] + tail.taken[k], full.taken[k])
            << "id " << k;
    }
}

TEST(Probe, ProbedAggregatesMatchUnprobed)
{
    for (const std::string config :
         {"gshare:n=8,h=6", "bimode:d=7", "bimodal:n=8"}) {
        PredictorPtr tracked = makePredictor(config);
        PredictorPtr plain = makePredictor(config);
        SimConfig simConfig;
        simConfig.warmupBranches = 500;

        auto readerA = sharedTrace().reader();
        simConfig.trackPerBranch = true;
        const SimResult probed =
            simulateAny(*tracked, readerA, &sharedPacked(), simConfig);
        auto readerB = sharedTrace().reader();
        simConfig.trackPerBranch = false;
        const SimResult bare =
            simulateAny(*plain, readerB, &sharedPacked(), simConfig);

        EXPECT_EQ(probed.branches, bare.branches) << config;
        EXPECT_EQ(probed.mispredictions, bare.mispredictions) << config;
        EXPECT_EQ(probed.takenBranches, bare.takenBranches) << config;
        EXPECT_FALSE(probed.perBranch.empty()) << config;
        EXPECT_TRUE(bare.perBranch.empty()) << config;
    }
}

TEST(Probe, SoloKernelMatchesVirtualLoop)
{
    for (const std::uint64_t warmup : {std::uint64_t{0},
                                       std::uint64_t{500}}) {
        for (const std::string config :
             {"gshare:n=8,h=6", "bimode:d=7", "bimodal:n=8"}) {
            SimConfig simConfig;
            simConfig.trackPerBranch = true;
            simConfig.warmupBranches = warmup;

            PredictorPtr fast = makePredictor(config);
            auto readerA = sharedTrace().reader();
            const SimResult kernel =
                simulateAny(*fast, readerA, &sharedPacked(), simConfig);

            PredictorPtr oracle = makePredictor(config);
            auto readerB = sharedTrace().reader();
            const SimResult virt = simulate(*oracle, readerB, simConfig);

            const std::string where =
                config + " warmup=" + std::to_string(warmup);
            EXPECT_EQ(kernel.mispredictions, virt.mispredictions)
                << where;
            expectSamePerBranch(kernel.perBranch, virt.perBranch, where);
        }
    }
}

TEST(Probe, PerBranchRowsSumToAggregates)
{
    SimConfig simConfig;
    simConfig.trackPerBranch = true;
    simConfig.warmupBranches = 500;
    PredictorPtr predictor = makePredictor("gshare:n=10,h=8");
    auto reader = sharedTrace().reader();
    const SimResult result =
        simulateAny(*predictor, reader, &sharedPacked(), simConfig);

    std::uint64_t executions = 0, mispredictions = 0, taken = 0;
    for (const PerBranchResult &row : result.perBranch) {
        EXPECT_GT(row.executions, 0u);
        EXPECT_LE(row.mispredictions, row.executions);
        EXPECT_LE(row.takenCount, row.executions);
        executions += row.executions;
        mispredictions += row.mispredictions;
        taken += row.takenCount;
    }
    EXPECT_EQ(executions, result.branches);
    EXPECT_EQ(mispredictions, result.mispredictions);
    EXPECT_EQ(taken, result.takenBranches);
}

TEST(Probe, AllWarmupLeavesEmptyTable)
{
    SimConfig simConfig;
    simConfig.trackPerBranch = true;
    simConfig.warmupBranches = sharedPacked().size();
    PredictorPtr predictor = makePredictor("gshare:n=8,h=6");
    auto reader = sharedTrace().reader();
    const SimResult result =
        simulateAny(*predictor, reader, &sharedPacked(), simConfig);
    EXPECT_EQ(result.branches, 0u);
    EXPECT_TRUE(result.perBranch.empty());
}

/**
 * The tier matrix of the probe layer: banked probed replay at every
 * lane count straddling the vector widths, on every tier this binary
 * can run, must reproduce the virtual loop's per-branch table for
 * every lane. Lanes use distinct configs so a cross-lane counter mixup
 * cannot cancel out.
 */
TEST(Probe, BankMatchesVirtualLoopAcrossTiers)
{
    const std::vector<std::string> ladder = {
        "gshare:n=6,h=3", "gshare:n=8,h=8", "gshare:n=10,h=5",
        "gshare:n=7,h=4", "gshare:n=9,h=6", "gshare:n=6,h=6",
        "gshare:n=8,h=2", "gshare:n=10,h=9", "gshare:n=7,h=7",
    };

    SimConfig simConfig;
    simConfig.trackPerBranch = true;
    simConfig.warmupBranches = 500;

    // Virtual-loop oracle per config, computed once.
    std::vector<SimResult> oracle;
    for (const std::string &config : ladder) {
        PredictorPtr predictor = makePredictor(config);
        auto reader = sharedTrace().reader();
        oracle.push_back(simulate(*predictor, reader, simConfig));
    }

    std::vector<KernelTier> tiers = {KernelTier::Scalar};
    for (const KernelTier tier : availableKernelTiers()) {
        if (tier != KernelTier::Scalar)
            tiers.push_back(tier);
    }

    for (const KernelTier tier : tiers) {
        for (const std::size_t lanes :
             {std::size_t{1}, std::size_t{7}, std::size_t{9}}) {
            std::vector<PredictorPtr> owned;
            std::vector<BranchPredictor *> bank;
            for (std::size_t l = 0; l < lanes; ++l) {
                owned.push_back(makePredictor(ladder[l]));
                bank.push_back(owned.back().get());
            }
            SimConfig tierConfig = simConfig;
            tierConfig.kernelTier = tier;
            std::vector<SimResult> results;
            ASSERT_TRUE(replayKernelBankAny(bank, sharedPacked(),
                                            tierConfig, results));
            ASSERT_EQ(results.size(), lanes);
            for (std::size_t l = 0; l < lanes; ++l) {
                const std::string where =
                    ladder[l] + " tier=" + kernelTierName(tier) +
                    " lanes=" + std::to_string(lanes) + " lane=" +
                    std::to_string(l);
                EXPECT_EQ(results[l].mispredictions,
                          oracle[l].mispredictions)
                    << where;
                expectSamePerBranch(results[l].perBranch,
                                    oracle[l].perBranch, where);
            }
        }
    }
}

} // namespace
} // namespace bpsim
