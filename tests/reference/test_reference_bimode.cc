/**
 * @file
 * Differential test of core/bimode against the independent model in
 * reference_bimode.hh, over every path the simulator drives a bi-mode
 * predictor through: the fused stepFast() core, the virtual
 * predictDetailed()/update() pair, and lanes of the scalar bank and
 * of every SIMD tier this host runs. Each branch's prediction and
 * serving bank must match; a bank lane's counts must match the
 * model's. The configurations cover the canonical d in {4, 9, 11},
 * a choice table one bit narrower and wider than the banks, history
 * shorter than the bank index, and both ablations.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/bimode.hh"
#include "core/factory.hh"
#include "differential.hh"
#include "reference_bimode.hh"

namespace bpsim
{
namespace
{

struct Config
{
    unsigned d;
    unsigned c;
    unsigned h;
    bool partial = true;
    bool alwaysChoice = false;

    std::string
    spec() const
    {
        std::ostringstream os;
        os << "bimode:d=" << d << ",c=" << c << ",h=" << h
           << ",partial=" << partial << ",alwayschoice=" << alwaysChoice;
        return os.str();
    }

    BiModeConfig
    config() const
    {
        BiModeConfig cfg;
        cfg.directionIndexBits = d;
        cfg.choiceIndexBits = c;
        cfg.historyBits = h;
        cfg.partialUpdate = partial;
        cfg.alwaysUpdateChoice = alwaysChoice;
        return cfg;
    }

    reference::ReferenceBiMode
    reference() const
    {
        return reference::ReferenceBiMode(d, c, h, partial, alwaysChoice);
    }
};

std::vector<Config>
allConfigs()
{
    std::vector<Config> configs;
    for (const unsigned d : {4u, 9u, 11u}) {
        configs.push_back({d, d, d});
        configs.push_back({d, d - 1, d});
        configs.push_back({d, d + 1, d});
        configs.push_back({d, d, d - 3});
        configs.push_back({d, d, d, false, false});
        configs.push_back({d, d, d, true, true});
    }
    configs.push_back({4, 4, 0});
    configs.push_back({9, 10, 5, false, true});
    return configs;
}

class BiModeReference : public ::testing::TestWithParam<Config>
{
};

TEST_P(BiModeReference, StepFastMatchesEveryBranch)
{
    const Config config = GetParam();
    reference::ReferenceBiMode reference = config.reference();
    BiModePredictor fast(config.config());
    const MemoryTrace &trace = reference::aliasingTrace();
    std::uint64_t servedBy[2] = {0, 0};
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &record = trace[i];
        const std::uint32_t bank = fast.detailFast(record.pc).bank;
        const auto expected = reference.step(record.pc, record.taken);
        ASSERT_EQ(bank, expected.bank) << "branch " << i;
        ASSERT_EQ(fast.stepFast(record.pc, record.taken), expected.taken)
            << "branch " << i;
        ++servedBy[bank];
    }
    // The stream must reach both banks and the choice exception.
    EXPECT_GT(servedBy[0], 0u);
    EXPECT_GT(servedBy[1], 0u);
    EXPECT_GT(reference.exceptions(), 0u);
}

TEST_P(BiModeReference, VirtualInterfaceMatchesEveryBranch)
{
    const Config config = GetParam();
    reference::ReferenceBiMode reference = config.reference();
    const PredictorPtr predictor = makePredictor(config.spec());
    const MemoryTrace &trace = reference::aliasingTrace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &record = trace[i];
        const PredictionDetail detail = predictor->predictDetailed(record.pc);
        const auto expected = reference.step(record.pc, record.taken);
        ASSERT_EQ(detail.taken, expected.taken) << "branch " << i;
        ASSERT_EQ(detail.bank, expected.bank) << "branch " << i;
        predictor->update(record.pc, record.taken);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BiModeReference, ::testing::ValuesIn(allConfigs()),
    [](const ::testing::TestParamInfo<Config> &info) {
        std::ostringstream os;
        os << "d" << info.param.d << "_c" << info.param.c << "_h"
           << info.param.h << "_p" << info.param.partial << "_a"
           << info.param.alwaysChoice;
        return os.str();
    });

TEST(BiModeReferenceBank, LanesMatchOnEveryTier)
{
    std::vector<std::string> specs;
    std::vector<std::uint64_t> mispredictions;
    const MemoryTrace &trace = reference::aliasingTrace();
    for (const Config &config : allConfigs()) {
        reference::ReferenceBiMode reference = config.reference();
        std::uint64_t misses = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const BranchRecord &record = trace[i];
            misses += reference.step(record.pc, record.taken).taken !=
                      record.taken;
        }
        specs.push_back(config.spec());
        mispredictions.push_back(misses);
    }
    reference::expectBankLanesOnEveryTier(specs, mispredictions);
}

} // namespace
} // namespace bpsim
