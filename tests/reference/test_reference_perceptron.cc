/**
 * @file
 * Differential test of predictors/perceptron against the independent
 * model in reference_perceptron.hh, over every path the simulator
 * drives a perceptron through: the fused stepFast() core, the virtual
 * predictDetailed()/update() pair, and lanes of the scalar bank.
 *
 * The stream is built to push weights into their clamps: a branch
 * whose outcome copies the outcome three branches back drives that
 * history weight up, one that negates it drives it down, and the
 * random-outcome branches between them keep every other weight
 * moving. Training stops once |y| exceeds theta, so a weight can be
 * driven into its clamp only where theta >= the largest weight: for
 * w = 2 at every h and for w = 8 at h >= 59. There the stream must
 * reach both clamps. The training rule keeps wider weights near
 * theta, so for them the stream checks the unclamped range.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "predictors/perceptron.hh"
#include "reference_perceptron.hh"
#include "sim/replay.hh"
#include "trace/memory_trace.hh"
#include "trace/packed_trace.hh"
#include "util/random.hh"

namespace bpsim
{
namespace
{

struct Config
{
    unsigned n;
    unsigned h;
    unsigned w;

    std::string
    spec() const
    {
        std::ostringstream os;
        os << "perceptron:n=" << n << ",h=" << h << ",w=" << w;
        return os.str();
    }

    /** Whether the training rule can reach the weight clamps. */
    bool
    saturates() const
    {
        return std::floor(1.93 * h + 14) >= (1 << (w - 1)) - 1;
    }
};

std::vector<Config>
allConfigs()
{
    std::vector<Config> configs;
    for (const unsigned n : {1u, 5u, 9u}) {
        for (const unsigned h : {1u, 7u, 8u, 15u, 16u, 21u, 62u, 63u}) {
            for (const unsigned w : {2u, 8u, 15u, 16u})
                configs.push_back({n, h, w});
        }
    }
    return configs;
}

/** The saturating stream (see the file comment), in periods of
 *  eight: six random-outcome branches over 4096 pcs, a copy and a
 *  negation of the outcome three branches back. */
const MemoryTrace &
saturatingTrace()
{
    static const MemoryTrace trace = [] {
        MemoryTrace built;
        Rng rng(0x9e2c);
        std::vector<bool> outcomes;
        for (std::size_t i = 0; i < 60'000; ++i) {
            BranchRecord record;
            record.type = BranchType::Conditional;
            switch (i % 8) {
              case 3:
                record.pc = 0x400000;
                record.taken = outcomes[i - 3];
                break;
              case 7:
                record.pc = 0x400004;
                record.taken = !outcomes[i - 3];
                break;
              default:
                record.pc = 0x400008 + 4 * rng.nextBounded(4096);
                record.taken = rng.nextBool(0.5);
                break;
            }
            record.target = record.pc + 64;
            outcomes.push_back(record.taken);
            built.append(record);
        }
        return built;
    }();
    return trace;
}

reference::ReferencePerceptron
makeReference(const Config &config)
{
    return reference::ReferencePerceptron(config.n, config.h, config.w);
}

class PerceptronReference : public ::testing::TestWithParam<Config>
{
};

TEST_P(PerceptronReference, StepFastMatchesEveryBranch)
{
    const Config config = GetParam();
    reference::ReferencePerceptron reference = makeReference(config);
    PerceptronPredictor fast(
        {.tableIndexBits = config.n, .historyBits = config.h,
         .weightBits = config.w});
    const MemoryTrace &trace = saturatingTrace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &record = trace[i];
        ASSERT_EQ(fast.outputFor(record.pc), reference.output(record.pc))
            << "branch " << i;
        ASSERT_EQ(fast.stepFast(record.pc, record.taken),
                  reference.step(record.pc, record.taken))
            << "branch " << i;
    }
    if (config.saturates()) {
        EXPECT_TRUE(reference.sawMaxWeight());
        EXPECT_TRUE(reference.sawMinWeight());
    }
}

TEST_P(PerceptronReference, VirtualInterfaceMatchesEveryBranch)
{
    const Config config = GetParam();
    reference::ReferencePerceptron reference = makeReference(config);
    const PredictorPtr predictor = makePredictor(config.spec());
    const MemoryTrace &trace = saturatingTrace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &record = trace[i];
        ASSERT_EQ(predictor->predictDetailed(record.pc).taken,
                  reference.step(record.pc, record.taken))
            << "branch " << i;
        predictor->update(record.pc, record.taken);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, PerceptronReference, ::testing::ValuesIn(allConfigs()),
    [](const ::testing::TestParamInfo<Config> &info) {
        std::ostringstream os;
        os << "n" << info.param.n << "_h" << info.param.h << "_w"
           << info.param.w;
        return os.str();
    });

TEST(PerceptronReferenceBank, ScalarBankLanesMatch)
{
    // One bank of every configuration: the SIMD tiers have no
    // perceptron layout, so the lanes run on the scalar bank.
    const std::vector<Config> configs = allConfigs();
    std::vector<PredictorPtr> owned;
    std::vector<BranchPredictor *> bank;
    for (const Config &config : configs) {
        owned.push_back(makePredictor(config.spec()));
        bank.push_back(owned.back().get());
    }
    const PackedTrace packed(saturatingTrace());
    std::vector<SimResult> results;
    ASSERT_TRUE(replayKernelBankAny(bank, packed, {}, results));
    ASSERT_EQ(results.size(), configs.size());

    const MemoryTrace &trace = saturatingTrace();
    for (std::size_t l = 0; l < configs.size(); ++l) {
        reference::ReferencePerceptron reference = makeReference(configs[l]);
        std::uint64_t mispredictions = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const BranchRecord &record = trace[i];
            mispredictions +=
                reference.step(record.pc, record.taken) != record.taken;
        }
        EXPECT_EQ(results[l].branches, trace.size()) << configs[l].spec();
        EXPECT_EQ(results[l].mispredictions, mispredictions)
            << configs[l].spec();
    }
}

} // namespace
} // namespace bpsim
