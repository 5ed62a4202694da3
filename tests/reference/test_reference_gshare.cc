/**
 * @file
 * Differential test of predictors/gshare against the independent
 * model in reference_gshare.hh, over the fused stepFast() core, the
 * virtual predictDetailed()/update() pair, and lanes of the scalar
 * bank and of every SIMD tier this host runs. The configurations
 * cover n in {4, 9, 11} with the single-PHT history (h = n), a
 * multi-PHT history (h < n) and no history at all.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "differential.hh"
#include "predictors/gshare.hh"
#include "reference_gshare.hh"

namespace bpsim
{
namespace
{

struct Config
{
    unsigned n;
    unsigned h;

    std::string
    spec() const
    {
        std::ostringstream os;
        os << "gshare:n=" << n << ",h=" << h;
        return os.str();
    }
};

std::vector<Config>
allConfigs()
{
    std::vector<Config> configs;
    for (const unsigned n : {4u, 9u, 11u}) {
        configs.push_back({n, n});
        configs.push_back({n, n - 3});
        configs.push_back({n, 0});
    }
    return configs;
}

class GshareReference : public ::testing::TestWithParam<Config>
{
};

TEST_P(GshareReference, StepFastMatchesEveryBranch)
{
    const Config config = GetParam();
    reference::ReferenceGshare reference(config.n, config.h);
    GsharePredictor fast(config.n, config.h);
    const MemoryTrace &trace = reference::aliasingTrace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &record = trace[i];
        ASSERT_EQ(fast.predictFast(record.pc), reference.predict(record.pc))
            << "branch " << i;
        ASSERT_EQ(fast.stepFast(record.pc, record.taken),
                  reference.step(record.pc, record.taken))
            << "branch " << i;
    }
}

TEST_P(GshareReference, VirtualInterfaceMatchesEveryBranch)
{
    const Config config = GetParam();
    reference::ReferenceGshare reference(config.n, config.h);
    const PredictorPtr predictor = makePredictor(config.spec());
    const MemoryTrace &trace = reference::aliasingTrace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &record = trace[i];
        ASSERT_EQ(predictor->predictDetailed(record.pc).taken,
                  reference.step(record.pc, record.taken))
            << "branch " << i;
        predictor->update(record.pc, record.taken);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GshareReference, ::testing::ValuesIn(allConfigs()),
    [](const ::testing::TestParamInfo<Config> &info) {
        std::ostringstream os;
        os << "n" << info.param.n << "_h" << info.param.h;
        return os.str();
    });

TEST(GshareReferenceBank, LanesMatchOnEveryTier)
{
    std::vector<std::string> specs;
    std::vector<std::uint64_t> mispredictions;
    const MemoryTrace &trace = reference::aliasingTrace();
    for (const Config &config : allConfigs()) {
        reference::ReferenceGshare reference(config.n, config.h);
        std::uint64_t misses = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const BranchRecord &record = trace[i];
            misses += reference.step(record.pc, record.taken) != record.taken;
        }
        specs.push_back(config.spec());
        mispredictions.push_back(misses);
    }
    reference::expectBankLanesOnEveryTier(specs, mispredictions);
}

} // namespace
} // namespace bpsim
