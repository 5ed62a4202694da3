/** @file Bit-identity tests for the devirtualized replay path.
 *
 * The contract (sim/replay_kernel.hh): for every factory-
 * constructible predictor, simulateAny() must produce exactly the
 * counts of the virtual simulate() loop AND leave the predictor in
 * the identical state. Each equivalence test therefore runs two
 * passes without resetting — a state divergence in pass one surfaces
 * as a count mismatch in pass two.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>

#include "campaign/campaign.hh"
#include "campaign/emitters.hh"
#include "core/factory.hh"
#include "sim/replay.hh"
#include "sim/trace_cache.hh"
#include "trace/packed_trace.hh"
#include "workload/generator.hh"

namespace bpsim
{
namespace
{

WorkloadSpec
replaySpec()
{
    WorkloadSpec spec;
    spec.name = "replay-test";
    spec.suite = "test";
    spec.staticBranches = 200;
    spec.dynamicBranches = 30'000;
    spec.seed = 17;
    return spec;
}

/** A shared workload trace (includes non-conditional records). */
const MemoryTrace &
sharedTrace()
{
    static const MemoryTrace trace = generateWorkloadTrace(replaySpec());
    return trace;
}

const PackedTrace &
sharedPacked()
{
    static const PackedTrace packed(sharedTrace());
    return packed;
}

/**
 * One configuration per factory kind, sized small so the aliasing
 * that distinguishes the schemes actually occurs in 30k branches.
 * CoversEveryFactoryKind below fails if a kind is ever added to the
 * factory without extending this list.
 */
const std::vector<std::string> kAllKindSpecs = {
    "taken",
    "nottaken",
    "btfn:l=6",
    "bimodal:n=8",
    "gag:h=8",
    "gas:h=6,a=2",
    "pag:h=6,l=6",
    "pas:h=5,l=6,a=2",
    "gshare:n=8,h=8",
    "bimode:d=7,c=7,h=7",
    "agree:n=8,h=8,b=8",
    "gskew:n=7,h=7",
    "yags:c=8,n=6,t=6,h=6",
    "tournament:n=7",
    "perceptron:n=5,h=12",
    "filter:n=8,h=8,b=8,k=3",
};

std::string
kindOf(const std::string &config)
{
    return config.substr(0, config.find(':'));
}

TEST(ReplayCoverage, CoversEveryFactoryKind)
{
    for (const std::string &kind : knownPredictorKinds()) {
        const bool covered = std::any_of(
            kAllKindSpecs.begin(), kAllKindSpecs.end(),
            [&](const std::string &config) {
                return kindOf(config) == kind;
            });
        EXPECT_TRUE(covered)
            << "no replay-equivalence spec for factory kind '" << kind
            << "' — extend kAllKindSpecs";
    }
}

TEST(ReplayCoverage, FastReplayKindsAreFactoryKinds)
{
    // hasFastReplay() must agree with the registry entry flags, and
    // every fast kind must be a factory kind.
    const auto kinds = knownPredictorKinds();
    unsigned fast = 0;
    for (const PredictorKindInfo &info : predictorKindInfos()) {
        EXPECT_EQ(hasFastReplay(info.kind), info.fastReplay);
        EXPECT_NE(std::find(kinds.begin(), kinds.end(), info.kind),
                  kinds.end());
        fast += info.fastReplay ? 1 : 0;
    }
    // btfn reads branch targets, which packed traces do not carry:
    // it alone stays on the virtual loop.
    EXPECT_EQ(fast, kinds.size() - 1);
    EXPECT_TRUE(hasFastReplay("filter"));
    EXPECT_TRUE(hasFastReplay("gag"));
    EXPECT_TRUE(hasFastReplay("perceptron"));
    EXPECT_TRUE(hasFastReplay("taken"));
    EXPECT_TRUE(hasFastReplay("nottaken"));
    EXPECT_FALSE(hasFastReplay("btfn"));
    EXPECT_FALSE(hasFastReplay("no-such-kind"));
}

class ReplayEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ReplayEquivalence, CountsAndStateMatchVirtualLoop)
{
    const std::string &config = GetParam();
    PredictorPtr reference = makePredictor(config);
    PredictorPtr candidate = makePredictor(config);

    // Two passes, no reset between them: pass 2 only matches if pass
    // 1 left both predictors in identical state.
    for (int pass = 1; pass <= 2; ++pass) {
        auto reference_reader = sharedTrace().reader();
        const SimResult expected =
            simulate(*reference, reference_reader);
        auto candidate_reader = sharedTrace().reader();
        const SimResult actual = simulateAny(
            *candidate, candidate_reader, &sharedPacked());

        EXPECT_EQ(actual.branches, expected.branches)
            << config << " pass " << pass;
        EXPECT_EQ(actual.mispredictions, expected.mispredictions)
            << config << " pass " << pass;
        EXPECT_EQ(actual.takenBranches, expected.takenBranches)
            << config << " pass " << pass;
        EXPECT_EQ(actual.predictorName, expected.predictorName);
    }
}

TEST_P(ReplayEquivalence, WarmupMatchesVirtualLoop)
{
    const std::string &config = GetParam();
    PredictorPtr reference = makePredictor(config);
    PredictorPtr candidate = makePredictor(config);

    SimConfig sim_config;
    sim_config.warmupBranches = 500;
    auto reference_reader = sharedTrace().reader();
    const SimResult expected =
        simulate(*reference, reference_reader, sim_config);
    auto candidate_reader = sharedTrace().reader();
    const SimResult actual = simulateAny(
        *candidate, candidate_reader, &sharedPacked(), sim_config);

    EXPECT_EQ(actual.branches, expected.branches) << config;
    EXPECT_EQ(actual.mispredictions, expected.mispredictions) << config;
    EXPECT_EQ(actual.takenBranches, expected.takenBranches) << config;
}

TEST_P(ReplayEquivalence, PerBranchTrackingFallsBackIdentically)
{
    const std::string &config = GetParam();
    PredictorPtr reference = makePredictor(config);
    PredictorPtr candidate = makePredictor(config);

    SimConfig sim_config;
    sim_config.trackPerBranch = true;
    auto reference_reader = sharedTrace().reader();
    const SimResult expected =
        simulate(*reference, reference_reader, sim_config);
    auto candidate_reader = sharedTrace().reader();
    const SimResult actual = simulateAny(
        *candidate, candidate_reader, &sharedPacked(), sim_config);

    EXPECT_EQ(actual.mispredictions, expected.mispredictions) << config;
    ASSERT_EQ(actual.perBranch.size(), expected.perBranch.size());
    for (std::size_t i = 0; i < actual.perBranch.size(); ++i) {
        EXPECT_EQ(actual.perBranch[i].pc, expected.perBranch[i].pc);
        EXPECT_EQ(actual.perBranch[i].mispredictions,
                  expected.perBranch[i].mispredictions);
        EXPECT_EQ(actual.perBranch[i].executions,
                  expected.perBranch[i].executions);
        EXPECT_EQ(actual.perBranch[i].takenCount,
                  expected.perBranch[i].takenCount);
    }
}

std::string
specTestName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string name;
    for (const char c : info.param) {
        name.push_back(
            std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ReplayEquivalence,
                         ::testing::ValuesIn(kAllKindSpecs),
                         specTestName);

TEST(ReplayKernelEdge, WarmupLargerThanTraceMeasuresNothing)
{
    PredictorPtr reference = makePredictor("bimode:d=7");
    PredictorPtr candidate = makePredictor("bimode:d=7");
    SimConfig sim_config;
    sim_config.warmupBranches = sharedPacked().size() + 1000;

    auto reference_reader = sharedTrace().reader();
    const SimResult expected =
        simulate(*reference, reference_reader, sim_config);
    auto candidate_reader = sharedTrace().reader();
    const SimResult actual = simulateAny(
        *candidate, candidate_reader, &sharedPacked(), sim_config);

    EXPECT_EQ(expected.branches, 0u);
    EXPECT_EQ(actual.branches, 0u);
    EXPECT_EQ(actual.mispredictions, expected.mispredictions);
}

TEST(ReplayDispatch, NullPackedUsesVirtualPath)
{
    PredictorPtr reference = makePredictor("gshare:n=8");
    PredictorPtr candidate = makePredictor("gshare:n=8");
    auto reference_reader = sharedTrace().reader();
    const SimResult expected = simulate(*reference, reference_reader);
    auto candidate_reader = sharedTrace().reader();
    const SimResult actual =
        simulateAny(*candidate, candidate_reader, nullptr);
    EXPECT_EQ(actual.mispredictions, expected.mispredictions);
    EXPECT_EQ(actual.branches, expected.branches);
}

TEST(ReplayCampaign, PackedAndUnpackedCampaignsSerializeIdentically)
{
    TraceCache cache;
    std::vector<BenchmarkTrace> benchmarks =
        resolveTraces(cache, {replaySpec()});
    ASSERT_EQ(benchmarks.size(), 1u);
    ASSERT_NE(benchmarks[0].packed, nullptr);

    const std::vector<std::string> configs = {
        "bimode:d=7", "gshare:n=8", "perceptron:n=5,h=12",
        "not-a-kind"};

    Campaign packed_campaign;
    packed_campaign.addGrid(configs, benchmarks);

    std::vector<BenchmarkTrace> unpacked = benchmarks;
    unpacked[0].packed = nullptr;
    Campaign virtual_campaign;
    virtual_campaign.addGrid(configs, unpacked);

    const auto packed_results = packed_campaign.run(1);
    const auto virtual_results = virtual_campaign.run(1);

    // Default serialization excludes timing, so the two runs must be
    // byte-identical — the emitter-level form of the bit-identity
    // contract (including the error row for the bad config).
    std::ostringstream packed_json, virtual_json;
    writeResultsJson(packed_json, packed_results);
    writeResultsJson(virtual_json, virtual_results);
    EXPECT_EQ(packed_json.str(), virtual_json.str());
}

TEST(ReplayTiming, TimingIsCapturedButNotSerializedByDefault)
{
    PredictorPtr predictor = makePredictor("bimode:d=7");
    auto reader = sharedTrace().reader();
    const SimResult result =
        simulateAny(*predictor, reader, &sharedPacked());
    EXPECT_GT(result.wallNanos, 0u);
    EXPECT_GT(result.branchesPerSec(), 0.0);

    std::ostringstream plain, timed;
    result.toJson(plain);
    result.toJson(timed, /*withTiming=*/true);
    EXPECT_EQ(plain.str().find("wallNanos"), std::string::npos);
    EXPECT_NE(timed.str().find("wallNanos"), std::string::npos);
    EXPECT_NE(timed.str().find("branchesPerSec"), std::string::npos);
}

} // namespace
} // namespace bpsim
