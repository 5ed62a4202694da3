/** @file Tests for the Section 4 analysis driver. */

#include <gtest/gtest.h>

#include "analysis/bias_analysis.hh"
#include "predictors/bimodal.hh"
#include "predictors/gshare.hh"
#include "predictors/static_predictors.hh"
#include "trace/memory_trace.hh"

namespace bpsim
{
namespace
{

BranchRecord
cond(std::uint64_t pc, bool taken)
{
    BranchRecord record;
    record.pc = pc;
    record.target = pc + 32;
    record.type = BranchType::Conditional;
    record.taken = taken;
    return record;
}

TEST(BiasAnalysis, ResultMatchesPlainSimulation)
{
    MemoryTrace trace;
    for (int i = 0; i < 100; ++i) {
        trace.append(cond(0x1000, true));
        trace.append(cond(0x2000, i % 2 == 0));
    }
    BimodalPredictor for_analysis(6);
    auto reader = trace.reader();
    BiasAnalysis analysis(for_analysis, reader);
    analysis.run();

    BimodalPredictor for_sim(6);
    auto reader2 = trace.reader();
    const SimResult plain = simulate(for_sim, reader2);
    EXPECT_EQ(analysis.result().branches, plain.branches);
    EXPECT_EQ(analysis.result().mispredictions, plain.mispredictions);
}

TEST(BiasAnalysis, BreakdownSumsToTotalRate)
{
    MemoryTrace trace;
    for (int i = 0; i < 300; ++i) {
        trace.append(cond(0x1000, true));
        trace.append(cond(0x2004, i % 2 == 0));
        trace.append(cond(0x3008, false));
    }
    GsharePredictor predictor(6, 6);
    auto reader = trace.reader();
    BiasAnalysis analysis(predictor, reader);
    analysis.run();
    const MispredictionBreakdown breakdown = analysis.breakdown();
    EXPECT_NEAR(breakdown.totalPercent(),
                analysis.result().mispredictionRate(), 1e-9);
    EXPECT_GE(breakdown.stPercent, 0.0);
    EXPECT_GE(breakdown.sntPercent, 0.0);
    EXPECT_GE(breakdown.wbPercent, 0.0);
}

TEST(BiasAnalysis, AttributesWeakErrorsToWbClass)
{
    // An alternating branch under a bimodal predictor: its stream is
    // WB (50% taken) and nearly all mispredictions land in WB.
    MemoryTrace trace;
    for (int i = 0; i < 400; ++i)
        trace.append(cond(0x1000, i % 2 == 0));
    BimodalPredictor predictor(6);
    auto reader = trace.reader();
    BiasAnalysis analysis(predictor, reader);
    analysis.run();
    const MispredictionBreakdown breakdown = analysis.breakdown();
    EXPECT_GT(breakdown.wbPercent, 30.0);
    EXPECT_EQ(breakdown.stPercent, 0.0);
    EXPECT_EQ(breakdown.sntPercent, 0.0);
}

TEST(BiasAnalysis, CounterProfileSeesAliasedStreams)
{
    // Two opposite strongly biased branches aliasing one bimodal
    // counter: that counter must show a large non-dominant share.
    MemoryTrace trace;
    for (int i = 0; i < 200; ++i) {
        trace.append(cond(0x1000, true));
        trace.append(cond(0x1040, false)); // aliases at 4 index bits
    }
    BimodalPredictor predictor(4);
    auto reader = trace.reader();
    BiasAnalysis analysis(predictor, reader);
    analysis.run();
    const CounterProfile profile = analysis.counterProfile();
    ASSERT_EQ(profile.activeCounters, 1u);
    EXPECT_NEAR(profile.counters[0].dominantShare(), 0.5, 1e-12);
    EXPECT_NEAR(profile.counters[0].nonDominantShare(), 0.5, 1e-12);
    EXPECT_EQ(profile.counters[0].wbShare(), 0.0);
}

TEST(BiasAnalysis, TransitionsCountInterleaving)
{
    // Strict interleave of an ST stream and an SNT stream on one
    // counter: every access changes class, so each stream's run is
    // broken once per pair.
    MemoryTrace trace;
    const int pairs = 100;
    for (int i = 0; i < pairs; ++i) {
        trace.append(cond(0x1000, true));
        trace.append(cond(0x1040, false));
    }
    BimodalPredictor predictor(4);
    auto reader = trace.reader();
    BiasAnalysis analysis(predictor, reader, StepLog::Keep);
    analysis.run();
    const TransitionCounts counts = analysis.countTransitions();
    // 2*pairs accesses alternate classes: every consecutive pair is
    // a transition (2*pairs - 1 of them), split evenly between the
    // two roles up to the odd one out.
    EXPECT_EQ(counts.total(), 2u * pairs - 1);
    EXPECT_EQ(counts.weak, 0u);
    EXPECT_NEAR(static_cast<double>(counts.dominant),
                static_cast<double>(counts.nonDominant), 1.0);
}

TEST(BiasAnalysis, NoTransitionsForIsolatedStreams)
{
    // Two branches on different counters never interleave classes.
    MemoryTrace trace;
    for (int i = 0; i < 100; ++i) {
        trace.append(cond(0x1000, true));
        trace.append(cond(0x1004, false));
    }
    BimodalPredictor predictor(6);
    auto reader = trace.reader();
    BiasAnalysis analysis(predictor, reader, StepLog::Keep);
    analysis.run();
    const TransitionCounts counts = analysis.countTransitions();
    EXPECT_EQ(counts.total(), 0u);
}

TEST(BiasAnalysis, RunIsIdempotent)
{
    MemoryTrace trace;
    for (int i = 0; i < 50; ++i)
        trace.append(cond(0x1000, true));
    BimodalPredictor predictor(6);
    auto reader = trace.reader();
    BiasAnalysis analysis(predictor, reader);
    analysis.run();
    const std::uint64_t branches = analysis.result().branches;
    analysis.run();
    EXPECT_EQ(analysis.result().branches, branches);
}

TEST(BiasAnalysisDeath, RequiresCounters)
{
    MemoryTrace trace;
    AlwaysTakenPredictor predictor;
    auto reader = trace.reader();
    EXPECT_EXIT((BiasAnalysis{predictor, reader}),
                ::testing::ExitedWithCode(1), "exposes none");
}

TEST(BiasAnalysisDeath, AccessBeforeRunPanics)
{
    MemoryTrace trace;
    BimodalPredictor predictor(4);
    auto reader = trace.reader();
    BiasAnalysis analysis(predictor, reader);
    EXPECT_DEATH(analysis.counterProfile(), "before run");
}

TEST(BiasAnalysisDeath, TransitionsNeedTheStepLog)
{
    MemoryTrace trace;
    for (int i = 0; i < 20; ++i)
        trace.append(cond(0x1000, i % 3 == 0));
    BimodalPredictor predictor(4);
    auto reader = trace.reader();
    BiasAnalysis analysis(predictor, reader);
    analysis.run();
    // The profile and breakdown need no steps; transitions do.
    EXPECT_EQ(analysis.streams().totalObservations(), 20u);
    EXPECT_NEAR(analysis.breakdown().totalPercent(),
                analysis.result().mispredictionRate(), 1e-9);
    EXPECT_DEATH(analysis.countTransitions(), "StepLog::Keep");
}

} // namespace
} // namespace bpsim
