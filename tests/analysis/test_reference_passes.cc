/**
 * @file
 * Reference oracles for the results derived from BiasAnalysis's
 * recorded steps.
 *
 * Table 4's class transitions and the interference taxonomy are read
 * from the one recorded pass. The functions here compute both the
 * direct way instead: they drive the predictor themselves through
 * predictDetailed()/update(), the transition counter with a second
 * reset-and-rewind replay once the classes are known, and key their
 * streams by the full (pc, counter) pair in ordered maps. The single
 * pass must agree with them exactly on every counter-exposing kind.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bias_analysis.hh"
#include "analysis/interference.hh"
#include "core/factory.hh"
#include "workload/benchmarks.hh"
#include "workload/generator.hh"

namespace bpsim
{
namespace
{

using StreamKey = std::pair<std::uint64_t, std::uint64_t>;

/** Table 4 the two-pass way: classify the streams over one run, then
 *  replay the trace against the reset predictor and count, per
 *  counter, each change of role between consecutive lookups. */
TransitionCounts
referenceTransitions(BranchPredictor &predictor, TraceReader &trace,
                     double threshold = 0.9)
{
    struct Tally
    {
        std::uint64_t count = 0;
        std::uint64_t taken = 0;
    };
    std::map<StreamKey, Tally> tallies;
    predictor.reset();
    trace.rewind();
    BranchRecord record;
    while (trace.next(record)) {
        if (!record.isConditional())
            continue;
        const PredictionDetail detail = predictor.predictDetailed(record.pc);
        if (detail.usesCounter) {
            Tally &tally = tallies[{record.pc, detail.counterId}];
            ++tally.count;
            tally.taken += record.taken;
        }
        predictor.observeTarget(record.pc, record.target);
        predictor.update(record.pc, record.taken);
    }

    std::map<StreamKey, BiasClass> cls;
    std::map<std::uint64_t, std::uint64_t> st, snt;
    for (const auto &[key, tally] : tallies) {
        cls[key] = classifyStream(tally.taken, tally.count, threshold);
        if (cls[key] == BiasClass::StronglyTaken)
            st[key.second] += tally.count;
        else if (cls[key] == BiasClass::StronglyNotTaken)
            snt[key.second] += tally.count;
    }

    enum class Role { Dominant, NonDominant, Weak };
    std::map<std::uint64_t, Role> last;
    TransitionCounts counts;
    predictor.reset();
    trace.rewind();
    while (trace.next(record)) {
        if (!record.isConditional())
            continue;
        const PredictionDetail detail = predictor.predictDetailed(record.pc);
        if (detail.usesCounter) {
            const std::uint64_t c = detail.counterId;
            const BiasClass of = cls.at({record.pc, c});
            const BiasClass dominant = snt[c] > st[c]
                                           ? BiasClass::StronglyNotTaken
                                           : BiasClass::StronglyTaken;
            const Role role = of == BiasClass::WeaklyBiased ? Role::Weak
                              : of == dominant ? Role::Dominant
                                               : Role::NonDominant;
            const auto prev = last.find(c);
            if (prev != last.end() && prev->second != role) {
                if (prev->second == Role::Dominant)
                    ++counts.dominant;
                else if (prev->second == Role::NonDominant)
                    ++counts.nonDominant;
                else
                    ++counts.weak;
            }
            last[c] = role;
        }
        predictor.observeTarget(record.pc, record.target);
        predictor.update(record.pc, record.taken);
    }
    return counts;
}

/** The interference taxonomy the direct way: one run, a private
 *  2-bit shadow per (pc, counter) pair and the last pc per counter. */
InterferenceStats
referenceInterference(BranchPredictor &predictor, TraceReader &trace)
{
    std::map<std::uint64_t, std::uint64_t> last_writer;
    std::map<StreamKey, int> shadow;
    InterferenceStats stats;
    predictor.reset();
    trace.rewind();
    BranchRecord record;
    while (trace.next(record)) {
        if (!record.isConditional())
            continue;
        const PredictionDetail detail = predictor.predictDetailed(record.pc);
        if (detail.usesCounter) {
            int &own = shadow.try_emplace({record.pc, detail.counterId}, 2)
                           .first->second;
            const auto writer = last_writer.find(detail.counterId);
            if (writer == last_writer.end() || writer->second == record.pc)
                ++stats.unaliasedLookups;
            else if (detail.taken == (own > 1))
                ++stats.neutral;
            else if (detail.taken == record.taken)
                ++stats.constructive;
            else
                ++stats.destructive;
            own = record.taken ? std::min(own + 1, 3) : std::max(own - 1, 0);
            last_writer[detail.counterId] = record.pc;
        }
        predictor.observeTarget(record.pc, record.target);
        predictor.update(record.pc, record.taken);
    }
    return stats;
}

/** A reduced gcc trace: small enough for a unit test, large enough
 *  that every scheme below aliases. */
const MemoryTrace &
gccTrace()
{
    static const MemoryTrace trace = [] {
        auto spec = findBenchmark("gcc");
        spec->dynamicBranches = 150'000;
        return generateWorkloadTrace(*spec);
    }();
    return trace;
}

/** A gshare whose branches with pc bit 4 set are served by no
 *  counter, as a static fallback would serve them: the single pass
 *  must skip them exactly as the direct loops do. */
class PartlyServed : public BranchPredictor
{
  public:
    PredictionDetail
    predictDetailed(std::uint64_t pc) const override
    {
        PredictionDetail detail = inner->predictDetailed(pc);
        if (pc & 0x10)
            detail.usesCounter = false;
        return detail;
    }
    void update(std::uint64_t pc, bool taken) override
    {
        inner->update(pc, taken);
    }
    void reset() override { inner->reset(); }
    std::string name() const override { return "partly-served"; }
    std::uint64_t storageBits() const override
    {
        return inner->storageBits();
    }
    std::uint64_t directionCounters() const override
    {
        return inner->directionCounters();
    }

  private:
    PredictorPtr inner = makePredictor("gshare:n=10");
};

PredictorPtr
make(const std::string &spec)
{
    if (spec == "partly-served")
        return std::make_unique<PartlyServed>();
    return makePredictor(spec);
}

class ReferencePasses : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ReferencePasses, TransitionsMatchTwoPassReplay)
{
    const PredictorPtr single = make(GetParam());
    auto reader = gccTrace().reader();
    BiasAnalysis analysis(*single, reader, StepLog::Keep);
    analysis.run();
    const TransitionCounts got = analysis.countTransitions();

    const PredictorPtr oracle = make(GetParam());
    auto oracle_reader = gccTrace().reader();
    const TransitionCounts want =
        referenceTransitions(*oracle, oracle_reader);

    EXPECT_GT(want.total(), 0u);
    if (GetParam() == std::string("partly-served")) {
        EXPECT_LT(analysis.streams().totalObservations(),
                  analysis.result().branches);
    }
    EXPECT_EQ(got.dominant, want.dominant);
    EXPECT_EQ(got.nonDominant, want.nonDominant);
    EXPECT_EQ(got.weak, want.weak);
}

TEST_P(ReferencePasses, InterferenceMatchesDirectLoop)
{
    const PredictorPtr single = make(GetParam());
    auto reader = gccTrace().reader();
    const InterferenceStats got = measureInterference(*single, reader);

    const PredictorPtr oracle = make(GetParam());
    auto oracle_reader = gccTrace().reader();
    const InterferenceStats want =
        referenceInterference(*oracle, oracle_reader);

    EXPECT_GT(want.aliasedLookups(), 0u);
    EXPECT_EQ(got.unaliasedLookups, want.unaliasedLookups);
    EXPECT_EQ(got.neutral, want.neutral);
    EXPECT_EQ(got.destructive, want.destructive);
    EXPECT_EQ(got.constructive, want.constructive);
}

// filter and tournament report offset counter ids (the filter table
// past the PHT, the second component past the first).
INSTANTIATE_TEST_SUITE_P(
    Kinds, ReferencePasses,
    ::testing::Values("bimodal:n=8", "gshare:n=10,h=4", "gshare:n=10",
                      "bimode:d=8", "agree:n=10,h=10,b=10",
                      "filter:n=10,h=10,b=10,k=6", "gskew:n=9,h=9",
                      "yags:c=10,n=8,t=6,h=8", "tournament:n=10",
                      "partly-served"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name;
        for (const char *c = info.param; *c; ++c)
            name += std::isalnum(static_cast<unsigned char>(*c)) ? *c : '_';
        return name;
    });

} // namespace
} // namespace bpsim
