#include "analysis/interference.hh"

#include "analysis/bias_analysis.hh"
#include "predictors/counter.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace bpsim
{

double
InterferenceStats::aliasedPercent() const
{
    return percent(aliasedLookups(), totalLookups());
}

double
InterferenceStats::destructivePercent() const
{
    return percent(destructive, totalLookups());
}

double
InterferenceStats::constructivePercent() const
{
    return percent(constructive, totalLookups());
}

double
InterferenceStats::neutralPercent() const
{
    return percent(neutral, totalLookups());
}

InterferenceStats
measureInterference(BranchPredictor &predictor, TraceReader &trace)
{
    if (predictor.directionCounters() == 0)
        BPSIM_FATAL("interference analysis requires a predictor that "
                    "exposes direction counters ("
                    << predictor.name() << " exposes none)");
    BiasAnalysis analysis(predictor, trace, StepLog::Keep);
    analysis.run();
    const std::vector<StreamStats> &streams = analysis.streams().streams();

    // Interference-free shadow counter per stream (a 2-bit counter
    // starting weakly-taken), and the stream that last used each
    // counter (none yet). A counter's users are told apart by stream
    // because its streams are exactly its distinct static branches.
    std::vector<std::uint8_t> shadow(streams.size(),
                                     SaturatingCounter::weaklyTaken(2));
    constexpr std::uint32_t none = ~std::uint32_t{0};
    std::vector<std::uint32_t> last_stream(
        static_cast<std::size_t>(predictor.directionCounters()), none);

    InterferenceStats stats;
    for (const StreamStep step : analysis.streams().steps()) {
        const std::uint32_t id = step.stream();
        const bool prediction = step.taken() != step.mispredicted();
        std::uint8_t &private_counter = shadow[id];
        const bool private_prediction = private_counter > 1;
        std::uint32_t &last = last_stream[static_cast<std::size_t>(
            streams[id].counterId)];
        if (last == none || last == id) {
            ++stats.unaliasedLookups;
        } else if (prediction == private_prediction) {
            ++stats.neutral;
        } else if (prediction == step.taken()) {
            // The intruder's training flipped this lookup onto the
            // right answer.
            ++stats.constructive;
        } else {
            ++stats.destructive;
        }

        // Train the shadow with this branch's outcome only.
        if (step.taken()) {
            if (private_counter < 3)
                ++private_counter;
        } else {
            if (private_counter > 0)
                --private_counter;
        }
        last = id;
    }
    return stats;
}

} // namespace bpsim
