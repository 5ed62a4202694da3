/**
 * @file
 * Aliasing-interference taxonomy.
 *
 * Section 4 of the paper classifies *streams*; the companion view
 * (introduced by Michaud, Seznec & Uhlig and by Young, Gloy & Smith,
 * both cited in the paper) classifies individual *aliased lookups*:
 * a dynamic branch whose serving counter was last trained by a
 * different static branch experienced interference, which is
 *
 *  - neutral       the prediction was what this branch's own state
 *                  would have produced anyway,
 *  - destructive   the intruder flipped the prediction from correct
 *                  to incorrect,
 *  - constructive  the intruder flipped it from incorrect to correct.
 *
 * We measure this by shadowing every (static branch, counter) pair
 * with a private 2-bit counter trained only by that branch: the
 * "interference-free" prediction the shared counter is compared to.
 * The taxonomy runs no predictor loop of its own: it takes the one
 * BiasAnalysis pass and walks the steps that pass recorded, with a
 * shadow counter per stream and the last stream per counter.
 */

#ifndef BPSIM_ANALYSIS_INTERFERENCE_HH
#define BPSIM_ANALYSIS_INTERFERENCE_HH

#include <cstdint>

#include "predictors/predictor.hh"
#include "trace/trace_source.hh"

namespace bpsim
{

/** Counts of lookup-level interference events. */
struct InterferenceStats
{
    /** Lookups whose counter was last written by the same branch. */
    std::uint64_t unaliasedLookups = 0;
    /** Aliased lookups where shared and private agreed. */
    std::uint64_t neutral = 0;
    /** Aliased lookups flipped correct -> incorrect. */
    std::uint64_t destructive = 0;
    /** Aliased lookups flipped incorrect -> correct. */
    std::uint64_t constructive = 0;

    std::uint64_t
    aliasedLookups() const
    {
        return neutral + destructive + constructive;
    }

    std::uint64_t
    totalLookups() const
    {
        return unaliasedLookups + aliasedLookups();
    }

    /** Percentage helpers over all lookups. */
    double aliasedPercent() const;
    double destructivePercent() const;
    double constructivePercent() const;
    double neutralPercent() const;
};

/**
 * Runs @p predictor over @p trace (rewound first) in one BiasAnalysis
 * pass, then attributes each counter-served lookup it recorded to
 * the taxonomy above.
 *
 * The shadow state costs one byte per live (branch, counter) pair;
 * for the table sizes in this project that is a few hundred thousand
 * entries at most.
 *
 * @param predictor a reset predictor exposing direction counters
 * @param trace the trace to measure
 */
InterferenceStats measureInterference(BranchPredictor &predictor,
                                      TraceReader &trace);

} // namespace bpsim

#endif // BPSIM_ANALYSIS_INTERFERENCE_HH
