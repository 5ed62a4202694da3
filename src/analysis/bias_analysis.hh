/**
 * @file
 * Driver tying together the Section 4 analyses: it runs a predictor
 * over a trace while decomposing the branch stream into s_ij
 * substreams, then derives
 *
 *  - the per-counter bias profile (Figures 5/6, Table 3),
 *  - the misprediction breakdown by bias class (Figures 7/8),
 *  - the bias-class transition counts (Table 4).
 *
 * run() is the one pass that drives the predictor. Built with
 * StepLog::Keep, it also records every counter-served branch as a
 * step (stream, outcome, miss) in the StreamTracker; the transition
 * count, which needs the classes that are only known after the whole
 * run, walks those steps afterwards instead of replaying the trace.
 * The profile and the breakdown read the streams alone.
 */

#ifndef BPSIM_ANALYSIS_BIAS_ANALYSIS_HH
#define BPSIM_ANALYSIS_BIAS_ANALYSIS_HH

#include "analysis/counter_profile.hh"
#include "analysis/stream_tracker.hh"
#include "sim/simulator.hh"

namespace bpsim
{

/** Misprediction attributed to each bias class, as percentages of
 *  all measured dynamic branches (so the three sum to the scheme's
 *  overall misprediction rate — the paper's Figure 7/8 encoding). */
struct MispredictionBreakdown
{
    double stPercent = 0.0;
    double sntPercent = 0.0;
    double wbPercent = 0.0;

    double
    totalPercent() const
    {
        return stPercent + sntPercent + wbPercent;
    }
};

/** Table 4: how often each class's run at a counter was broken. */
struct TransitionCounts
{
    /** Changes leaving the counter's dominant class. */
    std::uint64_t dominant = 0;
    /** Changes leaving the non-dominant strongly-biased class. */
    std::uint64_t nonDominant = 0;
    /** Changes leaving the weakly-biased class. */
    std::uint64_t weak = 0;

    std::uint64_t
    total() const
    {
        return dominant + nonDominant + weak;
    }
};

/** One-predictor, one-trace Section 4 analysis. */
class BiasAnalysis
{
  public:
    /**
     * @param predictor analyzed predictor; reset before the pass
     * @param trace trace to analyze; rewound before the pass
     * @param steps StepLog::Keep when the caller reads the step
     *        sequence: countTransitions() or streams().steps()
     * @param threshold bias-class threshold (paper: 0.9)
     */
    BiasAnalysis(BranchPredictor &predictor, TraceReader &trace,
                 StepLog steps = StepLog::Drop, double threshold = 0.9);

    /** Executes the pass (idempotent). */
    void run();

    /** The substream decomposition and its steps (run() first). */
    const StreamTracker &streams() const { return tracker; }

    /** Overall accuracy result of the pass. */
    const SimResult &result() const { return simResult; }

    /** Per-counter bias profile. */
    CounterProfile counterProfile() const;

    /** Misprediction percentages by bias class. */
    MispredictionBreakdown breakdown() const;

    /** Table 4 transition counts, read from the recorded steps
     *  (StepLog::Keep only; panics otherwise). */
    TransitionCounts countTransitions() const;

  private:
    void ensureRan() const;

    BranchPredictor &predictor;
    TraceReader &trace;
    double threshold;
    bool ran = false;
    StreamTracker tracker;
    SimResult simResult;
};

} // namespace bpsim

#endif // BPSIM_ANALYSIS_BIAS_ANALYSIS_HH
