/**
 * @file
 * Decomposition of a predictor run into per-(branch, counter)
 * substreams — the s_ij streams of the paper's Section 4.
 *
 * Every dynamic conditional branch is served by one direction
 * counter; the tracker accumulates, for each (static branch i,
 * counter j) pair, the stream length |s_ij|, its taken count, and
 * its mispredictions. When asked to at construction, it also records
 * the served branches in trace order as steps (stream id, outcome,
 * miss bit), so the analyses that need the interleaving — the Table 4
 * class transitions and the interference taxonomy — read the one
 * recorded pass instead of re-running the predictor. Everything in
 * Figures 5-8 and Tables 3-4 derives from these streams.
 */

#ifndef BPSIM_ANALYSIS_STREAM_TRACKER_HH
#define BPSIM_ANALYSIS_STREAM_TRACKER_HH

#include <cstdint>
#include <vector>

#include "analysis/bias_class.hh"

namespace bpsim
{

/** Accumulated statistics of one substream s_ij. */
struct StreamStats
{
    std::uint64_t pc = 0;
    std::uint64_t counterId = 0;
    std::uint64_t count = 0;
    std::uint64_t takenCount = 0;
    std::uint64_t mispredictions = 0;

    /** Bias class at the given threshold. */
    BiasClass
    biasClass(double threshold = 0.9) const
    {
        return classifyStream(takenCount, count, threshold);
    }
};

/** One counter-served dynamic branch, packed into one word: the
 *  dense id of its stream (an index into StreamTracker::streams()),
 *  its outcome and whether the predictor missed it. */
struct StreamStep
{
    std::uint32_t bits = 0;

    std::uint32_t stream() const { return bits >> 2; }
    bool taken() const { return (bits & 2) != 0; }
    bool mispredicted() const { return (bits & 1) != 0; }
};

/** Whether a run keeps its step sequence (StreamTracker::steps()).
 *  The steps cost 4 bytes per counter-served branch, so only the
 *  readers of the interleaving ask for them. */
enum class StepLog : bool
{
    Drop,
    Keep,
};

/** Accumulates s_ij streams and, on request, their step sequence
 *  during a run. */
class StreamTracker
{
  public:
    explicit StreamTracker(StepLog steps = StepLog::Drop) : log(steps) {}

    /** Records one dynamic branch served by @p counterId. */
    void
    observe(std::uint64_t pc, std::uint64_t counterId, bool taken,
            bool mispredicted)
    {
        const std::size_t slot = slotOf(pc, counterId);
        const std::uint32_t id = table[slot] != 0
                                     ? table[slot] - 1
                                     : insert(slot, pc, counterId);
        StreamStats &s = streamStats[id];
        ++s.count;
        s.takenCount += taken;
        s.mispredictions += mispredicted;
        ++observations;
        if (log == StepLog::Keep) {
            stepLog.push_back({(id << 2) |
                               (static_cast<std::uint32_t>(taken) << 1) |
                               static_cast<std::uint32_t>(mispredicted)});
        }
    }

    /** Number of distinct substreams seen. */
    std::size_t streamCount() const { return streamStats.size(); }

    /** Total dynamic branches observed. */
    std::uint64_t totalObservations() const { return observations; }

    /** Every stream, indexed by stream id (first-appearance order). */
    const std::vector<StreamStats> &streams() const { return streamStats; }

    /** Every observation, in the order observe() saw them. Panics
     *  unless the tracker was built with StepLog::Keep. */
    const std::vector<StreamStep> &steps() const;

    /** The stream for (pc, counterId), or nullptr if never seen. */
    const StreamStats *find(std::uint64_t pc,
                            std::uint64_t counterId) const;

    /** Streams incident on one counter, in first-appearance order. */
    std::vector<const StreamStats *>
    streamsOfCounter(std::uint64_t counterId) const;

  private:
    /** The slot holding (pc, counterId), or the empty slot where it
     *  goes. Linear probing from a multiplicative hash of the pair;
     *  the match compares the full pair, so no two streams ever
     *  share a slot whatever their pcs and counter ids. */
    std::size_t
    slotOf(std::uint64_t pc, std::uint64_t counterId) const
    {
        const std::uint64_t mixed =
            (pc ^ (counterId * 0xbf58476d1ce4e5b9ULL)) *
            0x9e3779b97f4a7c15ULL;
        const std::size_t mask = table.size() - 1;
        std::size_t s = static_cast<std::size_t>(mixed >> (64 - bits));
        while (table[s] != 0) {
            const StreamStats &at = streamStats[table[s] - 1];
            if (at.pc == pc && at.counterId == counterId)
                break;
            s = (s + 1) & mask;
        }
        return s;
    }

    /** Creates the stream for (pc, counterId) in empty @p slot;
     *  returns its id. */
    std::uint32_t insert(std::size_t slot, std::uint64_t pc,
                         std::uint64_t counterId);

    StepLog log;
    /** Streams by id. */
    std::vector<StreamStats> streamStats;
    /** Dynamic branches observed. */
    std::uint64_t observations = 0;
    /** The observations in order (StepLog::Keep only). */
    std::vector<StreamStep> stepLog;
    /** Stream id + 1 per slot, 0 = empty; 2^bits slots, kept at
     *  most half full. */
    unsigned bits = 10;
    std::vector<std::uint32_t> table =
        std::vector<std::uint32_t>(std::size_t{1} << bits);
};

} // namespace bpsim

#endif // BPSIM_ANALYSIS_STREAM_TRACKER_HH
