/**
 * @file
 * A gshare branch predictor written from its description in Lee,
 * Chen & Mudge, "The Bi-Mode Branch Predictor" (MICRO-30 1997, §1:
 * McFarling's gshare xors the global history with the branch address
 * to index one table of 2-bit counters), to serve as a test oracle
 * for predictors/gshare.
 *
 * It shares no code with src/: the table is a plain array of 2-bit
 * counters held as integers 0..3 (taken when >= 2) and the history
 * is a bare integer. With an n-bit index and h < n history bits the
 * top n - h index bits are address bits only, which is the paper's
 * multi-PHT gshare. Where the paper leaves a choice open it follows
 * the simulator's documented conventions: the index takes the low
 * bits of the branch's word address (pc / 4), the history xors into
 * its low h bits and starts all not-taken, and every counter starts
 * weakly taken.
 */

#ifndef BPSIM_TESTS_REFERENCE_REFERENCE_GSHARE_HH
#define BPSIM_TESTS_REFERENCE_REFERENCE_GSHARE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bpsim::reference
{

class ReferenceGshare
{
  public:
    /**
     * @param indexBits n: the table holds 2^n counters
     * @param historyBits h: global history length, h <= n
     */
    ReferenceGshare(unsigned indexBits, unsigned historyBits)
        : tableSize(std::size_t{1} << indexBits),
          historySize(std::uint64_t{1} << historyBits),
          counters(tableSize, 2)
    {
    }

    /** The prediction for @p pc under the current state. */
    bool predict(std::uint64_t pc) const { return counters[index(pc)] >= 2; }

    /** Predicts the branch at @p pc, trains its counter on the
     *  outcome and shifts it into the history. Returns the
     *  prediction. */
    bool
    step(std::uint64_t pc, bool taken)
    {
        int &counter = counters[index(pc)];
        const bool prediction = counter >= 2;
        if (taken && counter < 3)
            ++counter;
        if (!taken && counter > 0)
            --counter;
        history = (history * 2 + (taken ? 1 : 0)) % historySize;
        return prediction;
    }

  private:
    std::size_t
    index(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(((pc / 4) % tableSize) ^ history);
    }

    std::size_t tableSize;
    std::uint64_t historySize;
    std::vector<int> counters;
    /** The last h outcomes, newest in bit 0. */
    std::uint64_t history = 0;
};

} // namespace bpsim::reference

#endif // BPSIM_TESTS_REFERENCE_REFERENCE_GSHARE_HH
