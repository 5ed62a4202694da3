/**
 * @file
 * A bi-mode branch predictor written from the text of Lee, Chen &
 * Mudge, "The Bi-Mode Branch Predictor" (MICRO-30 1997, §2 and
 * footnote 2), to serve as a test oracle for core/bimode.
 *
 * It shares no code with src/: the three tables are plain arrays of
 * 2-bit counters held as integers 0..3 (taken when >= 2), the global
 * history is a bare integer, and every step is the paper's rule
 * written out:
 *
 *  - The choice predictor is indexed by the branch address alone.
 *  - Both direction banks are indexed by the branch address xor the
 *    global history; the choice counter's direction selects the bank
 *    whose counter is the prediction.
 *  - Partial update: only the selected direction counter learns the
 *    outcome.
 *  - The choice counter learns the outcome, except when its choice
 *    disagreed with the outcome but the selected direction counter
 *    was nevertheless correct.
 *  - Footnote 2: the choice table and the taken bank start weakly
 *    taken, the not-taken bank weakly not-taken.
 *
 * Where the paper leaves a choice open it follows the simulator's
 * documented conventions: an index takes the low bits of the branch's
 * word address (pc / 4), an h-bit history (h <= d) xors into the low
 * h bits of the direction index, and the history starts all
 * not-taken. Two switches model the ablations: updating both banks
 * (no partial update) and training the choice counter on every
 * branch (no exception).
 */

#ifndef BPSIM_TESTS_REFERENCE_REFERENCE_BIMODE_HH
#define BPSIM_TESTS_REFERENCE_REFERENCE_BIMODE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bpsim::reference
{

class ReferenceBiMode
{
  public:
    /** Bank numbers, as PredictionDetail::bank reports them. */
    static constexpr unsigned kNotTaken = 0;
    static constexpr unsigned kTaken = 1;

    /**
     * @param directionBits d: each direction bank holds 2^d counters
     * @param choiceBits c: the choice table holds 2^c counters
     * @param historyBits h: global history length, h <= d
     * @param partialUpdate false updates both banks (ablation)
     * @param alwaysUpdateChoice true drops the choice exception
     *        (ablation)
     */
    ReferenceBiMode(unsigned directionBits, unsigned choiceBits,
                    unsigned historyBits, bool partialUpdate = true,
                    bool alwaysUpdateChoice = false)
        : directionSize(std::size_t{1} << directionBits),
          choiceSize(std::size_t{1} << choiceBits),
          historySize(std::uint64_t{1} << historyBits),
          partial(partialUpdate), alwaysChoice(alwaysUpdateChoice),
          choice(choiceSize, kWeaklyTaken),
          notTakenBank(directionSize, kWeaklyNotTaken),
          takenBank(directionSize, kWeaklyTaken)
    {
    }

    /** What the predictor says for the branch at @p pc. */
    struct Prediction
    {
        bool taken;
        unsigned bank;
    };

    /** The prediction for @p pc under the current state. */
    Prediction
    predict(std::uint64_t pc) const
    {
        const unsigned bank =
            choice[choiceIndex(pc)] >= 2 ? kTaken : kNotTaken;
        const std::vector<int> &direction =
            bank == kTaken ? takenBank : notTakenBank;
        return {direction[directionIndex(pc)] >= 2, bank};
    }

    /** Predicts the branch at @p pc, updates the tables on the
     *  outcome and shifts it into the history. Returns the
     *  prediction. */
    Prediction
    step(std::uint64_t pc, bool taken)
    {
        const Prediction prediction = predict(pc);
        const bool choiceSaidTaken = prediction.bank == kTaken;
        const std::size_t index = directionIndex(pc);

        train((choiceSaidTaken ? takenBank : notTakenBank)[index], taken);
        if (!partial)
            train((choiceSaidTaken ? notTakenBank : takenBank)[index],
                  taken);

        const bool exception =
            choiceSaidTaken != taken && prediction.taken == taken;
        if (alwaysChoice || !exception)
            train(choice[choiceIndex(pc)], taken);
        exceptionsSeen += exception;

        history = (history * 2 + (taken ? 1 : 0)) % historySize;
        return prediction;
    }

    /** Branches so far whose choice counter the paper's exception
     *  would have left alone (counted under the ablation too). */
    std::uint64_t exceptions() const { return exceptionsSeen; }

  private:
    static constexpr int kWeaklyNotTaken = 1;
    static constexpr int kWeaklyTaken = 2;

    /** Moves a 2-bit counter one step toward the outcome. */
    static void
    train(int &counter, bool taken)
    {
        if (taken && counter < 3)
            ++counter;
        if (!taken && counter > 0)
            --counter;
    }

    std::size_t
    choiceIndex(std::uint64_t pc) const
    {
        return static_cast<std::size_t>((pc / 4) % choiceSize);
    }

    std::size_t
    directionIndex(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(((pc / 4) % directionSize) ^
                                        history);
    }

    std::size_t directionSize;
    std::size_t choiceSize;
    std::uint64_t historySize;
    bool partial;
    bool alwaysChoice;
    std::vector<int> choice;
    std::vector<int> notTakenBank;
    std::vector<int> takenBank;
    /** The last h outcomes, newest in bit 0. */
    std::uint64_t history = 0;
    std::uint64_t exceptionsSeen = 0;
};

} // namespace bpsim::reference

#endif // BPSIM_TESTS_REFERENCE_REFERENCE_BIMODE_HH
