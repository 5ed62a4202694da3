/**
 * @file
 * The bi-mode branch predictor — the primary contribution of
 * Lee, Chen & Mudge, "The Bi-Mode Branch Predictor", MICRO-30, 1997.
 *
 * Structure (paper Figure 1):
 *  - Two *direction* banks of 2-bit counters, a taken bank and a
 *    not-taken bank, both indexed gshare-style by pc xor global
 *    history.
 *  - A *choice* predictor: a pc-indexed 2-bit counter table whose
 *    sign selects which direction bank supplies the prediction.
 *
 * Update policy (paper Section 2.2):
 *  - Only the *selected* direction counter is updated with the
 *    outcome (partial update); the unselected bank is untouched.
 *  - The choice predictor is updated with the outcome, EXCEPT when
 *    its choice disagreed with the outcome but the selected
 *    direction counter still predicted correctly.
 *
 * Initialization (paper footnote 2): the choice table starts
 * weakly-taken, the taken bank weakly-taken, and the not-taken bank
 * weakly-not-taken.
 *
 * The effect is that the choice predictor classifies each branch by
 * its per-address bias, steering mostly-taken branches into one bank
 * and mostly-not-taken branches into the other, so that branches
 * aliasing to the same direction counter tend to agree — destructive
 * aliasing becomes neutral aliasing.
 */

#ifndef BPSIM_CORE_BIMODE_HH
#define BPSIM_CORE_BIMODE_HH

#include "predictors/counter.hh"
#include "predictors/fast_base.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"
#include "util/bits.hh"

namespace bpsim
{

/** Configuration of a BiModePredictor. */
struct BiModeConfig
{
    /** log2 counters per direction bank (each bank holds 2^d). */
    unsigned directionIndexBits = 10;
    /** log2 counters in the choice table; the paper uses half the
     *  second-level size, i.e. choiceIndexBits == directionIndexBits. */
    unsigned choiceIndexBits = 10;
    /** Global history length; the canonical design uses the full
     *  direction index width. */
    unsigned historyBits = 10;
    /** Counter width in bits. */
    unsigned counterWidth = 2;
    /** Paper policy: update only the selected direction bank. Turning
     *  this off (updating both banks) is an ablation. */
    bool partialUpdate = true;
    /** Ablation: update the choice table on every branch instead of
     *  applying the paper's exception. */
    bool alwaysUpdateChoice = false;

    /** Canonical configuration at a given direction-bank width:
     *  choice table half the second-level size, full-width history. */
    static BiModeConfig canonical(unsigned directionIndexBits);
};

/** The bi-mode predictor. */
class BiModePredictor : public FastPredictorBase<BiModePredictor>
{
  public:
    /** Bank identifiers as exposed in PredictionDetail::bank. */
    static constexpr std::uint32_t kNotTakenBank = 0;
    static constexpr std::uint32_t kTakenBank = 1;

    explicit BiModePredictor(const BiModeConfig &config);

    PredictionDetail detailFast(std::uint64_t pc) const;
    void resetFast();
    std::string name() const override;
    std::uint64_t storageBits() const override;
    std::uint64_t counterBits() const override;

    /** Counters across both direction banks; ids are bank-major
     *  (not-taken bank first). The choice table is not included. */
    std::uint64_t directionCounters() const override;

    /** Direction-bank index for @p pc under the current history. */
    std::size_t
    directionIndexFor(std::uint64_t pc) const
    {
        const std::uint64_t address =
            pcIndexBits(pc, cfg.directionIndexBits);
        return static_cast<std::size_t>(address ^ history.value());
    }

    /** Choice-table index for @p pc. */
    std::size_t
    choiceIndexFor(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(
            pcIndexBits(pc, cfg.choiceIndexBits));
    }

    /**
     * Fused hot path: predict and update sharing one set of table
     * lookups. Returns detailFast().taken as of immediately before
     * updateFast(); the state transition is identical to
     * predict-then-update.
     */
    bool
    stepFast(std::uint64_t pc, bool taken)
    {
        std::size_t choice_index, index;
        indicesFor(pc, choice_index, index);
        const bool choice_taken = choice.predictTaken(choice_index);
        const std::uint32_t bank =
            choice_taken ? kTakenBank : kNotTakenBank;
        const bool prediction = banks[bank].predictTaken(index);

        // Direction banks: partial update — only the serving counter
        // learns the outcome, so the unselected bank's state for this
        // history pattern is preserved for the branches that live
        // there.
        banks[bank].update(index, taken);
        if (!cfg.partialUpdate)
            banks[bank ^ 1].update(index, taken);

        // Choice table: always trained toward the outcome, except
        // when it chose the "wrong" bank but that bank still
        // predicted correctly — evicting the branch from a bank that
        // serves it well would only create new interference.
        const bool keep_choice =
            !cfg.alwaysUpdateChoice &&
            choice_taken != taken && prediction == taken;
        if (!keep_choice)
            choice.update(choice_index, taken);

        history.push(taken);
        return prediction;
    }

    /** Devirtualized hot path: the state transition of update(). */
    void
    updateFast(std::uint64_t pc, bool taken)
    {
        (void)stepFast(pc, taken);
    }

    const BiModeConfig &config() const { return cfg; }

    /** Read-only component access for tests and analyses. */
    const CounterTable &choiceTable() const { return choice; }
    const CounterTable &takenBank() const { return banks[kTakenBank]; }
    const CounterTable &notTakenBank() const { return banks[kNotTakenBank]; }

    /** Mutable SoA views for the SIMD bank (sim/simd/simd_bank.cc),
     *  which copies the tables and history into vector lane state
     *  and back. */
    CounterTable &choiceTableRef() { return choice; }
    CounterTable &bankRef(std::uint32_t bank) { return banks[bank]; }
    HistoryRegister &historyRef() { return history; }

  private:
    /**
     * Both table indices at once, deriving the shared word address a
     * single time instead of once per table as choiceIndexFor() and
     * directionIndexFor() do — bit-identical results minus the
     * re-derived subexpression. This is the hot-kernel entry: every
     * stepFast() needs both indices, and the scalar bank loop pays
     * this per lane per branch.
     */
    void
    indicesFor(std::uint64_t pc, std::size_t &choiceIndex,
               std::size_t &directionIndex) const
    {
        const std::uint64_t word = pc >> 2;
        choiceIndex = static_cast<std::size_t>(
            word & maskBits(cfg.choiceIndexBits));
        directionIndex = static_cast<std::size_t>(
            (word & maskBits(cfg.directionIndexBits)) ^
            history.value());
    }

    BiModeConfig cfg;
    HistoryRegister history;
    CounterTable choice;
    /** banks[0] = not-taken bank, banks[1] = taken bank. */
    CounterTable banks[2];
};

} // namespace bpsim

#endif // BPSIM_CORE_BIMODE_HH
