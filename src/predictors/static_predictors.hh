/**
 * @file
 * Stateless baseline predictors: always-taken, always-not-taken, and
 * backward-taken/forward-not-taken (BTFN). These anchor the accuracy
 * comparisons and exercise the no-counter path of the analysis code.
 *
 * BTFN is the one predictor kind without a fast core: it learns from
 * observeTarget(), and the packed traces the replay kernel streams
 * carry no branch targets, so it runs on the virtual simulate() loop.
 */

#ifndef BPSIM_PREDICTORS_STATIC_PREDICTORS_HH
#define BPSIM_PREDICTORS_STATIC_PREDICTORS_HH

#include <vector>

#include "predictors/fast_base.hh"
#include "predictors/predictor.hh"

namespace bpsim
{

/**
 * Predicts every branch @p Taken. The fast core is the whole
 * predictor: nothing is learned, so the replay kernel's step is a
 * constant.
 */
template <bool Taken>
class ConstantPredictor : public FastPredictorBase<ConstantPredictor<Taken>>
{
  public:
    PredictionDetail
    detailFast(std::uint64_t) const
    {
        return PredictionDetail{Taken, false, 0, 0};
    }

    void updateFast(std::uint64_t, bool) {}
    bool stepFast(std::uint64_t, bool) { return Taken; }
    void resetFast() {}

    std::string
    name() const override
    {
        return Taken ? "always-taken" : "always-not-taken";
    }

    std::uint64_t storageBits() const override { return 0; }
};

using AlwaysTakenPredictor = ConstantPredictor<true>;
using AlwaysNotTakenPredictor = ConstantPredictor<false>;

/**
 * Backward-taken / forward-not-taken.
 *
 * A trace-driven BTFN needs the branch target to classify direction;
 * since the BranchPredictor interface is pc-only (matching the
 * hardware front end before decode), the target sense is learned
 * from the first update: a sticky per-pc "backward" bit would need a
 * table, so instead we use the static heuristic on the pc/target
 * relation recorded at update time via a small direction cache.
 */
class BtfnPredictor : public BranchPredictor
{
  public:
    /** @param entriesLog2 log2 size of the direction-sense cache */
    explicit BtfnPredictor(unsigned entriesLog2);

    PredictionDetail predictDetailed(std::uint64_t pc) const override;
    void update(std::uint64_t pc, bool taken) override;

    /** Records the taken-target of @p pc, fixing the
     *  backward/forward sense of the branch. */
    void observeTarget(std::uint64_t pc, std::uint64_t target) override;

    void reset() override;
    std::string name() const override;
    std::uint64_t storageBits() const override;

  private:
    unsigned indexBits;
    /** 0 = unknown, 1 = forward, 2 = backward. */
    std::vector<std::uint8_t> sense;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_STATIC_PREDICTORS_HH
