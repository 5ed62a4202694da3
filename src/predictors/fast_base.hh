/**
 * @file
 * CRTP adapter mapping the virtual BranchPredictor interface onto a
 * predictor's devirtualized fast core.
 *
 * Every kernel-eligible predictor (core/registry.hh entries with
 * fastReplay: every kind except btfn, which learns from branch
 * targets the packed traces do not carry) implements a non-virtual
 * core —
 *
 *   PredictionDetail detailFast(pc) const   full-provenance predict
 *   void updateFast(pc, taken)              state transition
 *   bool stepFast(pc, taken)                fused predict+update
 *   void resetFast()                        power-on state
 *
 * — which the replay kernel (sim/replay_kernel.hh) calls directly.
 * This base derives the virtual predictDetailed()/update()/reset()
 * from that core, so the virtual path and the fast path are the same
 * code by construction: the bit-identity contract between
 * simulate() and replayKernel() cannot drift because there is no
 * second implementation to drift.
 *
 * Bimodal, gshare and tournament also keep a direction-only
 * predictFast(pc): tournament's updateFast() and stepFast() predict
 * through it and their components'. A stepFast() computes each
 * lookup once for both the prediction and the update — perceptron's
 * dot product, for one, which the virtual predict-then-update loop
 * computes twice.
 *
 * The overrides are final: a predictor that needs different virtual
 * behaviour than its fast core has, by definition, no fast core and
 * should derive from BranchPredictor directly.
 */

#ifndef BPSIM_PREDICTORS_FAST_BASE_HH
#define BPSIM_PREDICTORS_FAST_BASE_HH

#include "predictors/predictor.hh"

namespace bpsim
{

/** Derives the virtual predictor interface from Derived's
 *  non-virtual fast core (detailFast/updateFast/resetFast). */
template <typename Derived>
class FastPredictorBase : public BranchPredictor
{
  public:
    PredictionDetail
    predictDetailed(std::uint64_t pc) const final
    {
        return self().detailFast(pc);
    }

    void
    update(std::uint64_t pc, bool taken) final
    {
        self().updateFast(pc, taken);
    }

    void reset() final { self().resetFast(); }

  private:
    Derived &self() { return static_cast<Derived &>(*this); }
    const Derived &
    self() const
    {
        return static_cast<const Derived &>(*this);
    }
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_FAST_BASE_HH
