/**
 * @file
 * The perceptron branch predictor (Jiménez & Lin, HPCA 2001).
 *
 * Included as the concrete realization of the paper's §5 future-work
 * direction "find a cost-effective way to reduce the weakly biased
 * substreams": a perceptron weighs each global-history bit
 * independently, so it can learn linearly separable correlations
 * with far longer histories than a PHT of 2-bit counters can afford,
 * and is naturally resistant to the aliasing the bi-mode predictor
 * attacks (weights from uncorrelated branches average out instead of
 * flipping a counter).
 *
 * Implementation follows the original: a pc-indexed table of signed
 * 8-bit weight vectors, prediction = sign(w0 + sum wi * xi) with
 * xi = +/-1 from history bit i, trained on mispredictions or when
 * |output| <= theta, theta = 1.93h + 14.
 */

#ifndef BPSIM_PREDICTORS_PERCEPTRON_HH
#define BPSIM_PREDICTORS_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "predictors/fast_base.hh"
#include "predictors/history.hh"
#include "predictors/predictor.hh"

namespace bpsim
{

/** Perceptron predictor configuration. */
struct PerceptronConfig
{
    /** log2 of the perceptron table size. */
    unsigned tableIndexBits = 8;
    /** Global history length == weights per perceptron (plus bias). */
    unsigned historyBits = 24;
    /** Weight width in bits (8 in the original). */
    unsigned weightBits = 8;
};

/** Table-of-perceptrons global-history predictor. */
class PerceptronPredictor : public FastPredictorBase<PerceptronPredictor>
{
  public:
    explicit PerceptronPredictor(const PerceptronConfig &config);

    PredictionDetail detailFast(std::uint64_t pc) const;
    void resetFast();
    std::string name() const override;
    std::uint64_t storageBits() const override;
    std::uint64_t counterBits() const override;

    /** Each perceptron is reported as one "direction counter" so the
     *  stream analyses can attribute lookups to table entries. */
    std::uint64_t directionCounters() const override;

    /** The perceptron serving @p pc. */
    std::size_t indexFor(std::uint64_t pc) const;

    /** Raw output y for @p pc under the current history (for tests
     *  and confidence studies; prediction is y >= 0). */
    std::int32_t outputFor(std::uint64_t pc) const;

    /** The state transition of update(). */
    void
    updateFast(std::uint64_t pc, bool taken)
    {
        train(pc, outputFor(pc), taken);
    }

    /** Fused predict + update: the dot product is computed once and
     *  serves both the prediction and the training decision. */
    bool
    stepFast(std::uint64_t pc, bool taken)
    {
        const std::int32_t y = outputFor(pc);
        train(pc, y, taken);
        return y >= 0;
    }

  private:
    std::int32_t weightAt(std::size_t perceptron, unsigned i) const;

    /** Trains the perceptron of @p pc, whose output was @p y, on
     *  @p taken and shifts the outcome into the history. */
    void train(std::uint64_t pc, std::int32_t y, bool taken);

    PerceptronConfig cfg;
    HistoryRegister history;
    std::int32_t threshold = 0;
    std::int32_t weightMax = 0;
    std::int32_t weightMin = 0;
    /** Row-major: perceptron p's weights at [p * (h+1) .. +h]; index
     *  0 is the bias weight. */
    std::vector<std::int16_t> weights;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_PERCEPTRON_HH
