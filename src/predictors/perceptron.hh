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
 *
 * Each branch turns x = (history << 1) | 1 into one vector of lane
 * signs (lane 0, the bias, is always +1; lane i+1 is +1 when history
 * bit i is set, else -1). The dot product with the weight row is the
 * output, and training adds sign * (taken ? +1 : -1) to every lane,
 * clamped to the weight range: one fixed-stride loop each, with no
 * per-weight branch. Rows are int16 and padded to a multiple of
 * eight lanes; padding lanes get sign 0, so their weights stay 0.
 */

#ifndef BPSIM_PREDICTORS_PERCEPTRON_HH
#define BPSIM_PREDICTORS_PERCEPTRON_HH

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
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
    std::size_t
    indexFor(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(
            pcIndexBits(pc, cfg.tableIndexBits));
    }

    /** Raw output y for @p pc under the current history (for tests
     *  and confidence studies; prediction is y >= 0). */
    std::int32_t
    outputFor(std::uint64_t pc) const
    {
        alignas(16) SignVector signs;
        signsFor(signs);
        return dot(&weights[rowOffset(pc)], signs);
    }

    /** The state transition of update(). */
    void updateFast(std::uint64_t pc, bool taken) { stepFast(pc, taken); }

    /** Fused predict + update: one sign vector and one dot product
     *  serve both the prediction and the training step. */
    bool
    stepFast(std::uint64_t pc, bool taken)
    {
        alignas(16) SignVector signs;
        signsFor(signs);
        std::int16_t *row = &weights[rowOffset(pc)];
        const std::int32_t y = dot(row, signs);
        const bool prediction = y >= 0;
        // Train on a misprediction or while the output magnitude has
        // not cleared the confidence threshold.
        if (prediction != taken || std::abs(y) <= threshold) {
            // Each lane moves by its sign times the outcome (+1 taken,
            // -1 not taken) unless it already sits at the limit it
            // moves toward; padding lanes move by 0. The limits are
            // copied so the compiler need not reload them after each
            // (int16, so possibly aliasing) weight store.
            const std::int16_t negate = taken ? 0 : -1;
            const std::int16_t max = weightMax;
            const std::int16_t min = weightMin;
            for (unsigned i = 0; i < rowLanes(); ++i) {
                const auto step = static_cast<std::int16_t>(
                    (signs[i] ^ negate) - negate);
                const std::int16_t limit = step > 0 ? max : min;
                row[i] = static_cast<std::int16_t>(
                    row[i] + (row[i] == limit ? 0 : step));
            }
        }
        history.push(taken);
        return prediction;
    }

  private:
    /** Lanes per row chunk; rows are padded to a multiple of it. */
    static constexpr unsigned kChunkLanes = 8;
    /** The widest row: the bias plus 63 history weights. */
    static constexpr unsigned kMaxLanes = 64;

    /** One +/-1 (or 0 on padding) sign per lane of a row. */
    using SignVector = std::array<std::int16_t, kMaxLanes>;

    /** Fills the first rowLanes() signs of @p signs from the current
     *  history: x = (history << 1) | 1, lane i from bit i of x. */
    void
    signsFor(SignVector &signs) const
    {
        // The signs of every byte value: lane j of row b is +1 when
        // bit j of b is set, else -1. A chunk's signs are one row.
        alignas(16) static constexpr auto kSigns = [] {
            std::array<std::array<std::int16_t, kChunkLanes>, 256> table{};
            for (unsigned b = 0; b < 256; ++b) {
                for (unsigned j = 0; j < kChunkLanes; ++j)
                    table[b][j] = ((b >> j) & 1) ? 1 : -1;
            }
            return table;
        }();
        // Bit 0 of x is the bias input, always set. Bits past h are 0
        // (history is masked to h bits) and the tail mask turns their
        // lanes' -1 into 0.
        const std::uint64_t x = (history.value() << 1) | 1;
        auto chunkSigns = [&](unsigned c) {
            return kSigns[(x >> (c * kChunkLanes)) & 0xff].data();
        };
        const unsigned last = rowChunks - 1;
        for (unsigned c = 0; c < last; ++c) {
            std::memcpy(&signs[c * kChunkLanes], chunkSigns(c),
                        sizeof kSigns[0]);
        }
        std::int16_t tail[kChunkLanes];
        for (unsigned j = 0; j < kChunkLanes; ++j)
            tail[j] = chunkSigns(last)[j] & tailMask[j];
        std::memcpy(&signs[last * kChunkLanes], tail, sizeof tail);
    }

    /** Dot product of the weight row at @p row with @p signs. A
     *  fixed stride, a whole number of chunks: the compiler turns it
     *  into multiply-add-pairs of 16-bit lanes into 32-bit sums, and
     *  |y| <= 64 * 2^15 cannot overflow the int32 sum. */
    std::int32_t
    dot(const std::int16_t *row, const SignVector &signs) const
    {
        std::int32_t y = 0;
        for (unsigned i = 0; i < rowLanes(); ++i)
            y += row[i] * signs[i];
        return y;
    }

    unsigned rowLanes() const { return rowChunks * kChunkLanes; }

    /** Offset of @p pc's row in weights. */
    std::size_t
    rowOffset(std::uint64_t pc) const
    {
        return indexFor(pc) * rowLanes();
    }

    PerceptronConfig cfg;
    HistoryRegister history;
    std::int32_t threshold = 0;
    std::int16_t weightMax = 0;
    std::int16_t weightMin = 0;
    /** Chunks per row: ceil((h + 1) / kChunkLanes). */
    unsigned rowChunks = 0;
    /** All-ones on the last chunk's live lanes, 0 on its padding. */
    alignas(16) std::array<std::int16_t, kChunkLanes> tailMask{};
    /** Row-major, rowLanes() per perceptron: lane 0 is the bias
     *  weight, lane i+1 the weight of history bit i, then padding. */
    std::vector<std::int16_t> weights;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_PERCEPTRON_HH
