/**
 * @file
 * A perceptron branch predictor written from the text of Jiménez &
 * Lin, "Dynamic Branch Prediction with Perceptrons" (HPCA 2001, §3),
 * to serve as a test oracle for predictors/perceptron.
 *
 * It shares no code with src/predictors: weights and inputs are plain
 * int32 arrays, the inputs x_1..x_h are kept as a +/-1 array rather
 * than a bit register, and every step is the paper's loop written
 * out. Where the paper leaves a choice open it follows the
 * simulator's documented conventions: the table index is the branch's
 * word address (pc / 4) modulo the table size, the history starts all
 * not-taken, and y = 0 predicts taken.
 */

#ifndef BPSIM_TESTS_REFERENCE_REFERENCE_PERCEPTRON_HH
#define BPSIM_TESTS_REFERENCE_REFERENCE_PERCEPTRON_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

namespace bpsim::reference
{

class ReferencePerceptron
{
  public:
    /**
     * @param tableBits log2 of the number of perceptrons
     * @param historyLength h, the global-history inputs per perceptron
     * @param weightBits signed width of each weight
     */
    ReferencePerceptron(unsigned tableBits, unsigned historyLength,
                        unsigned weightBits)
        : tableSize(std::size_t{1} << tableBits), h(historyLength),
          // "theta = floor(1.93h + 14)"
          theta(static_cast<std::int32_t>(std::floor(1.93 * h + 14))),
          weightMax((1 << (weightBits - 1)) - 1),
          weightMin(-(1 << (weightBits - 1))),
          weights(tableSize, std::vector<std::int32_t>(h + 1, 0)),
          x(h + 1, -1)
    {
        x[0] = 1; // the bias input is always 1
    }

    /** y_out = w_0 + sum_{i=1..h} x_i w_i for the branch at @p pc. */
    std::int32_t
    output(std::uint64_t pc) const
    {
        const std::vector<std::int32_t> &w = weights[indexOf(pc)];
        std::int32_t y = 0;
        for (unsigned i = 0; i <= h; ++i)
            y += x[i] * w[i];
        return y;
    }

    /** Predicts the branch at @p pc, trains its perceptron on the
     *  outcome and shifts the outcome into the history. Returns the
     *  prediction. */
    bool
    step(std::uint64_t pc, bool taken)
    {
        const std::int32_t y = output(pc);
        const bool prediction = y >= 0;
        const std::int32_t t = taken ? 1 : -1;
        // "if sign(y_out) != t or |y_out| <= theta then
        //  for i := 0 to n do w_i := w_i + t x_i"
        if (prediction != taken || std::abs(y) <= theta) {
            std::vector<std::int32_t> &w = weights[indexOf(pc)];
            for (unsigned i = 0; i <= h; ++i) {
                w[i] += t * x[i];
                // The weights are weightBits-bit saturating counters.
                if (w[i] > weightMax)
                    w[i] = weightMax;
                if (w[i] < weightMin)
                    w[i] = weightMin;
                reachedMax = reachedMax || w[i] == weightMax;
                reachedMin = reachedMin || w[i] == weightMin;
            }
        }
        // x_1 is the newest outcome.
        for (unsigned i = h; i > 1; --i)
            x[i] = x[i - 1];
        x[1] = t;
        return prediction;
    }

    /** Whether any weight has reached the top / bottom of its range. */
    bool sawMaxWeight() const { return reachedMax; }
    bool sawMinWeight() const { return reachedMin; }

  private:
    std::size_t
    indexOf(std::uint64_t pc) const
    {
        return static_cast<std::size_t>((pc / 4) % tableSize);
    }

    std::size_t tableSize;
    unsigned h;
    std::int32_t theta;
    std::int32_t weightMax;
    std::int32_t weightMin;
    /** weights[p][i]: weight i of perceptron p; index 0 is the bias. */
    std::vector<std::vector<std::int32_t>> weights;
    /** x[0] = 1 (bias), x[i] = +1 / -1 for the i-th newest outcome. */
    std::vector<std::int32_t> x;
    bool reachedMax = false;
    bool reachedMin = false;
};

} // namespace bpsim::reference

#endif // BPSIM_TESTS_REFERENCE_REFERENCE_PERCEPTRON_HH
