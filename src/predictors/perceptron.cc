#include "predictors/perceptron.hh"

#include <cmath>
#include <sstream>

#include "predictors/counter.hh"

namespace bpsim
{

PerceptronPredictor::PerceptronPredictor(const PerceptronConfig &config)
    : cfg(config), history(cfg.historyBits)
{
    // Checked before the weight range is derived from weightBits.
    if (cfg.historyBits == 0 || cfg.historyBits > 63)
        BPSIM_CONFIG_ERROR("perceptron history must be 1..63 bits");
    if (cfg.weightBits < 2 || cfg.weightBits > 16)
        BPSIM_CONFIG_ERROR("perceptron weights must be 2..16 bits");
    threshold =
        static_cast<std::int32_t>(std::floor(1.93 * cfg.historyBits + 14.0));
    weightMax = (1 << (cfg.weightBits - 1)) - 1;
    weightMin = -(1 << (cfg.weightBits - 1));
    const std::size_t entries =
        checkedTableEntries(cfg.tableIndexBits, "perceptron");
    weights.assign(entries * (cfg.historyBits + 1), 0);
}

std::size_t
PerceptronPredictor::indexFor(std::uint64_t pc) const
{
    return static_cast<std::size_t>(pcIndexBits(pc, cfg.tableIndexBits));
}

std::int32_t
PerceptronPredictor::weightAt(std::size_t perceptron, unsigned i) const
{
    return weights[perceptron * (cfg.historyBits + 1) + i];
}

std::int32_t
PerceptronPredictor::outputFor(std::uint64_t pc) const
{
    const std::size_t p = indexFor(pc);
    // Bias weight plus the +/-1 dot product with the history bits.
    std::int32_t y = weightAt(p, 0);
    const std::uint64_t h = history.value();
    for (unsigned i = 0; i < cfg.historyBits; ++i) {
        const bool bit = (h >> i) & 1;
        y += bit ? weightAt(p, i + 1) : -weightAt(p, i + 1);
    }
    return y;
}

PredictionDetail
PerceptronPredictor::detailFast(std::uint64_t pc) const
{
    PredictionDetail detail;
    detail.taken = outputFor(pc) >= 0;
    detail.usesCounter = true;
    detail.bank = 0;
    detail.counterId = indexFor(pc);
    return detail;
}

void
PerceptronPredictor::train(std::uint64_t pc, std::int32_t y, bool taken)
{
    const bool prediction = y >= 0;
    // Train on a misprediction or while the output magnitude has not
    // cleared the confidence threshold.
    if (prediction != taken || std::abs(y) <= threshold) {
        const std::size_t base = indexFor(pc) * (cfg.historyBits + 1);
        auto adjust = [&](std::size_t slot, bool agrees) {
            std::int16_t &w = weights[slot];
            if (agrees) {
                if (w < weightMax)
                    ++w;
            } else {
                if (w > weightMin)
                    --w;
            }
        };
        adjust(base + 0, taken);
        const std::uint64_t h = history.value();
        for (unsigned i = 0; i < cfg.historyBits; ++i) {
            const bool bit = (h >> i) & 1;
            adjust(base + i + 1, bit == taken);
        }
    }
    history.push(taken);
}

void
PerceptronPredictor::resetFast()
{
    history.clear();
    std::fill(weights.begin(), weights.end(), 0);
}

std::string
PerceptronPredictor::name() const
{
    std::ostringstream os;
    os << "perceptron(n=" << cfg.tableIndexBits
       << ",h=" << cfg.historyBits << ",w=" << cfg.weightBits << ")";
    return os.str();
}

std::uint64_t
PerceptronPredictor::storageBits() const
{
    return static_cast<std::uint64_t>(weights.size()) * cfg.weightBits +
           history.storageBits();
}

std::uint64_t
PerceptronPredictor::counterBits() const
{
    // All prediction state is weights; the paper-style x-axis cost is
    // the full weight storage.
    return static_cast<std::uint64_t>(weights.size()) * cfg.weightBits;
}

std::uint64_t
PerceptronPredictor::directionCounters() const
{
    return std::uint64_t{1} << cfg.tableIndexBits;
}

} // namespace bpsim
