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
    weightMax = static_cast<std::int16_t>((1 << (cfg.weightBits - 1)) - 1);
    weightMin = static_cast<std::int16_t>(-(1 << (cfg.weightBits - 1)));
    const unsigned live = cfg.historyBits + 1;
    rowChunks = (live + kChunkLanes - 1) / kChunkLanes;
    for (unsigned j = 0; j < kChunkLanes; ++j)
        tailMask[j] = (rowChunks - 1) * kChunkLanes + j < live ? -1 : 0;
    const std::size_t entries =
        checkedTableEntries(cfg.tableIndexBits, "perceptron");
    weights.assign(entries * rowLanes(), 0);
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
    return counterBits() + history.storageBits();
}

std::uint64_t
PerceptronPredictor::counterBits() const
{
    // All prediction state is weights; the paper-style x-axis cost is
    // the full weight storage: 2^n perceptrons of h + 1 weights. Row
    // padding is a layout detail, not modeled hardware.
    return (std::uint64_t{1} << cfg.tableIndexBits) *
           (cfg.historyBits + 1) * cfg.weightBits;
}

std::uint64_t
PerceptronPredictor::directionCounters() const
{
    return std::uint64_t{1} << cfg.tableIndexBits;
}

} // namespace bpsim
