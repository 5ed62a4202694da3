#include "predictors/gshare.hh"

#include <sstream>

namespace bpsim
{

GsharePredictor::GsharePredictor(unsigned indexBits, unsigned historyBits,
                                 unsigned counterWidth)
    : indexBits(indexBits),
      history(historyBits),
      counters(checkedTableEntries(indexBits, "gshare"), counterWidth,
               SaturatingCounter::weaklyTaken(counterWidth))
{
    if (historyBits > indexBits)
        BPSIM_CONFIG_ERROR("gshare history (" << historyBits
                           << " bits) cannot exceed the index width ("
                           << indexBits << " bits)");
}

PredictionDetail
GsharePredictor::detailFast(std::uint64_t pc) const
{
    const std::size_t index = indexFor(pc);
    return PredictionDetail{counters.predictTaken(index), true, 0, index};
}

void
GsharePredictor::resetFast()
{
    counters.reset();
    history.clear();
}

std::string
GsharePredictor::name() const
{
    std::ostringstream os;
    os << "gshare(n=" << indexBits << ",h=" << history.bits() << ")";
    return os.str();
}

std::uint64_t
GsharePredictor::storageBits() const
{
    return counters.storageBits() + history.storageBits();
}

std::uint64_t
GsharePredictor::counterBits() const
{
    return counters.storageBits();
}

std::uint64_t
GsharePredictor::directionCounters() const
{
    return counters.size();
}

} // namespace bpsim
