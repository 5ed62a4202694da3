#include "predictors/static_predictors.hh"

#include <algorithm>
#include <sstream>

#include "predictors/counter.hh"
#include "predictors/history.hh"

namespace bpsim
{

BtfnPredictor::BtfnPredictor(unsigned entriesLog2)
    : indexBits(entriesLog2),
      sense(checkedTableEntries(entriesLog2, "btfn"), 0)
{
}

PredictionDetail
BtfnPredictor::predictDetailed(std::uint64_t pc) const
{
    const std::size_t index =
        static_cast<std::size_t>(pcIndexBits(pc, indexBits));
    // Unknown branches default to not-taken (forward-biased code).
    const bool taken = sense[index] == 2;
    return PredictionDetail{taken, false, 0, 0};
}

void
BtfnPredictor::update(std::uint64_t, bool)
{
    // Direction sense is learned from observeTarget() only.
}

void
BtfnPredictor::observeTarget(std::uint64_t pc, std::uint64_t target)
{
    const std::size_t index =
        static_cast<std::size_t>(pcIndexBits(pc, indexBits));
    sense[index] = target <= pc ? 2 : 1;
}

void
BtfnPredictor::reset()
{
    std::fill(sense.begin(), sense.end(), 0);
}

std::string
BtfnPredictor::name() const
{
    std::ostringstream os;
    os << "btfn(l=" << indexBits << ")";
    return os.str();
}

std::uint64_t
BtfnPredictor::storageBits() const
{
    // Two bits of sense state per entry.
    return static_cast<std::uint64_t>(sense.size()) * 2;
}

} // namespace bpsim
