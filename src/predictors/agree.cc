#include "predictors/agree.hh"

#include <algorithm>
#include <sstream>

namespace bpsim
{

AgreePredictor::AgreePredictor(const AgreeConfig &config)
    : cfg(config),
      history(cfg.historyBits),
      counters(checkedTableEntries(cfg.indexBits, "agree"),
               cfg.counterWidth,
               SaturatingCounter::weaklyTaken(cfg.counterWidth)),
      biasBit(checkedTableEntries(cfg.biasIndexBits, "agree bias"), 0),
      biasValid(std::size_t{1} << cfg.biasIndexBits, 0)
{
    if (cfg.historyBits > cfg.indexBits)
        BPSIM_CONFIG_ERROR("agree history cannot exceed the index width");
}

PredictionDetail
AgreePredictor::detailFast(std::uint64_t pc) const
{
    const std::size_t bias_index = biasIndexFor(pc);
    const std::size_t index = counterIndexFor(pc);
    // An unseen branch has no bias yet; treat the bias as taken
    // (matching the counters' weakly-taken start).
    const bool bias = biasValid[bias_index] ? biasBit[bias_index] != 0
                                            : true;
    const bool agree = counters.predictTaken(index);
    PredictionDetail detail;
    detail.taken = agree == bias;
    detail.usesCounter = true;
    detail.bank = 0;
    detail.counterId = index;
    return detail;
}

void
AgreePredictor::resetFast()
{
    history.clear();
    counters.reset();
    std::fill(biasBit.begin(), biasBit.end(), 0);
    std::fill(biasValid.begin(), biasValid.end(), 0);
}

std::string
AgreePredictor::name() const
{
    std::ostringstream os;
    os << "agree(n=" << cfg.indexBits << ",h=" << cfg.historyBits
       << ",b=" << cfg.biasIndexBits << ")";
    return os.str();
}

std::uint64_t
AgreePredictor::storageBits() const
{
    return counters.storageBits() + history.storageBits() +
           biasBit.size() + biasValid.size();
}

std::uint64_t
AgreePredictor::counterBits() const
{
    return counters.storageBits();
}

std::uint64_t
AgreePredictor::directionCounters() const
{
    return counters.size();
}

} // namespace bpsim
