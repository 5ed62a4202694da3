#include "predictors/yags.hh"

#include <sstream>

#include "util/bits.hh"

namespace bpsim
{

YagsPredictor::YagsPredictor(const YagsConfig &config)
    : cfg(config),
      history(cfg.historyBits),
      choice(checkedTableEntries(cfg.choiceIndexBits, "YAGS choice"),
             cfg.counterWidth,
             SaturatingCounter::weaklyTaken(cfg.counterWidth))
{
    if (cfg.historyBits > cfg.cacheIndexBits)
        BPSIM_CONFIG_ERROR("YAGS history cannot exceed the cache index width");
    if (cfg.tagBits > 16)
        BPSIM_CONFIG_ERROR("YAGS tags wider than 16 bits are not supported");
    const std::size_t cache_entries =
        checkedTableEntries(cfg.cacheIndexBits, "YAGS cache");
    caches[0].resize(cache_entries);
    caches[1].resize(cache_entries);
}

PredictionDetail
YagsPredictor::detailFast(std::uint64_t pc) const
{
    const Lookup look = lookupFor(pc);
    PredictionDetail detail;
    detail.taken = look.prediction;
    detail.usesCounter = true;
    const std::uint64_t cache_size = caches[0].size();
    if (look.hit) {
        detail.bank = look.cache;
        detail.counterId =
            static_cast<std::uint64_t>(look.cache) * cache_size +
            look.cacheIndex;
    } else {
        detail.bank = kChoiceBank;
        detail.counterId = 2 * cache_size + look.choiceIndex;
    }
    return detail;
}

void
YagsPredictor::resetFast()
{
    history.clear();
    choice.reset();
    for (auto &cache : caches)
        std::fill(cache.begin(), cache.end(), CacheEntry{});
}

std::string
YagsPredictor::name() const
{
    std::ostringstream os;
    os << "yags(c=" << cfg.choiceIndexBits << ",n=" << cfg.cacheIndexBits
       << ",t=" << cfg.tagBits << ",h=" << cfg.historyBits << ")";
    return os.str();
}

std::uint64_t
YagsPredictor::storageBits() const
{
    const std::uint64_t per_entry = 1 + cfg.tagBits + cfg.counterWidth;
    return choice.storageBits() + history.storageBits() +
           2 * caches[0].size() * per_entry;
}

std::uint64_t
YagsPredictor::counterBits() const
{
    // Paper-style cost counts prediction counters only, not tags.
    return choice.storageBits() +
           2 * caches[0].size() * cfg.counterWidth;
}

std::uint64_t
YagsPredictor::directionCounters() const
{
    return 2 * caches[0].size() + choice.size();
}

} // namespace bpsim
