#include "core/bimode.hh"

#include <sstream>

namespace bpsim
{

BiModeConfig
BiModeConfig::canonical(unsigned directionIndexBits)
{
    BiModeConfig cfg;
    cfg.directionIndexBits = directionIndexBits;
    cfg.choiceIndexBits = directionIndexBits;
    cfg.historyBits = directionIndexBits;
    return cfg;
}

BiModePredictor::BiModePredictor(const BiModeConfig &config)
    : cfg(config),
      history(cfg.historyBits),
      choice(checkedTableEntries(cfg.choiceIndexBits, "bi-mode choice"),
             cfg.counterWidth,
             SaturatingCounter::weaklyTaken(cfg.counterWidth)),
      banks{CounterTable(checkedTableEntries(cfg.directionIndexBits,
                                             "bi-mode direction"),
                         cfg.counterWidth,
                         SaturatingCounter::weaklyNotTaken(cfg.counterWidth)),
            CounterTable(std::size_t{1} << cfg.directionIndexBits,
                         cfg.counterWidth,
                         SaturatingCounter::weaklyTaken(cfg.counterWidth))}
{
    if (cfg.historyBits > cfg.directionIndexBits)
        BPSIM_CONFIG_ERROR(
            "bi-mode history (" << cfg.historyBits
            << " bits) cannot exceed the direction index width ("
            << cfg.directionIndexBits << " bits)");
}

PredictionDetail
BiModePredictor::detailFast(std::uint64_t pc) const
{
    const bool choice_taken = choice.predictTaken(choiceIndexFor(pc));
    const std::uint32_t bank = choice_taken ? kTakenBank : kNotTakenBank;
    const std::size_t index = directionIndexFor(pc);
    PredictionDetail detail;
    detail.taken = banks[bank].predictTaken(index);
    detail.usesCounter = true;
    detail.bank = bank;
    detail.counterId =
        (static_cast<std::uint64_t>(bank) << cfg.directionIndexBits) | index;
    return detail;
}

void
BiModePredictor::resetFast()
{
    history.clear();
    choice.reset();
    banks[0].reset();
    banks[1].reset();
}

std::string
BiModePredictor::name() const
{
    std::ostringstream os;
    os << "bimode(d=" << cfg.directionIndexBits
       << ",c=" << cfg.choiceIndexBits
       << ",h=" << cfg.historyBits << ")";
    if (!cfg.partialUpdate)
        os << "[full-update]";
    if (cfg.alwaysUpdateChoice)
        os << "[always-choice]";
    return os.str();
}

std::uint64_t
BiModePredictor::storageBits() const
{
    return choice.storageBits() + banks[0].storageBits() +
           banks[1].storageBits() + history.storageBits();
}

std::uint64_t
BiModePredictor::counterBits() const
{
    return choice.storageBits() + banks[0].storageBits() +
           banks[1].storageBits();
}

std::uint64_t
BiModePredictor::directionCounters() const
{
    return banks[0].size() + banks[1].size();
}

} // namespace bpsim
