#include "analysis/stream_tracker.hh"

#include "util/logging.hh"

namespace bpsim
{

std::uint32_t
StreamTracker::insert(std::size_t slot, std::uint64_t pc,
                      std::uint64_t counterId)
{
    // A step packs the id into 30 bits.
    if (streamStats.size() >= (std::size_t{1} << 30))
        BPSIM_PANIC("stream tracker: more than 2^30 substreams");
    streamStats.push_back({pc, counterId});
    const auto id = static_cast<std::uint32_t>(streamStats.size() - 1);
    table[slot] = id + 1;
    if (2 * streamStats.size() > table.size()) {
        // Grow and re-insert; stream k has id k, so the slots are
        // rebuilt from the stream list alone.
        ++bits;
        table.assign(std::size_t{1} << bits, 0);
        for (std::size_t k = 0; k < streamStats.size(); ++k) {
            const StreamStats &s = streamStats[k];
            table[slotOf(s.pc, s.counterId)] =
                static_cast<std::uint32_t>(k + 1);
        }
    }
    return id;
}

const std::vector<StreamStep> &
StreamTracker::steps() const
{
    if (log != StepLog::Keep)
        BPSIM_PANIC("stream steps read from a tracker built without "
                    "StepLog::Keep");
    return stepLog;
}

const StreamStats *
StreamTracker::find(std::uint64_t pc, std::uint64_t counterId) const
{
    const std::uint32_t entry = table[slotOf(pc, counterId)];
    return entry == 0 ? nullptr : &streamStats[entry - 1];
}

std::vector<const StreamStats *>
StreamTracker::streamsOfCounter(std::uint64_t counterId) const
{
    std::vector<const StreamStats *> result;
    for (const StreamStats &stats : streamStats) {
        if (stats.counterId == counterId)
            result.push_back(&stats);
    }
    return result;
}

} // namespace bpsim
