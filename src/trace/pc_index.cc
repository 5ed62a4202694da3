#include "trace/pc_index.hh"

namespace bpsim
{

namespace
{

/** One open-addressing slot: a pc and its id + 1, where 0 marks an
 *  empty slot, so every pc (0 and UINT64_MAX included) is a key. */
struct Slot
{
    std::uint64_t pc = 0;
    std::uint32_t idPlusOne = 0;
};

/** Fibonacci hashing: the top @p bits of the product, which mixes
 *  every pc bit in, so pcs that share their low bits (large
 *  power-of-two strides) still spread. */
inline std::size_t
slotOf(std::uint64_t pc, unsigned bits)
{
    return static_cast<std::size_t>((pc * 0x9e3779b97f4a7c15ULL) >>
                                    (64 - bits));
}

} // namespace

PcIndex::PcIndex(const PackedTrace &packed)
{
    const std::size_t total = packed.size();
    const std::uint64_t *pcData = packed.pcData();
    recordIds.resize(total);

    // Linear probing in a power-of-two table kept at most half full.
    // Static footprints are small next to dynamic counts; 1024 slots
    // cover most traces without a rehash.
    unsigned bits = 10;
    std::vector<Slot> table(std::size_t{1} << bits);
    std::size_t mask = table.size() - 1;
    for (std::size_t i = 0; i < total; ++i) {
        const std::uint64_t pc = pcData[i];
        std::size_t s = slotOf(pc, bits);
        while (table[s].idPlusOne != 0 && table[s].pc != pc)
            s = (s + 1) & mask;
        if (table[s].idPlusOne == 0) {
            pcs.push_back(pc);
            table[s] = {pc, static_cast<std::uint32_t>(pcs.size())};
            if (2 * pcs.size() > table.size()) {
                // Grow and re-insert; pcs[k] has id k, so the ids
                // need no second copy.
                ++bits;
                table.assign(std::size_t{1} << bits, Slot{});
                mask = table.size() - 1;
                for (std::size_t k = 0; k < pcs.size(); ++k) {
                    std::size_t t = slotOf(pcs[k], bits);
                    while (table[t].idPlusOne != 0)
                        t = (t + 1) & mask;
                    table[t] = {pcs[k], static_cast<std::uint32_t>(k + 1)};
                }
            }
            recordIds[i] = static_cast<std::uint32_t>(pcs.size() - 1);
        } else {
            recordIds[i] = table[s].idPlusOne - 1;
        }
    }
}

PcIndex::RangeCounts
PcIndex::countRange(const PackedTrace &packed, std::size_t from,
                    std::size_t to) const
{
    RangeCounts counts;
    counts.executions.assign(staticCount(), 0);
    counts.taken.assign(staticCount(), 0);
    for (std::size_t i = from; i < to; ++i) {
        const std::uint32_t id = recordIds[i];
        ++counts.executions[id];
        counts.taken[id] +=
            static_cast<std::uint64_t>(packed.taken(i));
    }
    return counts;
}

} // namespace bpsim
