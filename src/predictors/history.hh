/**
 * @file
 * Branch history registers.
 *
 * Global history (the outcomes of the most recent branches,
 * regardless of address) feeds the G-class schemes; per-address
 * history tables feed the P-class schemes of the Yeh-Patt taxonomy.
 */

#ifndef BPSIM_PREDICTORS_HISTORY_HH
#define BPSIM_PREDICTORS_HISTORY_HH

#include <cstdint>
#include <vector>

#include "predictors/counter.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace bpsim
{

/** Validates a history register width; throws ConfigError above 64
 *  bits. */
inline unsigned
checkedHistoryBits(unsigned bits)
{
    if (bits > 64)
        BPSIM_CONFIG_ERROR("history width " << bits << " exceeds 64");
    return bits;
}

/** An m-bit outcome shift register (1 = taken). */
class HistoryRegister
{
  public:
    /** @param bits register width, 0..64 (0 = degenerate, always 0) */
    explicit HistoryRegister(unsigned bits)
        : widthBits(checkedHistoryBits(bits)), mask(maskBits(bits))
    {
    }

    /** Shifts in the newest outcome at the low end. */
    void
    push(bool taken)
    {
        contents = ((contents << 1) | (taken ? 1 : 0)) & mask;
    }

    /** Current history pattern (low @c bits() bits). */
    std::uint64_t value() const { return contents; }

    /** History truncated to its newest @p n outcomes. */
    std::uint64_t low(unsigned n) const { return contents & maskBits(n); }

    void clear() { contents = 0; }

    /** Restores a pattern captured by value(); masked to the register
     *  width. The SIMD bank (sim/simd/) uses this to store vector
     *  lane state back after a replay. */
    void setValue(std::uint64_t v) { contents = v & mask; }

    unsigned bits() const { return widthBits; }

    std::uint64_t storageBits() const { return widthBits; }

  private:
    unsigned widthBits;
    std::uint64_t mask;
    std::uint64_t contents = 0;
};

/**
 * First-level table of per-address history registers, indexed by
 * low-order pc word-address bits.
 */
class LocalHistoryTable
{
  public:
    /**
     * @param entriesLog2 log2 of the number of registers
     * @param bits width of each register
     */
    LocalHistoryTable(unsigned entriesLog2, unsigned bits)
        : indexBits(entriesLog2), widthBits(checkedHistoryBits(bits)),
          mask(maskBits(bits)),
          table(checkedTableEntries(entriesLog2, "local history"), 0)
    {
    }

    /** Index of the register serving @p pc (pc is a byte address of a
     *  4-byte-aligned instruction, so bits 2+ carry the entropy). */
    std::size_t
    indexFor(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(bitField(pc, 2, indexBits));
    }

    std::uint64_t value(std::uint64_t pc) const
    {
        return table[indexFor(pc)];
    }

    void
    push(std::uint64_t pc, bool taken)
    {
        std::uint64_t &h = table[indexFor(pc)];
        h = ((h << 1) | (taken ? 1 : 0)) & mask;
    }

    void clear() { std::fill(table.begin(), table.end(), 0); }

    std::size_t entries() const { return table.size(); }
    unsigned entriesLog2() const { return indexBits; }
    unsigned bits() const { return widthBits; }

    /**
     * Raw register storage for the SIMD bank builders (sim/simd/),
     * which copy the table into a uint32 gather arena and back.
     * Writers must keep every element within the register mask.
     */
    const std::uint64_t *data() const { return table.data(); }
    std::uint64_t *data() { return table.data(); }

    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(table.size()) * widthBits;
    }

  private:
    unsigned indexBits;
    unsigned widthBits;
    std::uint64_t mask;
    std::vector<std::uint64_t> table;
};

/** Low-order word-address bits of a branch pc (drops the two zero
 *  byte-offset bits of 4-byte-aligned instructions). */
inline std::uint64_t
pcIndexBits(std::uint64_t pc, unsigned n)
{
    return bitField(pc, 2, n);
}

} // namespace bpsim

#endif // BPSIM_PREDICTORS_HISTORY_HH
