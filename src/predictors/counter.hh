/**
 * @file
 * Saturating up/down counters and tables of them.
 *
 * The 2-bit saturating counter (Smith 1981) is the basic prediction
 * element of every scheme in the paper. Counter tables store packed
 * uint8 values with a shared width, since predictors allocate
 * thousands of identical counters.
 */

#ifndef BPSIM_PREDICTORS_COUNTER_HH
#define BPSIM_PREDICTORS_COUNTER_HH

#include <cstdint>
#include <vector>

#include "util/bits.hh"
#include "util/logging.hh"

namespace bpsim
{

/**
 * Validates a table index width *before* the table is allocated.
 *
 * Predictor constructors size their tables in member-initializer
 * lists; validating there (rather than in the constructor body)
 * keeps a bad configuration from attempting a 2^40-entry allocation
 * before the check runs.
 *
 * @param bits index width to validate
 * @param what predictor name for the error message
 * @return 2^bits
 * @throws ConfigError when @p bits exceeds 28
 */
inline std::size_t
checkedTableEntries(std::uint64_t bits, const char *what)
{
    if (bits > 28)
        BPSIM_CONFIG_ERROR(what << " table of 2^" << bits
                           << " entries is unreasonably large");
    return std::size_t{1} << bits;
}

/** Validates a saturating-counter width; throws ConfigError outside
 *  1..8. */
inline unsigned
checkedCounterWidth(unsigned bits)
{
    if (bits < 1 || bits > 8)
        BPSIM_CONFIG_ERROR("counter width " << bits
                           << " out of range 1..8");
    return bits;
}

/** A single n-bit saturating up/down counter. */
class SaturatingCounter
{
  public:
    /**
     * @param bits counter width, 1..8
     * @param initial starting value, clamped to the representable
     *                range
     */
    explicit SaturatingCounter(unsigned bits = 2, unsigned initial = 0)
        : widthBits(checkedCounterWidth(bits)),
          maxValue(static_cast<std::uint8_t>(maskBits(bits)))
    {
        current = initial > maxValue
            ? maxValue : static_cast<std::uint8_t>(initial);
    }

    /** Moves one step toward taken (up) or not-taken (down). */
    void
    update(bool taken)
    {
        if (taken) {
            if (current < maxValue)
                ++current;
        } else {
            if (current > 0)
                --current;
        }
    }

    /** Sign-bit prediction: taken in the upper half of the range. */
    bool predictTaken() const { return current > maxValue / 2; }

    /** True at either end of the range. */
    bool isSaturated() const { return current == 0 || current == maxValue; }

    std::uint8_t value() const { return current; }
    unsigned bits() const { return widthBits; }
    std::uint8_t max() const { return maxValue; }

    /** Weakly-taken start value for an n-bit counter (2 for 2-bit). */
    static std::uint8_t
    weaklyTaken(unsigned bits)
    {
        return static_cast<std::uint8_t>(maskBits(bits) / 2 + 1);
    }

    /** Weakly-not-taken start value (1 for 2-bit). */
    static std::uint8_t
    weaklyNotTaken(unsigned bits)
    {
        return static_cast<std::uint8_t>(maskBits(bits) / 2);
    }

  private:
    unsigned widthBits;
    std::uint8_t maxValue;
    std::uint8_t current = 0;
};

/** A fixed-size array of same-width saturating counters. */
class CounterTable
{
  public:
    /**
     * @param entries table size; must be a power of two
     * @param bits per-counter width
     * @param initial start value of every counter
     */
    CounterTable(std::size_t entries, unsigned bits, std::uint8_t initial)
        : widthBits(checkedCounterWidth(bits)),
          maxValue(static_cast<std::uint8_t>(maskBits(bits))),
          initialValue(initial > maxValue ? maxValue : initial),
          values(entries, initialValue)
    {
        if (!isPowerOfTwo(entries))
            BPSIM_PANIC("counter table size " << entries
                        << " is not a power of two");
    }

    void
    update(std::size_t index, bool taken)
    {
        // Branchless saturate-and-step: the direction depends on the
        // simulated outcome, which is poorly predicted by the *host*
        // branch predictor in the replay kernels; computing both
        // candidates and selecting compiles to conditional moves.
        std::uint16_t &v = values[index];
        const std::uint16_t up =
            static_cast<std::uint16_t>(v + (v < maxValue ? 1 : 0));
        const std::uint16_t down =
            static_cast<std::uint16_t>(v - (v > 0 ? 1 : 0));
        v = taken ? up : down;
    }

    bool
    predictTaken(std::size_t index) const
    {
        return values[index] > maxValue / 2;
    }

    std::uint8_t
    value(std::size_t index) const
    {
        return static_cast<std::uint8_t>(values[index]);
    }

    void set(std::size_t index, std::uint8_t v)
    {
        values[index] = v > maxValue ? maxValue : v;
    }

    /** Restores every counter to its construction value. */
    void
    reset()
    {
        std::fill(values.begin(), values.end(), initialValue);
    }

    std::size_t size() const { return values.size(); }
    unsigned bits() const { return widthBits; }
    std::uint8_t max() const { return maxValue; }

    /**
     * Raw counter storage, an SoA view for the SIMD bank builders
     * (sim/simd/simd_bank.cc), which copy whole tables into a shared
     * gather arena and back. Writers must keep every element within
     * 0..max(); predictTaken()/update() assume it.
     */
    const std::uint16_t *data() const { return values.data(); }
    std::uint16_t *data() { return values.data(); }

    /** Storage footprint of the counters. */
    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(values.size()) * widthBits;
    }

  private:
    unsigned widthBits;
    std::uint8_t maxValue;
    std::uint8_t initialValue;
    /**
     * Counter values never exceed 8 bits (maxValue), but they are
     * stored as uint16 on purpose: uint8 is unsigned char, whose
     * stores may alias *any* object under the C++ aliasing rules, so
     * a uint8 table forces the optimizer to reload every cached
     * member (data pointers, widths, history registers) after each
     * counter write in the inlined replay kernels. uint16 keeps the
     * table narrow while restoring type-based alias analysis.
     */
    std::vector<std::uint16_t> values;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_COUNTER_HH
