/**
 * @file
 * Byte-level primitives for the on-disk trace formats: LEB128
 * varints, zigzag signed mapping, the TraceChecksum file checksum
 * shared by BBT1 and PBT1, and an FNV-1a string hash.
 *
 * Branch traces are extremely compressible — consecutive pcs are
 * near each other and targets are near their pcs — so records are
 * stored as zigzag-encoded deltas in varints. Typical synthetic
 * traces compress to ~3 bytes/record versus 24 bytes raw.
 */

#ifndef BPSIM_TRACE_CODEC_HH
#define BPSIM_TRACE_CODEC_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace bpsim
{

/** Maps a signed value to unsigned with small magnitudes kept small. */
constexpr std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

/** Inverse of zigzagEncode(). */
constexpr std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

/** Writes @p value to @p out as 4 little-endian bytes. */
inline void
putLe32(std::uint8_t *out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/** Writes @p value to @p out as 8 little-endian bytes. */
inline void
putLe64(std::uint8_t *out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/** Reads 4 little-endian bytes from @p in. */
inline std::uint32_t
getLe32(const std::uint8_t *in)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(in[i]) << (8 * i);
    return value;
}

/** Reads 8 little-endian bytes from @p in. */
inline std::uint64_t
getLe64(const std::uint8_t *in)
{
    std::uint64_t value = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&value, in, 8);
    } else {
        for (int i = 0; i < 8; ++i)
            value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    }
    return value;
}

/** Longest LEB128 encoding of a 64-bit value. */
constexpr std::size_t kMaxVarintBytes = 10;

/** Writes @p value at @p out as a LEB128 varint; returns its length
 *  (1..kMaxVarintBytes). */
inline std::size_t
encodeVarint(std::uint8_t *out, std::uint64_t value)
{
    std::size_t n = 0;
    while (value >= 0x80) {
        out[n++] = static_cast<std::uint8_t>(value) | 0x80;
        value >>= 7;
    }
    out[n++] = static_cast<std::uint8_t>(value);
    return n;
}

/** Appends @p value to @p out as a LEB128 varint (1..10 bytes). */
void putVarint(std::vector<std::uint8_t> &out, std::uint64_t value);

/**
 * Reads one varint from @p data at @p offset, advancing the offset.
 *
 * @retval true a complete varint was decoded into @p value
 * @retval false the buffer ended mid-varint (offset unspecified)
 */
bool getVarint(const std::uint8_t *data, std::size_t size,
               std::size_t &offset, std::uint64_t &value);

/**
 * Reads one varint at @p p (< @p end) and advances @p p past it. The
 * 1-byte case — every BBT1 flags field and most deltas — is inline;
 * longer varints take getVarint().
 *
 * @retval false the buffer ended mid-varint (@p p unspecified)
 */
inline bool
readVarint(const std::uint8_t *&p, const std::uint8_t *end,
           std::uint64_t &value)
{
    if (p != end && *p < 0x80) {
        value = *p++;
        return true;
    }
    std::size_t offset = 0;
    const bool ok =
        getVarint(p, static_cast<std::size_t>(end - p), offset, value);
    p += offset;
    return ok;
}

/**
 * Streaming checksum of the BBT1 payload and the PBT1 arrays.
 *
 * The byte stream is read as little-endian 64-bit words; word i
 * feeds lane i mod 4, and each lane takes one multiply-xorshift step
 * per word. The four lanes have no data dependence on each other, so
 * their multiplies overlap: a 22 MiB buffer takes ~1.5 ms, against
 * ~24 ms for byte-serial FNV-1a (Xeon VM, GCC 12, -O2).
 * A final partial word is zero-padded, and digest() folds the lanes
 * together with the total byte length, so appending a zero byte
 * changes the digest too.
 *
 * Each step is a bijection of its lane for a fixed word, and the
 * fold is a bijection of each lane for fixed others, so changing any
 * single byte always changes the digest. The checksum detects
 * accidental corruption; it is not a cryptographic hash.
 */
class TraceChecksum
{
  public:
    /** Mixes @p n bytes, continuing the stream of earlier calls. */
    void update(const std::uint8_t *data, std::size_t n);

    /** Digest of every byte passed so far; the stream may continue. */
    std::uint64_t digest() const;

  private:
    static constexpr std::size_t kLanes = 4;
    static constexpr std::size_t kBlockBytes = 8 * kLanes;

    void mixBlock(const std::uint8_t *block);

    std::uint64_t lanes[kLanes] = {
        0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
        0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
    /** Bytes of the current, incomplete block. */
    std::uint8_t pending[kBlockBytes] = {};
    std::size_t pendingBytes = 0;
    std::uint64_t totalBytes = 0;
};

/** Incremental FNV-1a 64-bit hash, used for workload fingerprints
 *  (a few hundred bytes of spec text, not trace files). */
class Fnv1a
{
  public:
    /** Mixes @p n bytes into the hash. */
    void
    update(const std::uint8_t *data, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            state ^= data[i];
            state *= 0x100000001b3ULL;
        }
    }

    std::uint64_t digest() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ULL;
};

} // namespace bpsim

#endif // BPSIM_TRACE_CODEC_HH
