#include "trace/codec.hh"

#include <algorithm>

namespace bpsim
{

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t value)
{
    std::uint8_t bytes[kMaxVarintBytes];
    out.insert(out.end(), bytes, bytes + encodeVarint(bytes, value));
}

bool
getVarint(const std::uint8_t *data, std::size_t size,
          std::size_t &offset, std::uint64_t &value)
{
    std::uint64_t result = 0;
    unsigned shift = 0;
    while (offset < size && shift < 64) {
        const std::uint8_t byte = data[offset++];
        result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            value = result;
            return true;
        }
        shift += 7;
    }
    return false;
}

namespace
{

constexpr std::uint64_t kLaneMultiplier = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kFoldMultiplier = 0xff51afd7ed558ccdULL;

/** One lane step: xor the word in, multiply by an odd constant, fold
 *  the high bits down — each part invertible for a fixed word. */
inline std::uint64_t
mixLane(std::uint64_t lane, std::uint64_t word)
{
    lane = (lane ^ word) * kLaneMultiplier;
    return lane ^ (lane >> 29);
}

} // namespace

void
TraceChecksum::mixBlock(const std::uint8_t *block)
{
    for (std::size_t i = 0; i < kLanes; ++i)
        lanes[i] = mixLane(lanes[i], getLe64(block + 8 * i));
}

void
TraceChecksum::update(const std::uint8_t *data, std::size_t n)
{
    if (n == 0)
        return;
    totalBytes += n;
    if (pendingBytes != 0) {
        const std::size_t take = std::min(n, kBlockBytes - pendingBytes);
        std::memcpy(pending + pendingBytes, data, take);
        pendingBytes += take;
        data += take;
        n -= take;
        if (pendingBytes < kBlockBytes)
            return;
        mixBlock(pending);
        pendingBytes = 0;
    }
    for (; n >= kBlockBytes; data += kBlockBytes, n -= kBlockBytes)
        mixBlock(data);
    std::memcpy(pending, data, n);
    pendingBytes = n;
}

std::uint64_t
TraceChecksum::digest() const
{
    // The pending bytes, zero-padded to whole words, continue the
    // lane rotation where the last full block left it.
    std::uint64_t tail[kLanes];
    std::copy(lanes, lanes + kLanes, tail);
    std::uint8_t padded[kBlockBytes] = {};
    std::memcpy(padded, pending, pendingBytes);
    for (std::size_t i = 0; 8 * i < pendingBytes; ++i)
        tail[i] = mixLane(tail[i], getLe64(padded + 8 * i));

    std::uint64_t hash = totalBytes * kFoldMultiplier;
    for (const std::uint64_t lane : tail) {
        hash = (hash ^ lane) * kFoldMultiplier;
        hash ^= hash >> 32;
    }
    return hash;
}

} // namespace bpsim
