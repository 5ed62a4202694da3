/** @file Tests for varint / zigzag / checksum primitives. */

#include <gtest/gtest.h>

#include "trace/codec.hh"
#include "util/random.hh"

namespace bpsim
{
namespace
{

TEST(Zigzag, KnownValues)
{
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
    EXPECT_EQ(zigzagEncode(-2), 3u);
    EXPECT_EQ(zigzagEncode(2), 4u);
}

TEST(Zigzag, RoundTripExtremes)
{
    for (std::int64_t v : {std::int64_t{0}, std::int64_t{1},
                           std::int64_t{-1},
                           std::numeric_limits<std::int64_t>::max(),
                           std::numeric_limits<std::int64_t>::min()}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
}

TEST(Zigzag, RoundTripRandom)
{
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i) {
        const std::int64_t v = static_cast<std::int64_t>(rng.next64());
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
}

TEST(Zigzag, SmallMagnitudesStaySmall)
{
    for (std::int64_t v = -64; v <= 63; ++v)
        EXPECT_LT(zigzagEncode(v), 128u);
}

TEST(Varint, SingleByteValues)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, 0);
    putVarint(buf, 1);
    putVarint(buf, 127);
    EXPECT_EQ(buf.size(), 3u);
}

TEST(Varint, MultiByteBoundaries)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, 128);
    EXPECT_EQ(buf.size(), 2u);
    buf.clear();
    putVarint(buf, ~std::uint64_t{0});
    EXPECT_EQ(buf.size(), 10u);
}

TEST(Varint, RoundTripSweep)
{
    std::vector<std::uint64_t> values;
    for (unsigned shift = 0; shift < 64; ++shift) {
        values.push_back(std::uint64_t{1} << shift);
        values.push_back((std::uint64_t{1} << shift) - 1);
        values.push_back((std::uint64_t{1} << shift) + 1);
    }
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        values.push_back(rng.next64());

    std::vector<std::uint8_t> buf;
    for (std::uint64_t v : values)
        putVarint(buf, v);

    std::size_t offset = 0;
    for (std::uint64_t expected : values) {
        std::uint64_t decoded = 0;
        ASSERT_TRUE(getVarint(buf.data(), buf.size(), offset, decoded));
        EXPECT_EQ(decoded, expected);
    }
    EXPECT_EQ(offset, buf.size());
}

TEST(Varint, TruncatedBufferFails)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, 1'000'000);
    std::size_t offset = 0;
    std::uint64_t value = 0;
    EXPECT_FALSE(getVarint(buf.data(), buf.size() - 1, offset, value));
}

TEST(Varint, EmptyBufferFails)
{
    std::size_t offset = 0;
    std::uint64_t value = 0;
    EXPECT_FALSE(getVarint(nullptr, 0, offset, value));
}

/** Deterministic test bytes: 0x01, 0x08, 0x0f, ... */
std::vector<std::uint8_t>
patternBytes(std::size_t n)
{
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i)
        bytes[i] = static_cast<std::uint8_t>(7 * i + 1);
    return bytes;
}

std::uint64_t
checksumOf(const std::vector<std::uint8_t> &bytes)
{
    TraceChecksum checksum;
    checksum.update(bytes.data(), bytes.size());
    return checksum.digest();
}

TEST(TraceChecksum, EmptyDigest)
{
    const TraceChecksum fresh;
    EXPECT_EQ(fresh.digest(), 0x6dabb4e20069a5b5ULL);
    // A zero-length update is not data.
    TraceChecksum updated;
    const std::uint8_t byte = 0;
    updated.update(&byte, 0);
    EXPECT_EQ(updated.digest(), fresh.digest());
}

TEST(TraceChecksum, IncrementalMatchesOneShotAtEverySplit)
{
    // Lengths 0..100 cross the 8-byte word and 32-byte block
    // boundaries; every split point must give the one-shot digest,
    // and so must byte-at-a-time feeding.
    for (std::size_t len = 0; len <= 100; ++len) {
        const std::vector<std::uint8_t> bytes = patternBytes(len);
        const std::uint64_t whole = checksumOf(bytes);
        for (std::size_t split = 0; split <= len; ++split) {
            TraceChecksum parts;
            parts.update(bytes.data(), split);
            parts.update(bytes.data() + split, len - split);
            ASSERT_EQ(parts.digest(), whole)
                << "len " << len << " split " << split;
        }
        TraceChecksum bytewise;
        for (std::size_t i = 0; i < len; ++i)
            bytewise.update(bytes.data() + i, 1);
        ASSERT_EQ(bytewise.digest(), whole) << "len " << len;
    }
}

TEST(TraceChecksum, DigestDoesNotEndTheStream)
{
    const std::vector<std::uint8_t> bytes = patternBytes(77);
    TraceChecksum checksum;
    checksum.update(bytes.data(), 40);
    checksum.digest();
    checksum.update(bytes.data() + 40, 37);
    EXPECT_EQ(checksum.digest(), checksumOf(bytes));
}

TEST(TraceChecksum, EveryByteFlipAndZeroAppendChangeTheDigest)
{
    for (std::size_t len = 0; len <= 100; ++len) {
        const std::vector<std::uint8_t> bytes = patternBytes(len);
        const std::uint64_t original = checksumOf(bytes);
        for (std::size_t i = 0; i < len; ++i) {
            for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
                std::vector<std::uint8_t> flipped = bytes;
                flipped[i] ^= mask;
                ASSERT_NE(checksumOf(flipped), original)
                    << "len " << len << " byte " << i << " mask "
                    << int{mask};
            }
        }
        std::vector<std::uint8_t> extended = bytes;
        extended.push_back(0);
        ASSERT_NE(checksumOf(extended), original) << "len " << len;
    }
}

TEST(TraceChecksum, KnownVectors)
{
    // Pinned digests: the BBT1 v2 and PBT1 v3 files on disk carry
    // this function's output, so any change to it must come with a
    // format version bump.
    EXPECT_EQ(checksumOf(patternBytes(1)), 0xd17af932a6c2527dULL);
    EXPECT_EQ(checksumOf(patternBytes(100)), 0x74bb89d95167649eULL);
}

TEST(Fnv1a, EmptyDigestIsOffsetBasis)
{
    Fnv1a hash;
    EXPECT_EQ(hash.digest(), 0xcbf29ce484222325ULL);
}

TEST(Fnv1a, KnownVector)
{
    // FNV-1a 64 of "a" is a published test vector.
    Fnv1a hash;
    const std::uint8_t a = 'a';
    hash.update(&a, 1);
    EXPECT_EQ(hash.digest(), 0xaf63dc4c8601ec8cULL);
}

TEST(Fnv1a, IncrementalMatchesOneShot)
{
    const std::uint8_t data[] = {1, 2, 3, 4, 5, 6, 7, 8};
    Fnv1a whole, parts;
    whole.update(data, sizeof(data));
    parts.update(data, 3);
    parts.update(data + 3, 5);
    EXPECT_EQ(whole.digest(), parts.digest());
}

TEST(Fnv1a, SensitiveToEveryByte)
{
    const std::uint8_t a[] = {1, 2, 3, 4};
    const std::uint8_t b[] = {1, 2, 3, 5};
    Fnv1a ha, hb;
    ha.update(a, 4);
    hb.update(b, 4);
    EXPECT_NE(ha.digest(), hb.digest());
}

} // namespace
} // namespace bpsim
