/** @file Tests for the persistent trace store and PBT1 format. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "trace/codec.hh"
#include "trace/memory_trace.hh"
#include "trace/packed_trace.hh"
#include "trace/trace_store.hh"
#include "util/random.hh"

namespace bpsim
{
namespace
{

/** A per-test store directory that cleans up after itself. */
class TempStoreDir
{
  public:
    explicit TempStoreDir(const std::string &name)
        : dirPath(::testing::TempDir() + name)
    {
        std::filesystem::remove_all(dirPath);
    }

    ~TempStoreDir() { std::filesystem::remove_all(dirPath); }

    const std::string &path() const { return dirPath; }

  private:
    std::string dirPath;
};

MemoryTrace
randomTrace(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    MemoryTrace trace;
    std::uint64_t pc = 0x400000;
    for (std::size_t i = 0; i < n; ++i) {
        BranchRecord record;
        pc += 4 * (1 + rng.nextBounded(16));
        record.pc = pc;
        record.target = pc + 64;
        record.type = static_cast<BranchType>(rng.nextBounded(5));
        record.taken = rng.nextBool(0.6);
        trace.append(record);
    }
    return trace;
}

void
xorByteAt(const std::string &path, std::size_t offset,
          std::uint8_t mask)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f) << path;
    char byte;
    f.seekg(static_cast<std::streamoff>(offset));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ mask);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
}

void
expectSamePacked(const PackedTrace &a, const PackedTrace &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.wordCount(), b.wordCount());
    EXPECT_EQ(a.takenCount(), b.takenCount());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.pc(i), b.pc(i)) << "pc " << i;
        ASSERT_EQ(a.taken(i), b.taken(i)) << "bit " << i;
    }
}

constexpr std::uint64_t kFp = 0x1122334455667788ull;

TEST(TraceStore, BbtRoundTrip)
{
    TempStoreDir dir("store_bbt_rt");
    TraceStore store(dir.path());
    const MemoryTrace original = randomTrace(500, 1);

    std::string why;
    ASSERT_TRUE(store.storeTrace("gcc", kFp, original, why)) << why;

    MemoryTrace loaded;
    EXPECT_EQ(store.loadTrace("gcc", kFp, 500, loaded, why),
              StoreStatus::Loaded)
        << why;
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i)
        ASSERT_EQ(loaded[i], original[i]) << "record " << i;
}

TEST(TraceStore, ColdMissIsMissingNotInvalid)
{
    TempStoreDir dir("store_cold");
    TraceStore store(dir.path());
    MemoryTrace out;
    std::string why;
    EXPECT_EQ(store.loadTrace("gcc", kFp, 100, out, why),
              StoreStatus::Missing);
    PackedTrace packed;
    EXPECT_EQ(store.loadPacked("gcc", kFp, packed, why),
              StoreStatus::Missing);
}

TEST(TraceStore, StaleFingerprintIsADifferentFile)
{
    // The fingerprint is part of the file stem, so a workload change
    // looks like a plain cold miss — the old file is simply ignored.
    TempStoreDir dir("store_stale");
    TraceStore store(dir.path());
    const MemoryTrace original = randomTrace(100, 2);
    std::string why;
    ASSERT_TRUE(store.storeTrace("gcc", kFp, original, why)) << why;

    MemoryTrace out;
    EXPECT_EQ(store.loadTrace("gcc", kFp + 1, 100, out, why),
              StoreStatus::Missing);
}

TEST(TraceStore, WrongRecordCountIsInvalid)
{
    TempStoreDir dir("store_count");
    TraceStore store(dir.path());
    const MemoryTrace original = randomTrace(100, 3);
    std::string why;
    ASSERT_TRUE(store.storeTrace("gcc", kFp, original, why)) << why;

    MemoryTrace out;
    EXPECT_EQ(store.loadTrace("gcc", kFp, 101, out, why),
              StoreStatus::Invalid);
    EXPECT_NE(why.find("expected"), std::string::npos) << why;
}

TEST(TraceStore, TruncatedBbtIsInvalid)
{
    TempStoreDir dir("store_bbt_trunc");
    TraceStore store(dir.path());
    const MemoryTrace original = randomTrace(200, 4);
    std::string why;
    ASSERT_TRUE(store.storeTrace("gcc", kFp, original, why)) << why;

    const std::string path = store.pathFor("gcc", kFp, ".bbt1");
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 5);

    MemoryTrace out;
    EXPECT_EQ(store.loadTrace("gcc", kFp, 200, out, why),
              StoreStatus::Invalid);
    EXPECT_TRUE(out.empty());
}

TEST(TraceStore, FlippedBbtPayloadBitIsInvalid)
{
    TempStoreDir dir("store_bbt_flip");
    TraceStore store(dir.path());
    const MemoryTrace original = randomTrace(200, 5);
    std::string why;
    ASSERT_TRUE(store.storeTrace("gcc", kFp, original, why)) << why;

    xorByteAt(store.pathFor("gcc", kFp, ".bbt1"), 40, 0x08);

    MemoryTrace out;
    EXPECT_EQ(store.loadTrace("gcc", kFp, 200, out, why),
              StoreStatus::Invalid);
    EXPECT_NE(why.find("checksum mismatch"), std::string::npos) << why;
}

TEST(TraceStore, PackedRoundTripBitIdentical)
{
    TempStoreDir dir("store_pbt_rt");
    TraceStore store(dir.path());
    // 150 conditionals: the bitmap has a partial final word, so the
    // padding rules are exercised too.
    MemoryTrace trace;
    for (std::size_t i = 0; i < 150; ++i) {
        BranchRecord record;
        record.pc = 0x1000 + 4 * i;
        record.target = record.pc + 16;
        record.type = BranchType::Conditional;
        record.taken = (i * 5) % 3 == 0;
        trace.append(record);
    }
    const PackedTrace packed(trace);

    std::string why;
    ASSERT_TRUE(store.storePacked("gcc", kFp, packed, why)) << why;

    PackedTrace loaded;
    ASSERT_EQ(store.loadPacked("gcc", kFp, loaded, why),
              StoreStatus::Loaded)
        << why;
    expectSamePacked(packed, loaded);
}

TEST(TraceStore, LoadedViewArraysAreCacheLineAligned)
{
    // 150 records is not a multiple of 8, so without the v2 bitmap
    // padding the mmap'd bitmap would land on a 64+8*150 = 1264 byte
    // offset — misaligned. The loaded trace must be a zero-copy view
    // with both arrays on kTraceArrayAlign boundaries.
    TempStoreDir dir("store_pbt_align");
    TraceStore store(dir.path());
    MemoryTrace trace;
    for (std::size_t i = 0; i < 150; ++i) {
        BranchRecord record;
        record.pc = 0x2000 + 4 * i;
        record.target = record.pc + 16;
        record.type = BranchType::Conditional;
        record.taken = (i * 7) % 3 == 0;
        trace.append(record);
    }
    const PackedTrace packed(trace);
    std::string why;
    ASSERT_TRUE(store.storePacked("gcc", kFp, packed, why)) << why;

    PackedTrace loaded;
    ASSERT_EQ(store.loadPacked("gcc", kFp, loaded, why),
              StoreStatus::Loaded)
        << why;
    EXPECT_TRUE(loaded.isView());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(loaded.pcData()) %
                  kTraceArrayAlign,
              0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(loaded.wordData()) %
                  kTraceArrayAlign,
              0u);
    expectSamePacked(packed, loaded);
}

TEST(TraceStore, EmptyPackedRoundTrips)
{
    TempStoreDir dir("store_pbt_empty");
    TraceStore store(dir.path());
    const PackedTrace empty{MemoryTrace{}};
    std::string why;
    ASSERT_TRUE(store.storePacked("gcc", kFp, empty, why)) << why;
    PackedTrace loaded;
    ASSERT_EQ(store.loadPacked("gcc", kFp, loaded, why),
              StoreStatus::Loaded)
        << why;
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_EQ(loaded.takenCount(), 0u);
}

/** Writes a valid PBT1 file, corrupts it with @p corrupt, and expects
 *  loadPacked to reject it with @p expect in the reason. */
void
expectPackedInvalid(const std::string &dirName,
                    void (*corrupt)(const std::string &path),
                    const std::string &expect)
{
    TempStoreDir dir(dirName);
    TraceStore store(dir.path());
    const MemoryTrace trace = randomTrace(100, 6);
    const PackedTrace packed(trace);
    std::string why;
    ASSERT_TRUE(store.storePacked("gcc", kFp, packed, why)) << why;

    corrupt(store.pathFor("gcc", kFp, ".pbt1"));

    PackedTrace loaded;
    EXPECT_EQ(store.loadPacked("gcc", kFp, loaded, why),
              StoreStatus::Invalid);
    EXPECT_NE(why.find(expect), std::string::npos) << why;
}

TEST(TraceStore, TruncatedPackedHeaderIsInvalid)
{
    expectPackedInvalid(
        "store_pbt_tiny",
        [](const std::string &path) {
            std::filesystem::resize_file(path, 40);
        },
        "too small");
}

TEST(TraceStore, TruncatedPackedPayloadIsInvalid)
{
    expectPackedInvalid(
        "store_pbt_trunc",
        [](const std::string &path) {
            const auto size = std::filesystem::file_size(path);
            std::filesystem::resize_file(path, size - 8);
        },
        "bytes");
}

TEST(TraceStore, FlippedPackedPayloadBitIsInvalid)
{
    expectPackedInvalid(
        "store_pbt_flip",
        [](const std::string &path) { xorByteAt(path, 100, 0x01); },
        "checksum mismatch");
}

TEST(TraceStore, WrongPackedVersionIsInvalid)
{
    expectPackedInvalid(
        "store_pbt_ver",
        [](const std::string &path) { xorByteAt(path, 4, 0x02); },
        "unsupported PBT1 version");
}

TEST(TraceStore, BadPackedMagicIsInvalid)
{
    expectPackedInvalid(
        "store_pbt_magic",
        [](const std::string &path) { xorByteAt(path, 0, 0x20); },
        "bad magic");
}

TEST(TraceStore, PatchedPackedCountIsInvalid)
{
    // A count field that disagrees with the file size must be caught
    // before the payload is trusted (the checksum can't help: it is
    // computed over whatever range the count implies). 0x80 moves the
    // count far enough that the bitmap's aligned offset shifts too —
    // a one-off patch could land inside the same alignment slack and
    // only fail the checksum instead.
    expectPackedInvalid(
        "store_pbt_count",
        [](const std::string &path) { xorByteAt(path, 8, 0x80); },
        "records need");
}

TEST(TraceStore, PatchedPackedFingerprintIsInvalid)
{
    // A renamed or hand-copied file whose embedded fingerprint
    // disagrees with the requested key is stale, not corrupt — but
    // must still be rejected.
    expectPackedInvalid(
        "store_pbt_fp",
        [](const std::string &path) { xorByteAt(path, 16, 0x80); },
        "fingerprint");
}

TEST(TraceStore, NonzeroPaddingBitsAreInvalid)
{
    // Hand-built file: 1 record, bitmap word with a padding bit set,
    // checksum valid — only the padding rule can reject it.
    TempStoreDir dir("store_pbt_pad");
    TraceStore store(dir.path());
    const std::string path = store.pathFor("gcc", kFp, ".pbt1");

    std::uint8_t pc_bytes[8];
    std::uint8_t bitmap_bytes[8];
    putLe64(pc_bytes, 0x4000);
    putLe64(bitmap_bytes, 0b110); // bit 0 clear, padding bits 1..2 set
    TraceChecksum checksum;
    checksum.update(pc_bytes, sizeof(pc_bytes));
    checksum.update(bitmap_bytes, sizeof(bitmap_bytes));

    std::uint8_t header[64] = {};
    header[0] = 'P';
    header[1] = 'B';
    header[2] = 'T';
    header[3] = '1';
    putLe32(header + 4, 3);
    putLe64(header + 8, 1);
    putLe64(header + 16, kFp);
    putLe64(header + 24, checksum.digest());

    // Layout per PBT1 v3: one pc word after the header, then a zero
    // gap up to the bitmap's 64-byte-aligned offset (128).
    const char gap[64 - sizeof(pc_bytes)] = {};
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(header), sizeof(header));
    out.write(reinterpret_cast<const char *>(pc_bytes),
              sizeof(pc_bytes));
    out.write(gap, sizeof(gap));
    out.write(reinterpret_cast<const char *>(bitmap_bytes),
              sizeof(bitmap_bytes));
    out.close();

    PackedTrace loaded;
    std::string why;
    EXPECT_EQ(store.loadPacked("gcc", kFp, loaded, why),
              StoreStatus::Invalid);
    EXPECT_NE(why.find("padding"), std::string::npos) << why;
}

/** Overwrites the u32 format version at byte 4 of @p path. */
void
patchVersion(const std::string &path, std::uint32_t version)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f) << path;
    std::uint8_t bytes[4];
    putLe32(bytes, version);
    f.seekp(4);
    f.write(reinterpret_cast<const char *>(bytes), 4);
}

TEST(TraceStore, OlderBbtVersionIsInvalid)
{
    // BBT1 v1 carried an FNV-1a checksum; there is no reader for it.
    TempStoreDir dir("store_bbt_v1");
    TraceStore store(dir.path());
    std::string why;
    ASSERT_TRUE(store.storeTrace("gcc", kFp, randomTrace(100, 12), why))
        << why;
    patchVersion(store.pathFor("gcc", kFp, ".bbt1"), 1);

    MemoryTrace out;
    EXPECT_EQ(store.loadTrace("gcc", kFp, 100, out, why),
              StoreStatus::Invalid);
    EXPECT_NE(why.find("unsupported BBT1 version 1"), std::string::npos)
        << why;
    EXPECT_TRUE(out.empty());
}

TEST(TraceStore, OlderPackedVersionIsInvalid)
{
    // PBT1 v2 carried an FNV-1a checksum; there is no reader for it.
    expectPackedInvalid(
        "store_pbt_v2",
        [](const std::string &path) { patchVersion(path, 2); },
        "unsupported PBT1 version 2");
}

TEST(TraceStore, WriteErrorsAreReportedNotFatal)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    TempStoreDir dir("store_dev_full");
    TraceStore store(dir.path());
    const MemoryTrace trace = randomTrace(500, 13);
    const PackedTrace packed(trace);

    // Each store writes its temp file first; aimed at /dev/full, where
    // every write fails (ENOSPC), the store must report it, drop the
    // temp file (the link, never its target) and leave no cached file
    // behind.
    for (const std::string ext : {".bbt1", ".pbt1"}) {
        const std::string path = store.pathFor("gcc", kFp, ext);
        std::filesystem::create_symlink("/dev/full", path + ".tmp");
        std::string why;
        const bool stored = ext == ".bbt1"
                                ? store.storeTrace("gcc", kFp, trace, why)
                                : store.storePacked("gcc", kFp, packed, why);
        EXPECT_FALSE(stored) << ext;
        EXPECT_NE(why.find("I/O error"), std::string::npos) << why;
        EXPECT_FALSE(std::filesystem::is_symlink(path + ".tmp")) << ext;
        EXPECT_FALSE(std::filesystem::exists(path)) << ext;
    }
    EXPECT_TRUE(std::filesystem::exists("/dev/full"));

    // With the links gone, the same store writes normally again.
    std::string why;
    EXPECT_TRUE(store.storeTrace("gcc", kFp, trace, why)) << why;
    EXPECT_TRUE(store.storePacked("gcc", kFp, packed, why)) << why;
}

TEST(TraceStore, StemSanitizesHostileNames)
{
    const std::string stem = TraceStore::stemFor("a/b c!", 0xff);
    EXPECT_EQ(stem, "a_b_c_-00000000000000ff");
    EXPECT_EQ(TraceStore::stemFor("", 1), "trace-0000000000000001");
}

TEST(ResolveTraceStoreDir, FlagWinsOverEverything)
{
    ::setenv("BPSIM_TRACE_CACHE", "/env/dir", 1);
    EXPECT_EQ(resolveTraceStoreDir("/flag/dir"), "/flag/dir");
    ::unsetenv("BPSIM_TRACE_CACHE");
}

TEST(ResolveTraceStoreDir, EnvThenDefault)
{
    ::setenv("BPSIM_TRACE_CACHE", "/env/dir", 1);
    EXPECT_EQ(resolveTraceStoreDir(""), "/env/dir");
    ::unsetenv("BPSIM_TRACE_CACHE");
    EXPECT_EQ(resolveTraceStoreDir(""), ".bpsim-cache");
}

TEST(ResolveTraceStoreDir, DisableSpellings)
{
    EXPECT_EQ(resolveTraceStoreDir("none"), "");
    EXPECT_EQ(resolveTraceStoreDir("off"), "");
    EXPECT_EQ(resolveTraceStoreDir("0"), "");
    ::setenv("BPSIM_TRACE_CACHE", "none", 1);
    EXPECT_EQ(resolveTraceStoreDir(""), "");
    ::unsetenv("BPSIM_TRACE_CACHE");
}

} // namespace
} // namespace bpsim
