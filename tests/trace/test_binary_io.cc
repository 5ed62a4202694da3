/** @file Tests for the BBT1 binary trace format. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "trace/binary_io.hh"
#include "trace/memory_trace.hh"
#include "util/random.hh"

namespace bpsim
{
namespace
{

/** Temp-file path helper that cleans up after the test. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : filePath(::testing::TempDir() + name)
    {
    }

    ~TempFile() { std::remove(filePath.c_str()); }

    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
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
        record.target = pc + 4 * (rng.nextBounded(64) + 1) -
                        4 * rng.nextBounded(32);
        record.type = static_cast<BranchType>(rng.nextBounded(5));
        record.taken = rng.nextBool(0.6);
        trace.append(record);
    }
    return trace;
}

TEST(BinaryIo, RoundTripSmall)
{
    TempFile file("bbt_small.trace");
    const MemoryTrace original = randomTrace(100, 1);
    auto reader = original.reader();
    EXPECT_EQ(writeBinaryTrace(reader, file.path()), 100u);

    MemoryTrace loaded;
    readBinaryTrace(file.path(), loaded);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i)
        EXPECT_EQ(loaded[i], original[i]) << "record " << i;
}

TEST(BinaryIo, RoundTripLarge)
{
    TempFile file("bbt_large.trace");
    const MemoryTrace original = randomTrace(200'000, 2);
    auto reader = original.reader();
    writeBinaryTrace(reader, file.path());
    MemoryTrace loaded;
    readBinaryTrace(file.path(), loaded);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); i += 997)
        EXPECT_EQ(loaded[i], original[i]) << "record " << i;
}

TEST(BinaryIo, EmptyTraceRoundTrips)
{
    TempFile file("bbt_empty.trace");
    MemoryTrace empty;
    auto reader = empty.reader();
    EXPECT_EQ(writeBinaryTrace(reader, file.path()), 0u);
    MemoryTrace loaded;
    readBinaryTrace(file.path(), loaded);
    EXPECT_TRUE(loaded.empty());
}

TEST(BinaryIo, CompressionBeatsRawEncoding)
{
    TempFile file("bbt_ratio.trace");
    const MemoryTrace original = randomTrace(50'000, 3);
    auto reader = original.reader();
    writeBinaryTrace(reader, file.path());
    std::ifstream in(file.path(), std::ios::ate | std::ios::binary);
    const auto file_size = static_cast<std::size_t>(in.tellg());
    // Raw encoding would be >= 17 bytes/record; the delta codec
    // should stay well under 8.
    EXPECT_LT(file_size, original.size() * 8);
}

TEST(BinaryIo, ReaderRewindReproduces)
{
    TempFile file("bbt_rewind.trace");
    const MemoryTrace original = randomTrace(500, 4);
    auto writer_reader = original.reader();
    writeBinaryTrace(writer_reader, file.path());

    BinaryTraceReader reader(file.path());
    BranchRecord first_pass, second_pass;
    ASSERT_TRUE(reader.next(first_pass));
    reader.rewind();
    ASSERT_TRUE(reader.next(second_pass));
    EXPECT_EQ(first_pass, second_pass);
}

TEST(BinaryIo, SizeIsKnown)
{
    TempFile file("bbt_size.trace");
    const MemoryTrace original = randomTrace(321, 5);
    auto reader = original.reader();
    writeBinaryTrace(reader, file.path());
    BinaryTraceReader loaded(file.path());
    ASSERT_TRUE(loaded.size().has_value());
    EXPECT_EQ(*loaded.size(), 321u);
}

TEST(BinaryIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(BinaryTraceReader("/nonexistent/path.trace"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(BinaryIoDeath, BadMagicIsFatal)
{
    TempFile file("bbt_magic.trace");
    std::ofstream out(file.path(), std::ios::binary);
    out << "NOTATRACE_PADDING_PADDING_PADDING";
    out.close();
    EXPECT_EXIT(BinaryTraceReader(file.path()),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(BinaryIoDeath, TruncatedFileIsFatal)
{
    TempFile file("bbt_trunc.trace");
    std::ofstream out(file.path(), std::ios::binary);
    out << "BB";
    out.close();
    EXPECT_EXIT(BinaryTraceReader(file.path()),
                ::testing::ExitedWithCode(1), "too small");
}

TEST(BinaryIoDeath, CorruptPayloadIsFatal)
{
    TempFile file("bbt_corrupt.trace");
    const MemoryTrace original = randomTrace(1000, 6);
    auto reader = original.reader();
    writeBinaryTrace(reader, file.path());

    // Flip one payload byte; the checksum must catch it.
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(100);
    char byte;
    f.seekg(100);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(100);
    f.write(&byte, 1);
    f.close();

    EXPECT_EXIT(BinaryTraceReader(file.path()),
                ::testing::ExitedWithCode(1), "checksum mismatch");
}

TEST(BinaryIoDeath, OlderVersionIsFatalAndNamed)
{
    // Version 1 used the retired FNV-1a checksum; the reader names
    // the version it refuses.
    TempFile file("bbt_v1.trace");
    const MemoryTrace original = randomTrace(100, 12);
    auto reader = original.reader();
    writeBinaryTrace(reader, file.path());
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const char version = 1;
    f.write(&version, 1);
    f.close();
    EXPECT_EXIT(BinaryTraceReader(file.path()),
                ::testing::ExitedWithCode(1), "unsupported BBT1 version 1");
}

/** Overwrites the low byte of the BBT1 record-count field. The
 *  payload and its checksum stay intact, so only the count/payload
 *  consistency checks can catch the mismatch. */
void
patchCountByte(const std::string &path, std::uint8_t value)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f) << path;
    f.seekp(8);
    const char byte = static_cast<char>(value);
    f.write(&byte, 1);
}

void
drainReader(const std::string &path)
{
    BinaryTraceReader reader(path);
    BranchRecord record;
    while (reader.next(record)) {
    }
}

TEST(BinaryIoDeath, UndercountedHeaderIsTrailingGarbage)
{
    // Count patched 100 -> 50: after the declared records the payload
    // still has bytes left. That is a distinct corruption from a
    // checksum failure and must say so.
    TempFile file("bbt_undercount.trace");
    const MemoryTrace original = randomTrace(100, 7);
    auto reader = original.reader();
    writeBinaryTrace(reader, file.path());
    patchCountByte(file.path(), 50);
    EXPECT_EXIT(drainReader(file.path()),
                ::testing::ExitedWithCode(1), "trailing byte");
}

TEST(BinaryIoDeath, OvercountedHeaderEndsEarly)
{
    // Count patched 100 -> 200: the decoder runs off the end of the
    // payload and must name the record where it happened.
    TempFile file("bbt_overcount.trace");
    const MemoryTrace original = randomTrace(100, 8);
    auto reader = original.reader();
    writeBinaryTrace(reader, file.path());
    patchCountByte(file.path(), 200);
    EXPECT_EXIT(drainReader(file.path()),
                ::testing::ExitedWithCode(1), "ended early");
}

TEST(TryReadBinaryTrace, SuccessMatchesFatalReader)
{
    TempFile file("bbt_try_ok.trace");
    const MemoryTrace original = randomTrace(300, 9);
    auto reader = original.reader();
    writeBinaryTrace(reader, file.path());

    MemoryTrace loaded;
    EXPECT_EQ(tryReadBinaryTrace(file.path(), loaded), "");
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i)
        EXPECT_EQ(loaded[i], original[i]) << "record " << i;
}

TEST(TryReadBinaryTrace, ReportsErrorsWithoutTerminating)
{
    MemoryTrace sink;
    EXPECT_NE(tryReadBinaryTrace("/nonexistent/path.trace", sink)
                  .find("cannot open"),
              std::string::npos);

    TempFile corrupt("bbt_try_corrupt.trace");
    const MemoryTrace original = randomTrace(100, 10);
    auto reader = original.reader();
    writeBinaryTrace(reader, corrupt.path());
    {
        std::fstream f(corrupt.path(),
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(60);
        char byte;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x10);
        f.seekp(60);
        f.write(&byte, 1);
    }
    EXPECT_NE(tryReadBinaryTrace(corrupt.path(), sink)
                  .find("checksum mismatch"),
              std::string::npos);
}

TEST(TryReadBinaryTrace, UndercountReportsTrailingGarbage)
{
    TempFile file("bbt_try_undercount.trace");
    const MemoryTrace original = randomTrace(100, 11);
    auto reader = original.reader();
    writeBinaryTrace(reader, file.path());
    {
        std::fstream f(file.path(),
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(8);
        const char byte = 50;
        f.write(&byte, 1);
    }
    MemoryTrace sink;
    EXPECT_NE(tryReadBinaryTrace(file.path(), sink)
                  .find("trailing byte"),
              std::string::npos);
}

} // namespace
} // namespace bpsim
