/** @file Tests for the benchmark trace cache. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "sim/trace_cache.hh"
#include "trace/codec.hh"
#include "trace/trace_store.hh"
#include "workload/generator.hh"

namespace bpsim
{
namespace
{

WorkloadSpec
tinySpec(const std::string &name, std::uint64_t dynamic)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.suite = "test";
    spec.staticBranches = 100;
    spec.dynamicBranches = dynamic;
    spec.seed = 3;
    return spec;
}

TEST(TraceCache, GeneratesOnFirstUse)
{
    TraceCache cache;
    EXPECT_EQ(cache.generatedCount(), 0u);
    const MemoryTrace &trace = cache.traceFor(tinySpec("a", 5000));
    EXPECT_EQ(trace.size(), 5000u);
    EXPECT_EQ(cache.generatedCount(), 1u);
}

TEST(TraceCache, ReturnsSameObjectOnRepeat)
{
    TraceCache cache;
    const MemoryTrace &first = cache.traceFor(tinySpec("a", 5000));
    const MemoryTrace &second = cache.traceFor(tinySpec("a", 5000));
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(cache.generatedCount(), 1u);
}

TEST(TraceCache, DistinctBenchmarksDistinctTraces)
{
    TraceCache cache;
    const MemoryTrace &a = cache.traceFor(tinySpec("a", 5000));
    const MemoryTrace &b = cache.traceFor(tinySpec("b", 4000));
    EXPECT_NE(&a, &b);
    EXPECT_EQ(b.size(), 4000u);
    EXPECT_EQ(cache.generatedCount(), 2u);
}

TEST(TraceCacheDeath, ConflictingSpecsPanic)
{
    TraceCache cache;
    cache.traceFor(tinySpec("a", 5000));
    EXPECT_DEATH(cache.traceFor(tinySpec("a", 6000)),
                 "different dynamic counts");
}

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

TEST(TraceCache, EmptyDirectoryMeansMemoryOnly)
{
    TraceCache cache{std::string()};
    EXPECT_FALSE(cache.persistent());
    EXPECT_EQ(cache.traceFor(tinySpec("a", 3000)).size(), 3000u);
}

TEST(TraceCache, FingerprintTracksTheWholeSpec)
{
    const WorkloadSpec base = tinySpec("a", 5000);
    WorkloadSpec reseeded = base;
    reseeded.seed = 4;
    WorkloadSpec resized = base;
    resized.dynamicBranches = 6000;
    EXPECT_EQ(workloadTraceFingerprint(base),
              workloadTraceFingerprint(tinySpec("a", 5000)));
    EXPECT_NE(workloadTraceFingerprint(base),
              workloadTraceFingerprint(reseeded));
    EXPECT_NE(workloadTraceFingerprint(base),
              workloadTraceFingerprint(resized));
}

TEST(TraceCache, WarmRunLoadsBitIdenticalTracesWithoutGenerating)
{
    TempStoreDir dir("cache_warm");
    const WorkloadSpec spec = tinySpec("a", 5000);

    // Cold: generate, pack, and persist both forms.
    TraceCache cold(dir.path());
    ASSERT_TRUE(cold.persistent());
    const MemoryTrace &generated = cold.traceFor(spec);
    const PackedTrace &built = cold.packedFor(spec);
    EXPECT_EQ(cold.stats().generated, 1u);
    EXPECT_EQ(cold.stats().packedBuilt, 1u);

    // Warm: a fresh cache over the same directory must serve both
    // forms from disk, bit-identical, generating nothing.
    TraceCache warm(dir.path());
    const MemoryTrace &loaded = warm.traceFor(spec);
    EXPECT_EQ(warm.stats().generated, 0u);
    EXPECT_EQ(warm.stats().traceLoads, 1u);
    ASSERT_EQ(loaded.size(), generated.size());
    for (std::size_t i = 0; i < loaded.size(); ++i)
        ASSERT_EQ(loaded[i], generated[i]) << "record " << i;

    const PackedTrace &packed = warm.packedFor(spec);
    EXPECT_EQ(warm.stats().packedLoads, 1u);
    EXPECT_EQ(warm.stats().packedBuilt, 0u);
    ASSERT_EQ(packed.size(), built.size());
    EXPECT_EQ(packed.takenCount(), built.takenCount());
    for (std::size_t i = 0; i < packed.size(); ++i) {
        ASSERT_EQ(packed.pc(i), built.pc(i)) << "pc " << i;
        ASSERT_EQ(packed.taken(i), built.taken(i)) << "bit " << i;
    }
}

TEST(TraceCache, PackedLoadsStraightFromStoreWithoutFullTrace)
{
    TempStoreDir dir("cache_packed_only");
    const WorkloadSpec spec = tinySpec("a", 4000);
    {
        TraceCache cold(dir.path());
        cold.packedFor(spec);
    }
    // A warm cache asked only for the packed form must not touch
    // (or regenerate) the full trace.
    TraceCache warm(dir.path());
    const PackedTrace &packed = warm.packedFor(spec);
    EXPECT_EQ(packed.size(), 4000u);
    EXPECT_EQ(warm.stats().generated, 0u);
    EXPECT_EQ(warm.stats().traceLoads, 0u);
    EXPECT_EQ(warm.stats().packedLoads, 1u);
    EXPECT_EQ(warm.generatedCount(), 0u);
}

/** Expects @p trace to hold exactly @p pristine's records. */
void
expectSameTrace(const MemoryTrace &trace, const MemoryTrace &pristine)
{
    ASSERT_EQ(trace.size(), pristine.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        ASSERT_EQ(trace[i], pristine[i]) << "record " << i;
}

/** Expects @p packed to hold exactly the pcs and outcomes of the
 *  conditional records of @p pristine. */
void
expectSamePacked(const PackedTrace &packed, const MemoryTrace &pristine)
{
    const PackedTrace reference(pristine);
    ASSERT_EQ(packed.size(), reference.size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
        ASSERT_EQ(packed.pc(i), reference.pc(i)) << "pc " << i;
        ASSERT_EQ(packed.taken(i), reference.taken(i)) << "bit " << i;
    }
}

/** Reads the u32 format version at byte 4 of @p path. */
std::uint32_t
fileVersion(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint8_t header[8] = {};
    in.read(reinterpret_cast<char *>(header), sizeof(header));
    return getLe32(header + 4);
}

/**
 * Fills a store from cold, damages both cached files with
 * @p damage(path, extension), and expects the store to heal: the
 * next cache rejects both files, regenerates bit-identical traces
 * and rewrites the files in the current versions, which the cache
 * after it loads without generating.
 */
void
expectStoreHeals(const std::string &dirName,
                 void (*damage)(const std::string &path,
                                const std::string &extension))
{
    TempStoreDir dir(dirName);
    const WorkloadSpec spec = tinySpec("a", 5000);
    MemoryTrace pristine;
    {
        TraceCache cold(dir.path());
        const MemoryTrace &trace = cold.traceFor(spec);
        for (std::size_t i = 0; i < trace.size(); ++i)
            pristine.append(trace[i]);
        cold.packedFor(spec);
    }

    const TraceStore store(dir.path());
    const std::uint64_t fp = workloadTraceFingerprint(spec);
    std::map<std::string, std::uint32_t> versions;
    for (const std::string ext : {".bbt1", ".pbt1"}) {
        const std::string path = store.pathFor(spec.name, fp, ext);
        versions[ext] = fileVersion(path);
        damage(path, ext);
    }

    TraceCache recovering(dir.path());
    expectSameTrace(recovering.traceFor(spec), pristine);
    expectSamePacked(recovering.packedFor(spec), pristine);
    EXPECT_EQ(recovering.stats().generated, 1u);
    EXPECT_EQ(recovering.stats().invalidFiles, 2u);
    EXPECT_EQ(recovering.stats().traceLoads, 0u);
    EXPECT_EQ(recovering.stats().packedLoads, 0u);
    for (const auto &[ext, version] : versions)
        EXPECT_EQ(fileVersion(store.pathFor(spec.name, fp, ext)), version)
            << ext;

    TraceCache healed(dir.path());
    expectSameTrace(healed.traceFor(spec), pristine);
    expectSamePacked(healed.packedFor(spec), pristine);
    EXPECT_EQ(healed.stats().generated, 0u);
    EXPECT_EQ(healed.stats().invalidFiles, 0u);
    EXPECT_EQ(healed.stats().traceLoads, 1u);
    EXPECT_EQ(healed.stats().packedLoads, 1u);
}

TEST(TraceCache, CorruptedStoreFilesRegenerateAndRewrite)
{
    // One flipped payload byte in each cached file.
    expectStoreHeals("cache_corrupt",
                     [](const std::string &path, const std::string &) {
                         std::fstream f(path, std::ios::binary |
                                                  std::ios::in |
                                                  std::ios::out);
                         ASSERT_TRUE(f) << path;
                         char byte;
                         f.seekg(80);
                         f.read(&byte, 1);
                         byte = static_cast<char>(byte ^ 0x04);
                         f.seekp(80);
                         f.write(&byte, 1);
                     });
}

TEST(TraceCache, OlderFormatVersionsRegenerateAndRewrite)
{
    // BBT1 v1 and PBT1 v2 (FNV-1a checksums) are stale formats.
    expectStoreHeals(
        "cache_old_versions",
        [](const std::string &path, const std::string &extension) {
            std::fstream f(path,
                           std::ios::binary | std::ios::in | std::ios::out);
            ASSERT_TRUE(f) << path;
            std::uint8_t version[4];
            putLe32(version, extension == ".bbt1" ? 1 : 2);
            f.seekp(4);
            f.write(reinterpret_cast<const char *>(version), 4);
        });
}

TEST(TraceCache, PackedFileWithWrongRecordCountIsRebuilt)
{
    // A self-consistent PBT1 file under the right name and
    // fingerprint whose record count is not the spec's dynamic count
    // (here: a shorter trace of the same workload) is stale; the
    // cache must count it invalid, rebuild and rewrite it.
    TempStoreDir dir("cache_packed_count");
    const WorkloadSpec spec = tinySpec("a", 5000);
    const std::uint64_t fp = workloadTraceFingerprint(spec);
    const TraceStore store(dir.path());
    std::string why;
    ASSERT_TRUE(store.storePacked(
        spec.name, fp,
        PackedTrace(generateWorkloadTrace(tinySpec("a", 4000))), why))
        << why;

    TraceCache rebuilding(dir.path());
    const PackedTrace &rebuilt = rebuilding.packedFor(spec);
    EXPECT_EQ(rebuilt.size(), 5000u);
    EXPECT_EQ(rebuilding.stats().invalidFiles, 1u);
    EXPECT_EQ(rebuilding.stats().packedLoads, 0u);
    EXPECT_EQ(rebuilding.stats().packedBuilt, 1u);
    expectSamePacked(rebuilt, generateWorkloadTrace(spec));

    TraceCache healed(dir.path());
    EXPECT_EQ(healed.packedFor(spec).size(), 5000u);
    EXPECT_EQ(healed.stats().invalidFiles, 0u);
    EXPECT_EQ(healed.stats().packedLoads, 1u);
    EXPECT_EQ(healed.stats().packedBuilt, 0u);
}

TEST(TraceCache, UnwritableStoreWarnsAndKeepsServing)
{
    // A store whose writes fail (temp files aimed at /dev/full) must
    // cost only the persistence: the cache warns and still serves
    // the generated traces.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    TempStoreDir dir("cache_dev_full");
    const WorkloadSpec spec = tinySpec("a", 3000);
    const TraceStore store(dir.path());
    const std::uint64_t fp = workloadTraceFingerprint(spec);
    for (const char *ext : {".bbt1.tmp", ".pbt1.tmp"}) {
        std::error_code ec;
        std::filesystem::create_symlink(
            "/dev/full", store.pathFor(spec.name, fp, ext), ec);
        ASSERT_FALSE(ec) << ec.message();
    }

    TraceCache cache(dir.path());
    EXPECT_EQ(cache.traceFor(spec).size(), 3000u);
    EXPECT_EQ(cache.packedFor(spec).size(), 3000u);
    EXPECT_EQ(cache.stats().generated, 1u);
    EXPECT_FALSE(std::filesystem::exists(
        store.pathFor(spec.name, fp, ".bbt1")));
    EXPECT_FALSE(std::filesystem::exists(
        store.pathFor(spec.name, fp, ".pbt1")));
}

TEST(TraceCache, WritesSpecSidecarForDebugging)
{
    TempStoreDir dir("cache_sidecar");
    const WorkloadSpec spec = tinySpec("a", 3000);
    TraceCache cache(dir.path());
    cache.traceFor(spec);
    const TraceStore store(dir.path());
    const std::string path = store.pathFor(
        spec.name, workloadTraceFingerprint(spec), ".spec");
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("workload spec"), std::string::npos);
}

} // namespace
} // namespace bpsim
