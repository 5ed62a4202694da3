/**
 * @file
 * The BBT1 on-disk branch-trace format.
 *
 * Layout:
 *   bytes 0..3    magic "BBT1"
 *   bytes 4..7    format version, little-endian u32 (currently 2)
 *   bytes 8..15   record count, little-endian u64
 *   bytes 16..23  reserved (zero)
 *   payload       per-record encoding (below)
 *   last 8 bytes  TraceChecksum (codec.hh) of the payload,
 *                 little-endian u64
 *
 * Each record is encoded as
 *   flags varint  bit 0 = taken, bits 1..3 = BranchType
 *   pc    varint  zigzag delta from the previous record's pc
 *   tgt   varint  zigzag delta from this record's pc
 *
 * Consecutive branch pcs are near each other and targets are near
 * their branches, so typical traces cost a few bytes per record.
 *
 * Version 1 checksummed the payload with byte-serial FNV-1a; it is
 * rejected as unsupported (the trace store then regenerates), so
 * there is one reader for one version.
 *
 * Every read goes through one decode loop (tryReadBinaryTrace()),
 * which checks the header, the checksum, each record's type, an
 * early end of the payload and trailing bytes after the declared
 * count, and builds an error string only when one of them fails.
 */

#ifndef BPSIM_TRACE_BINARY_IO_HH
#define BPSIM_TRACE_BINARY_IO_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/codec.hh"
#include "trace/memory_trace.hh"
#include "trace/trace_source.hh"

namespace bpsim
{

/** Streams records into a BBT1 file. */
class BinaryTraceWriter : public TraceWriter
{
  public:
    /** Opens @p path for writing; fatal() on failure. */
    explicit BinaryTraceWriter(const std::string &path);

    /** finish() must already have been called (checked). */
    ~BinaryTraceWriter() override;

    void append(const BranchRecord &record) override;

    /** Patches the header count and appends the checksum; fatal()
     *  on an I/O error. */
    void finish() override;

    /** finish() for callers that recover from I/O errors: returns
     *  false and sets @p why instead of terminating. */
    bool tryFinish(std::string &why);

    std::uint64_t recordsWritten() const { return count; }

  private:
    void flushBuffer();

    std::string path;
    std::ofstream file;
    std::vector<std::uint8_t> buffer;
    TraceChecksum checksum;
    std::uint64_t count = 0;
    std::uint64_t previousPc = 0;
    bool finished = false;
};

/** Reads a BBT1 file. The whole file is validated and decoded at
 *  open time, so the reader holds the decoded records. */
class BinaryTraceReader : public TraceReader
{
  public:
    /** Opens, validates and decodes @p path; fatal() on any format
     *  error. */
    explicit BinaryTraceReader(const std::string &path);

    bool next(BranchRecord &record) override;
    void rewind() override { position = 0; }
    std::optional<std::uint64_t> size() const override
    {
        return records.size();
    }

  private:
    MemoryTrace records;
    std::size_t position = 0;
};

/** Convenience: writes an entire reader's contents to @p path. */
std::uint64_t writeBinaryTrace(TraceReader &reader, const std::string &path);

/** Convenience: loads an entire BBT1 file into @p sink; fatal() on
 *  any format error. */
void readBinaryTrace(const std::string &path, TraceWriter &sink);

/**
 * Non-fatal whole-file load for callers that treat a bad file as
 * recoverable (the trace store regenerates instead of terminating).
 * Decodes straight into @p out's storage, replacing its contents.
 * Returns "" on success; otherwise the validation or decode error,
 * and @p out is left empty.
 */
std::string tryReadBinaryTrace(const std::string &path, MemoryTrace &out);

} // namespace bpsim

#endif // BPSIM_TRACE_BINARY_IO_HH
