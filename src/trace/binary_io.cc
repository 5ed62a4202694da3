#include "trace/binary_io.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "trace/mmap_file.hh"
#include "util/logging.hh"

namespace bpsim
{

namespace
{

constexpr char kMagic[4] = {'B', 'B', 'T', '1'};
/** Version 2 replaced the FNV-1a payload checksum with
 *  TraceChecksum; version-1 files are rejected. */
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderSize = 24;
constexpr std::size_t kFlushThreshold = 1 << 20;
/** Every record takes at least three 1-byte varints. */
constexpr std::size_t kMinRecordBytes = 3;

/**
 * The one BBT1 decode loop: validates @p path and decodes all its
 * records into @p out. "" on success; the error text otherwise, with
 * @p out in an unspecified state.
 */
std::string
decodeFile(const std::string &path, MemoryTrace &out)
{
    std::string error;
    const std::shared_ptr<const MmapFile> file =
        MmapFile::open(path, error);
    if (!file)
        return error;
    if (file->size() < kHeaderSize + 8)
        return "'" + path + "' is too small to be a BBT1 trace";
    const std::uint8_t *header = file->data();
    if (std::memcmp(header, kMagic, 4) != 0)
        return "'" + path + "' is not a BBT1 trace (bad magic)";
    const std::uint32_t version = getLe32(header + 4);
    if (version != kVersion)
        return "'" + path + "': unsupported BBT1 version " +
               std::to_string(version);
    const std::uint64_t count = getLe64(header + 8);

    const std::uint8_t *payload = header + kHeaderSize;
    const std::uint8_t *end = header + file->size() - 8;
    const std::size_t payload_size =
        static_cast<std::size_t>(end - payload);
    TraceChecksum checksum;
    checksum.update(payload, payload_size);
    if (checksum.digest() != getLe64(end))
        return "'" + path + "': checksum mismatch, file corrupt";

    // A corrupt count cannot make the reservation outgrow the
    // payload: short records end the decode early instead.
    out.clear();
    out.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, payload_size / kMinRecordBytes)));
    const std::uint8_t *p = payload;
    std::uint64_t pc = 0;
    for (std::uint64_t produced = 0; produced < count; ++produced) {
        std::uint64_t flags, pc_delta, target_delta;
        if (!readVarint(p, end, flags) || !readVarint(p, end, pc_delta) ||
            !readVarint(p, end, target_delta)) {
            return "'" + path + "': BBT1 payload ended early at record " +
                   std::to_string(produced);
        }
        const std::uint64_t type_bits = (flags >> 1) & 0x7;
        if (type_bits >
            static_cast<std::uint64_t>(BranchType::IndirectJump)) {
            return "'" + path + "': BBT1 record " +
                   std::to_string(produced) + " has invalid type " +
                   std::to_string(type_bits);
        }
        BranchRecord record;
        pc += static_cast<std::uint64_t>(zigzagDecode(pc_delta));
        record.pc = pc;
        record.target =
            pc + static_cast<std::uint64_t>(zigzagDecode(target_delta));
        record.type = static_cast<BranchType>(type_bits);
        record.taken = flags & 1;
        out.append(record);
    }
    // Exactly count records must consume the whole payload; extra
    // bytes mean the count field and the payload disagree.
    if (p != end)
        return "'" + path + "': BBT1 payload has " +
               std::to_string(end - p) + " trailing byte(s) after the " +
               "declared " + std::to_string(count) + " record(s)";
    return "";
}

} // namespace

BinaryTraceWriter::BinaryTraceWriter(const std::string &path)
    : path(path), file(path, std::ios::binary | std::ios::trunc)
{
    if (!file)
        BPSIM_FATAL("cannot open trace file '" << path << "' for writing");
    std::uint8_t header[kHeaderSize] = {};
    std::memcpy(header, kMagic, 4);
    putLe32(header + 4, kVersion);
    // Count (bytes 8..15) is patched in finish().
    file.write(reinterpret_cast<const char *>(header), kHeaderSize);
    buffer.reserve(kFlushThreshold + 3 * kMaxVarintBytes);
}

BinaryTraceWriter::~BinaryTraceWriter()
{
    if (!finished)
        BPSIM_WARN("BinaryTraceWriter for '" << path
                   << "' destroyed without finish(); file is truncated");
}

void
BinaryTraceWriter::append(const BranchRecord &record)
{
    if (finished)
        BPSIM_PANIC("append() after finish()");
    const std::uint64_t flags =
        (static_cast<std::uint64_t>(record.type) << 1) |
        (record.taken ? 1 : 0);
    std::uint8_t bytes[3 * kMaxVarintBytes];
    std::size_t n = encodeVarint(bytes, flags);
    n += encodeVarint(bytes + n, zigzagEncode(static_cast<std::int64_t>(
                                     record.pc - previousPc)));
    n += encodeVarint(bytes + n, zigzagEncode(static_cast<std::int64_t>(
                                     record.target - record.pc)));
    buffer.insert(buffer.end(), bytes, bytes + n);
    previousPc = record.pc;
    ++count;
    if (buffer.size() >= kFlushThreshold)
        flushBuffer();
}

void
BinaryTraceWriter::flushBuffer()
{
    if (buffer.empty())
        return;
    checksum.update(buffer.data(), buffer.size());
    file.write(reinterpret_cast<const char *>(buffer.data()),
               static_cast<std::streamsize>(buffer.size()));
    buffer.clear();
}

void
BinaryTraceWriter::finish()
{
    std::string why;
    if (!tryFinish(why))
        BPSIM_FATAL(why);
}

bool
BinaryTraceWriter::tryFinish(std::string &why)
{
    if (finished)
        return true;
    finished = true;
    flushBuffer();
    std::uint8_t trailer[8];
    putLe64(trailer, checksum.digest());
    file.write(reinterpret_cast<const char *>(trailer), 8);
    file.seekp(8);
    std::uint8_t count_bytes[8];
    putLe64(count_bytes, count);
    file.write(reinterpret_cast<const char *>(count_bytes), 8);
    file.flush();
    const bool ok = static_cast<bool>(file);
    file.close();
    if (!ok) {
        why = "I/O error while finalizing trace file '" + path + "'";
        return false;
    }
    return true;
}

BinaryTraceReader::BinaryTraceReader(const std::string &path)
{
    const std::string error = tryReadBinaryTrace(path, records);
    if (!error.empty())
        BPSIM_FATAL(error);
}

bool
BinaryTraceReader::next(BranchRecord &record)
{
    if (position >= records.size())
        return false;
    record = records[position++];
    return true;
}

std::uint64_t
writeBinaryTrace(TraceReader &reader, const std::string &path)
{
    BinaryTraceWriter writer(path);
    BranchRecord record;
    while (reader.next(record))
        writer.append(record);
    writer.finish();
    return writer.recordsWritten();
}

void
readBinaryTrace(const std::string &path, TraceWriter &sink)
{
    BinaryTraceReader reader(path);
    BranchRecord record;
    while (reader.next(record))
        sink.append(record);
    sink.finish();
}

std::string
tryReadBinaryTrace(const std::string &path, MemoryTrace &out)
{
    const std::string error = decodeFile(path, out);
    if (!error.empty())
        out.clear();
    return error;
}

} // namespace bpsim
