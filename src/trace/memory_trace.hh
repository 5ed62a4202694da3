/**
 * @file
 * A trace held in memory, the workhorse container of the harness.
 *
 * Synthetic workloads are generated once into a MemoryTrace and then
 * replayed across dozens of predictor configurations, so the storage
 * layout is kept compact (16 bytes per record after type packing).
 */

#ifndef BPSIM_TRACE_MEMORY_TRACE_HH
#define BPSIM_TRACE_MEMORY_TRACE_HH

#include <cstddef>
#include <vector>

#include "trace/trace_source.hh"

namespace bpsim
{

/** Growable in-memory branch trace. Final, so appends through a
 *  MemoryTrace reference are direct, inlinable calls. */
class MemoryTrace final : public TraceWriter
{
  public:
    MemoryTrace() = default;

    /** Reserves capacity for @p n records. */
    void reserve(std::size_t n) { records.reserve(n); }

    void append(const BranchRecord &record) override
    {
        records.push_back(record);
    }
    void finish() override {}

    std::size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }

    const BranchRecord &operator[](std::size_t i) const { return records[i]; }

    const std::vector<BranchRecord> &data() const { return records; }

    /** Drops all records. */
    void clear() { records.clear(); }

    /** Creates a reader over this trace; the trace must outlive it. */
    class Reader;
    Reader reader() const;

  private:
    std::vector<BranchRecord> records;
};

/** Rewindable cursor over a MemoryTrace. */
class MemoryTrace::Reader : public TraceReader
{
  public:
    explicit Reader(const MemoryTrace &trace) : trace(&trace) {}

    bool
    next(BranchRecord &record) override
    {
        if (position >= trace->size())
            return false;
        record = (*trace)[position++];
        return true;
    }

    void rewind() override { position = 0; }

    std::optional<std::uint64_t>
    size() const override
    {
        return trace->size();
    }

  private:
    const MemoryTrace *trace;
    std::size_t position = 0;
};

} // namespace bpsim

#endif // BPSIM_TRACE_MEMORY_TRACE_HH
