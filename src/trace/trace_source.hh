/**
 * @file
 * Abstract interfaces for producing and consuming branch traces.
 *
 * Every consumer starts its pass with rewind(), so one reader can
 * serve several runs in turn (a simulation and then a bias analysis
 * of the same trace, or one run per predictor of a sweep).
 */

#ifndef BPSIM_TRACE_TRACE_SOURCE_HH
#define BPSIM_TRACE_TRACE_SOURCE_HH

#include <cstdint>
#include <optional>

#include "trace/branch_record.hh"

namespace bpsim
{

/** A rewindable stream of branch records. */
class TraceReader
{
  public:
    virtual ~TraceReader() = default;

    /**
     * Fetches the next record.
     *
     * @param record output slot, written only on success
     * @retval true a record was produced
     * @retval false end of trace
     */
    virtual bool next(BranchRecord &record) = 0;

    /** Restarts the stream from the first record. */
    virtual void rewind() = 0;

    /** Total record count if known up front. */
    virtual std::optional<std::uint64_t> size() const { return std::nullopt; }
};

/** A sink accepting branch records in trace order. */
class TraceWriter
{
  public:
    virtual ~TraceWriter() = default;

    /** Appends one record. */
    virtual void append(const BranchRecord &record) = 0;

    /** Flushes buffered state; must be called before the sink is read. */
    virtual void finish() = 0;
};

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_SOURCE_HH
