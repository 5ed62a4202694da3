/**
 * @file
 * Compact static-branch ids for a PackedTrace.
 *
 * The per-branch accounting probes (sim/probe.hh) need a dense
 * counter array indexed per static branch, hot enough to live inside
 * the replay kernels' inner loops — a hash lookup per dynamic branch
 * would cost more than the prediction it instruments. PcIndex maps
 * each distinct pc of a PackedTrace to a small integer id once, up
 * front, and materializes the id of every dynamic record as a
 * contiguous uint32 array parallel to the trace's pc array. A probe
 * then indexes its counters with one load: ids[i]. The build is one
 * pass over a flat power-of-two open-addressing table keyed by pc.
 *
 * Ids are assigned in first-appearance order over the whole trace
 * (warm-up records included), so the id of a branch never depends on
 * the warm-up split a particular run uses — the same index serves
 * every SimConfig over the trace, and a TraceCache-shared trace needs
 * only one.
 *
 * Executions and taken counts per static branch are lane- and
 * predictor-independent (they are facts of the trace), so probes only
 * accumulate mispredictions; countRange() recovers the other two
 * columns from the trace itself for any measured region.
 */

#ifndef BPSIM_TRACE_PC_INDEX_HH
#define BPSIM_TRACE_PC_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/packed_trace.hh"

namespace bpsim
{

/** First-appearance-ordered dense ids for a trace's static branches. */
class PcIndex
{
  public:
    /** Builds the id arrays for @p packed (one full trace pass). */
    explicit PcIndex(const PackedTrace &packed);

    /** Distinct static branches in the trace. */
    std::size_t staticCount() const { return pcs.size(); }

    /** Dynamic record count the index was built over. */
    std::size_t size() const { return recordIds.size(); }

    /** Per-record ids, parallel to PackedTrace::pcData(). */
    const std::uint32_t *idData() const { return recordIds.data(); }

    /** pc of static branch @p id. */
    std::uint64_t pcOf(std::uint32_t id) const { return pcs[id]; }

    /** Per-static-branch execution/taken counts over one region. */
    struct RangeCounts
    {
        /** Both vectors have staticCount() entries; branches that do
         *  not execute in the region hold zero. */
        std::vector<std::uint64_t> executions;
        std::vector<std::uint64_t> taken;
    };

    /**
     * Counts executions and taken outcomes per static branch over
     * records [@p from, @p to) of @p packed — the measured region of
     * a replay. @p packed must be the trace this index was built
     * from.
     */
    RangeCounts countRange(const PackedTrace &packed, std::size_t from,
                           std::size_t to) const;

  private:
    /** id of record i (first-appearance order). */
    std::vector<std::uint32_t> recordIds;
    /** pc of id k. */
    std::vector<std::uint64_t> pcs;
};

} // namespace bpsim

#endif // BPSIM_TRACE_PC_INDEX_HH
