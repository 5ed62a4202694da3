/**
 * @file
 * Trace generation: executes a synthetic Program and emits the
 * branch stream.
 *
 * The generator maintains the *executed* global history and each
 * site's local history, so correlated behaviours observe exactly
 * what a history-based predictor will observe — the correlation in
 * the trace is architectural, not injected.
 */

#ifndef BPSIM_WORKLOAD_GENERATOR_HH
#define BPSIM_WORKLOAD_GENERATOR_HH

#include <array>

#include "trace/memory_trace.hh"
#include "workload/program.hh"
#include "workload/workload_spec.hh"

namespace bpsim
{

/** Executes a Program, emitting records into a TraceWriter. */
class TraceGenerator
{
  public:
    /**
     * @param program the static program to execute (held by
     *        reference; must outlive the generator)
     * @param spec the spec the program was built from (dispatch
     *        parameters and seed)
     */
    TraceGenerator(Program &program, const WorkloadSpec &spec);

    /**
     * Emits @p count conditional branch records into @p sink.
     * finish() is not called on the sink.
     */
    void generate(std::uint64_t count, TraceWriter &sink);

    /** Restarts execution from the initial state. */
    void restart();

  private:
    std::size_t pickNextRoutine(std::size_t current);

    /** Executes one routine, emitting its branch records. */
    void walkRoutine(std::size_t routineIndex, std::uint64_t count,
                     std::uint64_t &emitted, TraceWriter &sink);

    Program &program;
    WorkloadSpec spec;
    Rng rng;
    ZipfSampler routineSampler;
    /** Scatters hot Zipf ranks across the address space. */
    std::vector<std::size_t> routineOrder;
    /**
     * Markov control flow: each routine has a few preferred
     * successors (callers repeat call sequences), giving the global
     * history cross-routine structure predictors can learn. With
     * probability WorkloadSpec-independent 1/4 the walk re-dispatches
     * through the Zipf sampler instead, keeping the heavy-tailed
     * execution skew.
     */
    std::vector<std::array<std::size_t, 3>> successors;
    std::uint64_t globalHistory = 0;
};

/** Convenience: builds the program for @p spec and generates its
 *  full dynamic branch count into an in-memory trace. */
MemoryTrace generateWorkloadTrace(const WorkloadSpec &spec);

} // namespace bpsim

#endif // BPSIM_WORKLOAD_GENERATOR_HH
