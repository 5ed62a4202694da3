/**
 * @file
 * Replay-path dispatch: one registry fold that runs any group of
 * same-type predictors over a trace by the fastest bit-identical
 * path.
 *
 * replayKernelBankAny() finds the group's concrete type by
 * dynamic_cast and runs the devirtualized kernel
 * (sim/replay_kernel.hh) over it: the solo kernel at one lane, the
 * banked kernel at more. simulateAny() is its one-lane call, falling
 * back to the virtual simulate() loop only when there is no packed
 * trace or the predictor has no fast core — which, among the
 * registry kinds, is `btfn` alone (it learns from branch targets,
 * and packed traces carry none). Runs that ask for per-branch detail
 * (SimConfig::trackPerBranch) take the same kernel with a per-branch
 * probe (sim/probe.hh). Callers never need to know which path was
 * taken — results, including the per-branch table, are bit-identical
 * by contract.
 *
 * The kind classification lives in core/factory
 * (hasFastReplay()); this dispatcher lives in sim because it depends
 * on the simulation loop, which core must not.
 */

#ifndef BPSIM_SIM_REPLAY_HH
#define BPSIM_SIM_REPLAY_HH

#include <vector>

#include "predictors/predictor.hh"
#include "sim/simulator.hh"
#include "trace/packed_trace.hh"
#include "trace/trace_source.hh"

namespace bpsim
{

/**
 * Runs @p predictor over one benchmark trace by the fastest
 * bit-identical path.
 *
 * @param predictor the predictor to drive (any kind)
 * @param trace rewindable reader for the virtual fallback path
 * @param packed packed form of the same trace, or null to force the
 *        virtual path (e.g. when no PackedTrace has been built)
 * @param config simulation options; trackPerBranch runs the kernel
 *        with a per-branch probe and fills SimResult::perBranch
 *
 * @pre @p packed, when non-null, must be built from the same records
 *      @p trace yields — the dispatcher cannot check this.
 */
SimResult simulateAny(BranchPredictor &predictor, TraceReader &trace,
                      const PackedTrace *packed,
                      const SimConfig &config = {});

/**
 * Replays a group of predictors of one concrete fast-replay type in
 * one pass over @p packed (sim/replay_kernel.hh,
 * replayKernelBank()). A one-lane group runs the solo kernel with
 * its undivided timing; wider groups are bit-identical per instance
 * to a lone run.
 *
 * The instances' state is moved into a contiguous bank for the pass
 * and moved back afterwards, so on success each predictors[i] holds
 * exactly the state a solo run would have left and results[i] its
 * counts (with the shared-pass timing attribution described at
 * SimResult::wallNanos).
 *
 * @param predictors the group, all non-null
 * @return true when the group ran; false when it is empty, its first
 *         instance has no fast core, or its instances are not all of
 *         one concrete type — the group is then untouched
 */
bool replayKernelBankAny(const std::vector<BranchPredictor *> &predictors,
                         const PackedTrace &packed,
                         const SimConfig &config,
                         std::vector<SimResult> &results);

} // namespace bpsim

#endif // BPSIM_SIM_REPLAY_HH
