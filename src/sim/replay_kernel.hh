/**
 * @file
 * The devirtualized batched replay kernel.
 *
 * replayKernel() is the hot loop of the project: it streams a
 * PackedTrace (contiguous pc array + taken bitmap, conditionals only)
 * through a *concrete* predictor type, so every predict/update call
 * inlines instead of going through the BranchPredictor vtable, and
 * the taken bitmap is loaded one 64-branch word at a time.
 * replayKernelBank() is its multi-configuration form: one trace pass
 * steps a contiguous bank of same-kind instances, which is how
 * campaign jobs sharing a trace are fused (campaign/campaign.cc).
 *
 * Bit-identity contract: for any predictor P and trace T,
 * replayKernel(P, pack(T)) and simulate(P, T) must produce identical
 * branches/mispredictions/takenBranches and leave P in the identical
 * state. The kernel leans on two invariants of the virtual loop:
 *
 *  - predictDetailed() is const and side-effect-free, so warm-up
 *    records (whose predictions are discarded) can skip prediction
 *    entirely and only train;
 *  - none of the kernel-eligible predictor kinds override
 *    observeTarget(), so the target-observation call is omitted
 *    (a static_assert in the sim/replay.cc registry fold holds
 *    every fast-replay type to this).
 *
 * tests/sim/test_replay.cc enforces the contract for every
 * factory-constructible spec.
 */

#ifndef BPSIM_SIM_REPLAY_KERNEL_HH
#define BPSIM_SIM_REPLAY_KERNEL_HH

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/probe.hh"
#include "sim/simd/kernel_tier.hh"
#include "sim/simd/simd_bank.hh"
#include "sim/simulator.hh"
#include "trace/packed_trace.hh"

namespace bpsim
{

/** Taken outcomes in trace positions [from, to) — the bitmap span's
 *  population count, lane-independent by definition. */
inline std::uint64_t
countTakenInRange(const PackedTrace &packed, std::size_t from,
                  std::size_t to)
{
    std::uint64_t taken = 0;
    for (std::size_t i = from; i < to;) {
        const std::size_t word_index = i / PackedTrace::kWordBits;
        const std::size_t word_end = std::min(
            to, (word_index + 1) * PackedTrace::kWordBits);
        const std::uint64_t word = packed.takenWord(word_index) >>
                                   (i % PackedTrace::kWordBits);
        const std::size_t consumed = word_end - i;
        const std::uint64_t mask =
            consumed >= 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << consumed) - 1;
        taken += static_cast<std::uint64_t>(std::popcount(word & mask));
        i = word_end;
    }
    return taken;
}

/** Trains @p predictor on trace positions [from, to) without
 *  scoring them, streaming the taken bitmap one 64-branch word at a
 *  time. */
template <typename Pred>
inline void
trainRange(Pred &predictor, const PackedTrace &packed, std::size_t from,
           std::size_t to)
{
    const std::uint64_t *pcs = packed.pcData();
    for (std::size_t i = from; i < to;) {
        const std::size_t word_index = i / PackedTrace::kWordBits;
        const std::size_t word_end =
            std::min(to, (word_index + 1) * PackedTrace::kWordBits);
        std::uint64_t word =
            packed.takenWord(word_index) >> (i % PackedTrace::kWordBits);
        for (; i < word_end; ++i, word >>= 1)
            predictor.updateFast(pcs[i], (word & 1) != 0);
    }
}

/** Predicts, scores and trains trace positions [from, to) with one
 *  stepFast() each, shifting outcomes out of a register instead of
 *  re-indexing the bitmap per branch; @p probe sees every branch.
 *  Returns the mispredictions. */
template <typename Pred, typename Probe>
inline std::uint64_t
stepRange(Pred &predictor, const PackedTrace &packed, std::size_t from,
          std::size_t to, Probe probe)
{
    const std::uint64_t *pcs = packed.pcData();
    std::uint64_t missed = 0;
    for (std::size_t i = from; i < to;) {
        const std::size_t word_index = i / PackedTrace::kWordBits;
        const std::size_t word_end =
            std::min(to, (word_index + 1) * PackedTrace::kWordBits);
        std::uint64_t word =
            packed.takenWord(word_index) >> (i % PackedTrace::kWordBits);
        for (; i < word_end; ++i, word >>= 1) {
            const bool taken = (word & 1) != 0;
            const bool mispredicted =
                predictor.stepFast(pcs[i], taken) != taken;
            missed += static_cast<std::uint64_t>(mispredicted);
            probe.record(i, mispredicted);
        }
    }
    return missed;
}

namespace detail
{

inline std::uint64_t
elapsedNanos(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

} // namespace detail

/**
 * Replays @p packed through @p predictor using its non-virtual
 * updateFast()/stepFast() methods.
 *
 * @tparam Pred a concrete predictor type providing
 *         `void updateFast(std::uint64_t pc, bool taken)` (the state
 *         transition of its virtual update()) and
 *         `bool stepFast(std::uint64_t pc, bool taken)` (fused
 *         predict + update sharing one set of table lookups,
 *         bit-identical to predict-then-update).
 * @tparam Probe per-branch accounting sink (sim/probe.hh); the
 *         default NullProbe instantiates the exact unprobed loop.
 *         The probe sees every *measured* branch (warm-up records
 *         are never recorded, matching the virtual loop's
 *         per-branch collection).
 */
template <typename Pred, typename Probe = NullProbe>
SimResult
replayKernel(Pred &predictor, const PackedTrace &packed,
             const SimConfig &config = {}, Probe probe = {})
{
    SimResult result;
    result.predictorName = predictor.name();
    result.counterBits = predictor.counterBits();
    result.storageBits = predictor.storageBits();

    const std::size_t total = packed.size();
    const std::size_t warmup = static_cast<std::size_t>(
        std::min<std::uint64_t>(config.warmupBranches, total));

    // Warm-up records train the predictor but are excluded from the
    // statistics. Predictions are side-effect-free, so skipping them
    // leaves the predictor in the same state as the virtual loop.
    const auto start = std::chrono::steady_clock::now();
    trainRange(predictor, packed, 0, warmup);
    result.mispredictions =
        stepRange(predictor, packed, warmup, total, probe);
    result.wallNanos = detail::elapsedNanos(start);
    result.branches = total - warmup;
    result.takenBranches = countTakenInRange(packed, warmup, total);
    return result;
}

namespace detail
{

/**
 * The vectorized tiers of replayKernelBank(): flattens @p bank into
 * SoA lane state and steps 4/8/16 lanes per instruction (sim/simd/).
 * Bit-identity with the scalar bank holds by construction — lanes
 * are the vector axis, branches stay serial (see simd_kernel.hh) —
 * and is enforced per tier by tests/sim/test_replay_bank.cc.
 *
 * @return false, with the reason logged once per process and the
 *         bank untouched, when the kind, the bank's shape, its
 *         per-branch probe arena or the tier cannot run here; the
 *         caller then runs the scalar bank. On true, @p nanos holds
 *         the runSimdBank() time alone.
 */
template <typename Pred, typename BankProbe>
bool
replaySimdBank(std::vector<Pred> &bank, const PackedTrace &packed,
               std::size_t warmup, KernelTier tier, BankProbe probe,
               std::uint64_t *mispredictions, std::uint64_t &nanos)
{
    std::optional<SimdBankState> simd = buildSimdBank(bank);
    if (!simd)
        return false;
    // Probed runs need the per-lane uint32 misprediction arena on
    // top of the counter arenas.
    SimdBankProbe simd_probe;
    SimdBankProbe *probe_ptr = nullptr;
    if constexpr (BankProbe::kEnabled) {
        if (!buildSimdBankProbe(simd_probe, probe.ids,
                                probe.staticCount, *simd,
                                packed.size())) {
            logSimdBankFallback(
                bank.front().name(),
                "per-branch probe arena exceeds the 32-bit sink");
            return false;
        }
        probe_ptr = &simd_probe;
    }
    const auto start = std::chrono::steady_clock::now();
    if (!runSimdBank(*simd, tier, packed.pcData(), packed.wordData(),
                     packed.size(), warmup, probe_ptr)) {
        // Resolution checks availability, so this shouldn't
        // happen; the scalar bank is always a correct answer.
        logSimdBankFallback(
            bank.front().name(),
            "resolved tier has no backend in this binary");
        return false;
    }
    nanos = elapsedNanos(start);
    storeSimdBank(*simd, bank);
    std::copy(simd->mispredictions.begin(),
              simd->mispredictions.end(), mispredictions);
    if constexpr (BankProbe::kEnabled) {
        // Widen the pass's uint32 counters into the probe's
        // per-lane uint64 blocks.
        for (std::size_t l = 0; l < bank.size(); ++l) {
            const std::uint32_t *src =
                simd_probe.arena.data() + simd_probe.laneBase[l];
            std::uint64_t *dst = probe.lane(l).misses;
            for (std::size_t k = 0; k < simd_probe.staticCount; ++k)
                dst[k] += src[k];
        }
    }
    return true;
}

/**
 * The scalar bank: steps every lane's predictor object in place and
 * returns the pass's wall time.
 *
 * Lane-major within blocks: the trace is still streamed once (each
 * block's pcs and taken words are L1-hot while every lane consumes
 * them), but each lane runs a whole block before the next lane is
 * touched. Branch-major order would force every lane's hot state
 * (history register, table base pointer) back through memory on each
 * branch — the stores of the other lanes' steps could alias them;
 * lane-major keeps that state in registers for a whole block, which
 * is where the fused path's speedup over per-job passes comes from.
 * Lanes are independent, so reordering steps across lanes cannot
 * change any lane's result.
 */
template <typename Pred, typename BankProbe>
std::uint64_t
replayScalarBank(std::vector<Pred> &bank, const PackedTrace &packed,
                 std::size_t warmup, BankProbe probe,
                 std::uint64_t *mispredictions)
{
    // Blocks span several bitmap words so each lane turn amortizes
    // its state reload; a block still fits comfortably in L1 (512
    // pcs = 4 KiB plus the bitmap words). The warm-up boundary ends
    // a block.
    constexpr std::size_t kBlockBranches = 8 * PackedTrace::kWordBits;
    const std::size_t total = packed.size();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < total;) {
        const std::size_t end =
            std::min(i < warmup ? warmup : total,
                     (i / kBlockBranches + 1) * kBlockBranches);
        for (std::size_t l = 0; l < bank.size(); ++l) {
            if (i < warmup) {
                trainRange(bank[l], packed, i, end);
            } else {
                mispredictions[l] +=
                    stepRange(bank[l], packed, i, end, probe.lane(l));
            }
        }
        i = end;
    }
    return elapsedNanos(start);
}

} // namespace detail

/**
 * Banked multi-configuration replay: one trace pass drives a whole
 * vector of same-kind predictor instances.
 *
 * The campaign workloads this project exists for are "many
 * configurations over one trace" — a size ladder or an exhaustive
 * history sweep replays the identical packed pc array and taken
 * bitmap once per rung. replayKernelBank() eliminates that
 * redundancy: the trace is streamed a single time in 512-branch
 * blocks, each block's pcs and outcome words feeding every instance
 * in the bank while they are L1-hot, regardless of how many
 * configurations ride along. On a vector tier the bank is flattened
 * and stepped lane-parallel instead (detail::replaySimdBank()).
 *
 * Bit-identity contract: lane i of replayKernelBank(bank, packed,
 * config) must produce exactly the counts of replayKernel(bank[i],
 * packed, config) run alone, and leave bank[i] in the identical
 * state. This holds by construction — each lane runs the same
 * trainRange()/stepRange() sequence it would run alone — and is
 * enforced for every fast-replay kind by
 * tests/sim/test_replay_bank.cc.
 *
 * Timing: only the whole pass is timeable; each lane's wallNanos is
 * the pass time divided by the lane count and its fusedLanes field
 * records the bank width (see SimResult::wallNanos).
 *
 * @tparam BankProbe per-lane accounting sink (sim/probe.hh); the
 *         default NullBankProbe instantiates the exact unprobed
 *         pass. Probed SIMD runs scatter-add into a per-lane uint32
 *         arena (SimdBankProbe) merged into the bank probe's uint64
 *         blocks after the pass; shapes the 32-bit sink cannot
 *         express run the probed scalar bank instead (logged once
 *         per process, detail::logSimdBankFallback()).
 */
template <typename Pred, typename BankProbe = NullBankProbe>
std::vector<SimResult>
replayKernelBank(std::vector<Pred> &bank, const PackedTrace &packed,
                 const SimConfig &config = {}, BankProbe probe = {})
{
    const std::size_t lanes = bank.size();
    std::vector<SimResult> results(lanes);
    if (lanes == 0)
        return results;
    // One lane degenerates to the single kernel — same loop, and the
    // exact (undivided, unflagged) timing semantics.
    if (lanes == 1) {
        results[0] = replayKernel(bank[0], packed, config,
                                  probe.lane(0));
        return results;
    }

    const std::size_t total = packed.size();
    const std::size_t warmup = static_cast<std::size_t>(
        std::min<std::uint64_t>(config.warmupBranches, total));
    std::vector<std::uint64_t> mispredictions(lanes, 0);
    std::uint64_t nanos = 0;
    KernelTier tier = resolveKernelTier(config.kernelTier);
    if (tier != KernelTier::Scalar &&
        !detail::replaySimdBank(bank, packed, warmup, tier, probe,
                                mispredictions.data(), nanos))
        tier = KernelTier::Scalar;
    if (tier == KernelTier::Scalar) {
        nanos = detail::replayScalarBank(bank, packed, warmup, probe,
                                         mispredictions.data());
    }

    const std::uint64_t taken_branches =
        countTakenInRange(packed, warmup, total);
    for (std::size_t l = 0; l < lanes; ++l) {
        results[l].predictorName = bank[l].name();
        results[l].counterBits = bank[l].counterBits();
        results[l].storageBits = bank[l].storageBits();
        results[l].branches = total - warmup;
        results[l].mispredictions = mispredictions[l];
        results[l].takenBranches = taken_branches;
        // Round the per-lane attribution so the reconstructed pass
        // time is off by at most lanes/2 ns instead of always
        // truncating low.
        results[l].wallNanos = (nanos + lanes / 2) / lanes;
        results[l].fusedLanes = static_cast<std::uint32_t>(lanes);
        results[l].kernelTier = tier;
    }
    return results;
}

} // namespace bpsim

#endif // BPSIM_SIM_REPLAY_KERNEL_HH
