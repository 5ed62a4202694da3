/**
 * @file
 * Kernel-tier selection for the vectorized banked replay path.
 *
 * The banked replay kernel (sim/replay_kernel.hh) has one scalar
 * implementation — the bit-identity oracle — and a set of
 * SIMD-vectorized backends (sim/simd/) that step 4/8/16 bank lanes
 * per instruction. A KernelTier names one of those backends; which
 * tiers exist in a given binary depends on how it was compiled
 * (per-TU ISA flags, see src/sim/CMakeLists.txt), and which of the
 * compiled tiers may actually run depends on the host CPU.
 *
 * Selection is resolved once per process (campaigns inherit it for
 * every fused bank):
 *
 *   1. an explicit SimConfig::kernelTier other than Auto wins
 *      (tests use this to force each tier in turn);
 *   2. else a process-wide override set from --kernel-tier
 *      (setKernelTierOverride());
 *   3. else the BPSIM_KERNEL_TIER environment variable;
 *   4. else the highest tier both compiled in and supported by the
 *      host CPU.
 *
 * A forced tier that is not available degrades to the best available
 * one with a warning rather than failing: a campaign asked to run
 * must run, and every tier is bit-identical by contract anyway.
 */

#ifndef BPSIM_SIM_SIMD_KERNEL_TIER_HH
#define BPSIM_SIM_SIMD_KERNEL_TIER_HH

#include <string>
#include <vector>

namespace bpsim
{

/** One replay-kernel backend. Order is preference order: higher
 *  enumerators are preferred by auto-detection. */
enum class KernelTier
{
    /** Defer to the process-wide selection (override, environment,
     *  CPU detection). Never reported in results. */
    Auto,
    /** The lane-major scalar bank loop — the oracle every vector
     *  tier must match bit-for-bit. Always available. */
    Scalar,
    /** 4 lanes per step via ARM NEON. */
    NEON,
    /** 8 lanes per step via AVX2 gathers. */
    AVX2,
    /** 16 lanes per step via AVX-512F. */
    AVX512,
};

/** Lower-case tier name as used by --kernel-tier, BPSIM_KERNEL_TIER
 *  and the JSON timing output ("auto", "scalar", "neon", "avx2",
 *  "avx512"). */
const char *kernelTierName(KernelTier tier);

/**
 * Parses a tier name (case-sensitive, the kernelTierName() forms).
 * @return true and sets @p out on success; false on an unknown name.
 */
bool parseKernelTier(const std::string &name, KernelTier &out);

/** Tiers this binary can actually run on this host, best first;
 *  always ends with Scalar. */
std::vector<KernelTier> availableKernelTiers();

/** True when @p tier is compiled in and supported by the host CPU
 *  (Scalar always is; Auto never is). */
bool kernelTierAvailable(KernelTier tier);

/**
 * Sets the process-wide tier override (--kernel-tier). Auto clears
 * the override back to environment/detection. Not thread-safe
 * against concurrent resolveKernelTier() calls — drivers set it
 * during argument parsing, before any campaign runs.
 */
void setKernelTierOverride(KernelTier tier);

/**
 * Resolves @p requested to the tier a bank replay should run:
 * a non-Auto request, the override, $BPSIM_KERNEL_TIER and CPU
 * detection, in that order (see the file comment), degraded to the
 * best available tier when the chosen one cannot run here, with one
 * warning per unavailable tier. Never returns Auto. Safe to call
 * from concurrent campaign workers.
 */
KernelTier resolveKernelTier(KernelTier requested = KernelTier::Auto);

} // namespace bpsim

#endif // BPSIM_SIM_SIMD_KERNEL_TIER_HH
