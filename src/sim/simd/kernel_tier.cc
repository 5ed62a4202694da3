#include "sim/simd/kernel_tier.hh"

#include <atomic>
#include <cstdlib>

#include "util/logging.hh"

namespace bpsim
{

namespace
{

/** True when the backend for @p tier was compiled into this binary
 *  (per-TU ISA flags, src/sim/CMakeLists.txt) and the host CPU can
 *  execute it. */
bool
tierRunnable(KernelTier tier)
{
    switch (tier) {
      case KernelTier::Scalar:
        return true;
#if defined(BPSIM_HAVE_AVX2)
      case KernelTier::AVX2:
        return __builtin_cpu_supports("avx2") != 0;
#endif
#if defined(BPSIM_HAVE_AVX512)
      case KernelTier::AVX512:
        return __builtin_cpu_supports("avx512f") != 0;
#endif
#if defined(BPSIM_HAVE_NEON)
      case KernelTier::NEON:
        // NEON is architecturally guaranteed on AArch64, which is the
        // only target the backend is compiled for.
        return true;
#endif
      default:
        return false;
    }
}

/** The process-wide --kernel-tier override; Auto = none. */
KernelTier overrideTier = KernelTier::Auto;

/** $BPSIM_KERNEL_TIER + detection, resolved once. */
KernelTier
detectDefaultTier()
{
    if (const char *env = std::getenv("BPSIM_KERNEL_TIER")) {
        KernelTier fromEnv;
        if (parseKernelTier(env, fromEnv)) {
            if (fromEnv != KernelTier::Auto)
                return fromEnv;
        } else {
            BPSIM_WARN("BPSIM_KERNEL_TIER='"
                       << env << "' is not a tier name "
                       << "(auto, scalar, neon, avx2, avx512); "
                       << "using auto-detection");
        }
    }
    return availableKernelTiers().front();
}

} // namespace

const char *
kernelTierName(KernelTier tier)
{
    switch (tier) {
      case KernelTier::Auto:
        return "auto";
      case KernelTier::Scalar:
        return "scalar";
      case KernelTier::NEON:
        return "neon";
      case KernelTier::AVX2:
        return "avx2";
      case KernelTier::AVX512:
        return "avx512";
    }
    return "scalar";
}

bool
parseKernelTier(const std::string &name, KernelTier &out)
{
    for (const KernelTier tier :
         {KernelTier::Auto, KernelTier::Scalar, KernelTier::NEON,
          KernelTier::AVX2, KernelTier::AVX512}) {
        if (name == kernelTierName(tier)) {
            out = tier;
            return true;
        }
    }
    return false;
}

bool
kernelTierAvailable(KernelTier tier)
{
    return tier != KernelTier::Auto && tierRunnable(tier);
}

std::vector<KernelTier>
availableKernelTiers()
{
    std::vector<KernelTier> tiers;
    for (const KernelTier tier : {KernelTier::AVX512, KernelTier::AVX2,
                                  KernelTier::NEON}) {
        if (tierRunnable(tier))
            tiers.push_back(tier);
    }
    tiers.push_back(KernelTier::Scalar);
    return tiers;
}

void
setKernelTierOverride(KernelTier tier)
{
    overrideTier = tier;
}

KernelTier
resolveKernelTier(KernelTier requested)
{
    if (requested == KernelTier::Auto)
        requested = overrideTier;
    if (requested == KernelTier::Auto) {
        static const KernelTier defaulted = detectDefaultTier();
        requested = defaulted;
    }
    if (!tierRunnable(requested)) {
        // Warn once per unavailable tier, not once per bank: a sweep
        // of ten thousand fused banks should not emit ten thousand
        // lines. Every campaign worker resolves its banks' tier, so
        // the warned set is one atomic bit mask.
        static std::atomic<unsigned> warned{0};
        const unsigned bit = 1u << static_cast<unsigned>(requested);
        const KernelTier best = availableKernelTiers().front();
        if ((warned.fetch_or(bit, std::memory_order_relaxed) & bit) == 0) {
            BPSIM_WARN("kernel tier '" << kernelTierName(requested)
                       << "' is not available in this binary on this "
                       << "CPU; using '" << kernelTierName(best) << "'");
        }
        return best;
    }
    return requested;
}

} // namespace bpsim
