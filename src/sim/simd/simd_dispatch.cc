/**
 * @file
 * Tier dispatch for the vectorized bank kernel.
 *
 * This TU is compiled with the generic flags; the per-ISA entry
 * points it forwards to live in their own TUs behind BPSIM_HAVE_*
 * (src/sim/CMakeLists.txt), so no target-specific instruction can
 * leak into a binary that merely links the dispatcher.
 */

#include "sim/simd/simd_bank.hh"

namespace bpsim
{

// Without a backend (-DBPSIM_DISABLE_SIMD=ON, or no vector ISA on
// the target) every case below compiles out and only the tier is read.
bool
runSimdBank([[maybe_unused]] SimdBankState &state, KernelTier tier,
            [[maybe_unused]] const std::uint64_t *pcs,
            [[maybe_unused]] const std::uint64_t *words,
            [[maybe_unused]] std::size_t total,
            [[maybe_unused]] std::size_t warmup,
            [[maybe_unused]] SimdBankProbe *probe)
{
    switch (tier) {
#if defined(BPSIM_HAVE_AVX512)
      case KernelTier::AVX512:
        detail::simdBankReplayAvx512(state, pcs, words, total, warmup,
                                     probe);
        return true;
#endif
#if defined(BPSIM_HAVE_AVX2)
      case KernelTier::AVX2:
        detail::simdBankReplayAvx2(state, pcs, words, total, warmup,
                                   probe);
        return true;
#endif
#if defined(BPSIM_HAVE_NEON)
      case KernelTier::NEON:
        detail::simdBankReplayNeon(state, pcs, words, total, warmup,
                                   probe);
        return true;
#endif
      default:
        return false;
    }
}

} // namespace bpsim
