/** @file Tests for kernel-tier resolution under concurrent callers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "sim/simd/kernel_tier.hh"

namespace bpsim
{
namespace
{

TEST(KernelTier, ConcurrentUnavailableTierDegradesToBest)
{
    // Campaign workers resolve their banks' tier concurrently; a
    // forced tier this host cannot run must degrade to the best
    // available one on every thread, warning once, without a race.
    const std::vector<KernelTier> available = availableKernelTiers();
    KernelTier missing = KernelTier::Auto;
    for (const KernelTier tier : {KernelTier::NEON, KernelTier::AVX2,
                                  KernelTier::AVX512}) {
        if (std::find(available.begin(), available.end(), tier) ==
            available.end()) {
            missing = tier;
            break;
        }
    }
    if (missing == KernelTier::Auto)
        GTEST_SKIP() << "every kernel tier runs on this host";

    constexpr int threads = 6;
    std::vector<KernelTier> resolved(threads, KernelTier::Auto);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&resolved, missing, t] {
            for (int i = 0; i < 100; ++i)
                resolved[t] = resolveKernelTier(missing);
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    for (const KernelTier tier : resolved)
        EXPECT_EQ(tier, available.front());
}

} // namespace
} // namespace bpsim
