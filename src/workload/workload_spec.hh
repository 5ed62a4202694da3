/**
 * @file
 * Declarative description of a synthetic workload.
 *
 * A WorkloadSpec captures the axes that drive branch predictor
 * behaviour: the static branch population (aliasing pressure), the
 * behaviour-family mix (bias distribution), and the correlation
 * structure (how much history helps). The 14 built-in specs in
 * benchmarks.cc mirror the paper's Table 2 programs.
 */

#ifndef BPSIM_WORKLOAD_WORKLOAD_SPEC_HH
#define BPSIM_WORKLOAD_WORKLOAD_SPEC_HH

#include <cstdint>
#include <string>

namespace bpsim
{

/**
 * Relative weights of the behaviour families assigned to branch
 * sites. Weights need not sum to 1; they are normalized.
 */
struct BehaviorMix
{
    /** Strongly biased branches (error checks, guards). */
    double stronglyBiased = 0.30;
    /** Loop back-edges. */
    double loop = 0.15;
    /** Branches correlated with global history. */
    double globalCorrelated = 0.25;
    /** Branches correlated with their own history. */
    double localCorrelated = 0.05;
    /** Short repeating patterns. */
    double pattern = 0.05;
    /** Phase-modal branches (bias flips between program phases). */
    double phaseModal = 0.05;
    /** Weakly biased data-dependent branches. */
    double weaklyBiased = 0.15;
};

/** Parameters of the behaviour families. */
struct BehaviorParams
{
    /** Taken-side strong bias is drawn from [strongLo, strongHi],
     *  quadratically skewed toward strongHi (most guards are nearly
     *  always one-sided). */
    double strongLo = 0.97;
    double strongHi = 1.00;
    /** Fraction of strongly biased branches biased toward taken. */
    double strongTakenShare = 0.5;
    /** Weakly biased branches: the majority-direction share is drawn
     *  uniformly from [weakLo, weakHi] (must be >= 0.5) and the
     *  direction is a fair coin. A 0.58..0.85 range makes these the
     *  paper's WB class — biased, but well under the 90% line. */
    double weakLo = 0.58;
    double weakHi = 0.85;
    /** Loop mean trip counts drawn log-uniformly from [lo, hi]. */
    double loopTripLo = 2.0;
    double loopTripHi = 10.0;
    /** Fraction of loops with deterministic trip counts. */
    double loopDeterministicShare = 0.85;
    /** Global correlation depth drawn uniformly from [lo, hi]. */
    unsigned corrDepthLo = 2;
    unsigned corrDepthHi = 10;
    /** Noise applied to correlated branches. */
    double corrNoise = 0.015;
    /**
     * Majority share of correlated branches' truth tables: the
     * fraction of table entries mapping to the branch's dominant
     * direction. Special conditions are the exception in real code,
     * so per-address these branches look ~70/30, not 50/50.
     */
    double corrOutputBias = 0.72;
    /** Local correlation depth range. */
    unsigned localDepthLo = 2;
    unsigned localDepthHi = 6;
    /** Pattern length range. */
    unsigned patternLenLo = 2;
    unsigned patternLenHi = 8;
    /** Mean phase length of phase-modal branches. */
    double phaseLength = 20000.0;
};

/** A complete synthetic workload description. */
struct WorkloadSpec
{
    /** Benchmark name (e.g. "gcc"). */
    std::string name;
    /** Suite label (e.g. "SPEC CINT95" or "IBS-Ultrix"). */
    std::string suite;
    /** Target number of static conditional branch sites. */
    std::uint64_t staticBranches = 1000;
    /** Dynamic conditional branches to generate. */
    std::uint64_t dynamicBranches = 1'000'000;
    /** Master seed; everything derives deterministically from it. */
    std::uint64_t seed = 1;
    /** Behaviour family weights. */
    BehaviorMix mix;
    /** Behaviour family parameters. */
    BehaviorParams params;
    /** Zipf exponent of routine execution frequencies (0 = uniform).
     *  Real programs concentrate most dynamic branches in a small
     *  hot set; the default matches gcc-like skew where the top ~15%
     *  of sites carry ~90% of the traffic. */
    double zipfExponent = 2.0;
    /** Shifted-Zipf head flattening: no single routine should
     *  dominate the trace (hot weights ~ 1/(rank+offset)^s). */
    double zipfOffset = 15.0;
    /** Mean branch sites per routine. */
    double sitesPerRoutine = 10.0;
    /** Base of the code region branch pcs are placed in. */
    std::uint64_t codeBase = 0x0040'0000;
};

} // namespace bpsim

#endif // BPSIM_WORKLOAD_WORKLOAD_SPEC_HH
