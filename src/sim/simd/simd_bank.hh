/**
 * @file
 * SoA lane state for the vectorized banked replay kernel.
 *
 * The scalar bank (sim/replay_kernel.hh) steps each lane's predictor
 * object in place. The SIMD tiers instead flatten a bank of
 * structurally uniform predictors into one gather-friendly arena —
 * every lane's counter table bit-packed back to back into a shared
 * uint32 word array — plus per-lane constant vectors describing each
 * lane's index function. One unified index formula covers the whole
 * eligible family:
 *
 *     idx = ((addr & addrMask) << histShift) ^ (hist & histMask)
 *
 *   bimodal          addrMask = 2^n-1, histShift = 0, histMask = 0
 *   gshare           addrMask = 2^n-1, histShift = 0, histMask = 2^m-1
 *   GAg/GAs          addrMask = 2^a-1, histShift = h, histMask = 2^h-1
 *   PAg/PAs          as GAs, with hist gathered from a per-address
 *                    uint32 history arena (localHistory = true)
 *
 * (For the two-level family the scalar code computes (pht << h) |
 * hist; the history occupies exactly the low h bits, so or and xor
 * agree bit for bit.)
 *
 * The choice-based (multi-read) kinds add one or two pc-indexed
 * arena reads in front of the direction read (choiceKind selects the
 * flavor, see SimdChoiceKind):
 *
 *   bimode           a choice-counter read at addr & choiceAddrMask
 *                    whose sign blends bankStride into the direction
 *                    base — the taken/not-taken banks sit back to
 *                    back in the lane's counter region — with the
 *                    paper's partial-update and choice-exception
 *                    policies expressed as branchless write-back
 *                    masks (bothBanksMask, alwaysChoiceMask)
 *   agree            a biasing-bit read (valid + bias packed into
 *                    one choice word) that xnor-flips the direction
 *                    counter's agree prediction, with the first-use
 *                    bias capture as a masked choice write-back
 *   tournament       three gathers: a meta counter (choice arena)
 *                    selects per lane between a bimodal counter (a
 *                    second pc-indexed read, aux* constants) and a
 *                    gshare counter from the packed direction arena
 *   gskew            three skew-hashed direction-bank gathers (the
 *                    banks sit back to back at bankStride spacing)
 *                    plus a vectorized 2-of-3 majority vote; the
 *                    e-gskew partial-update policy and its ablation
 *                    are write-back masks (bothBanksMask)
 *   yags             a choice gather steering a tagged
 *                    exception-cache probe: each cache entry packs
 *                    valid/tag/counter into one arena word, the hit
 *                    test is a gathered tag compare, and allocation
 *                    is a masked whole-word write-back
 *   filter           a run-length filter word (direction + counter,
 *                    choice arena) gates a gshare-indexed PHT read;
 *                    saturation/reset of the run is branchless masks
 *
 * Lanes are vectorized, branches stay serial: for each trace branch
 * the kernel gathers every lane's counter, predicts, saturates and
 * writes back before consuming the next branch. That preserves the
 * exact serial state dependency of the scalar oracle, which is what
 * makes bit-identity hold by construction rather than by accident.
 *
 * Each kind's lane layout is stated once, in its Flatten<Pred> walk
 * (simd_bank.cc): the ordered list of its tables and history
 * registers. One visitor sums that walk's arena sizes, one appends
 * it to the arenas (buildSimdBank()), one copies it back
 * (storeSimdBank()), so the three cannot disagree about where a
 * table lives. buildSimdBank() returns std::nullopt whenever the
 * bank shape is outside what 32-bit gather indices (or the formula
 * above) can express; the caller then falls back to the scalar
 * bank. It links for every fast-replay type: kinds without a
 * flattening (kSimdFlattenable false: the static kinds and
 * perceptron) are refused there, in one place.
 */

#ifndef BPSIM_SIM_SIMD_SIMD_BANK_HH
#define BPSIM_SIM_SIMD_SIMD_BANK_HH

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/simd/kernel_tier.hh"

namespace bpsim
{

class AgreePredictor;
class BiModePredictor;
class BimodalPredictor;
class FilterPredictor;
class GsharePredictor;
class GskewPredictor;
class TournamentPredictor;
class TwoLevelPredictor;
class YagsPredictor;

/**
 * Multi-read kernel flavor of a flattened bank: which choice-arena
 * semantics the kernel applies around the direction-bank read.
 */
enum class SimdChoiceKind : std::uint8_t
{
    /** No choice stage — the single-gather family. */
    None,
    /** Bi-mode: a pc-indexed choice counter selects between two
     *  direction banks sharing one gshare index. */
    BiMode,
    /** Agree: a pc-indexed biasing bit (with first-use capture)
     *  flips the direction counter's agree prediction. */
    Agree,
    /** Tournament: a pc-indexed meta counter selects between a
     *  pc-indexed bimodal counter (aux* constants) and a packed
     *  gshare counter — three gathers, one blend. */
    Tournament,
    /** gskew: three skew-hashed gathers from back-to-back direction
     *  banks, majority vote, partial-update write-back masks. */
    Gskew,
    /** YAGS: a choice gather steering a tagged exception-cache probe
     *  (valid/tag/counter packed per arena word) with a compare-mask
     *  hit test and masked allocation write-backs. */
    Yags,
    /** Filter: a pc-indexed run-length word gates a gshare-indexed
     *  PHT read; saturate/reset are branchless masks. */
    Filter,
};

/** Widest group any backend steps at once (AVX-512, 16 lanes).
 *  Per-lane arrays are padded to a multiple of this so every backend
 *  can issue full-width loads of lane constants. */
constexpr std::size_t kMaxSimdGroupLanes = 16;

/** @name YAGS arena-word layout
 *  One exception-cache entry packs into one (unpacked) arena word:
 *  the counter in bits 0..7, the partial tag in bits 8..23, the
 *  valid flag in bit 24. Counters are <= 8 bits and tags <= 16 bits
 *  by construction (yags.hh), so the fields never overlap. Shared
 *  between the builder (simd_bank.cc) and the kernel
 *  (simd_kernel.hh). */
/**@{*/
constexpr std::uint32_t kYagsCounterMask = 0xFFu;
constexpr std::uint32_t kYagsTagShift = 8;
constexpr std::uint32_t kYagsValidBit = std::uint32_t{1} << 24;
/**@}*/

/**
 * Zero elements inserted before every lane's region in the shared
 * arenas.
 *
 * Predictor tables are power-of-two sized, so back-to-back lane
 * regions put every lane's copy of one index at power-of-two byte
 * strides — all sixteen stores and the next branch's gather then
 * collide in the low 12 address bits and the store-to-load
 * disambiguation stalls serialize the kernel (4K aliasing). A
 * 64-byte gap per lane skews the strides off the page-offset
 * pattern; on AVX-512 hardware this alone roughly doubles bank
 * throughput.
 */
constexpr std::size_t kSimdLaneStagger = 16;

/**
 * Flattened bank state for one SIMD replay.
 *
 * Per-lane arrays have paddedLanes() elements; entries past lanes
 * replicate lane 0, so padded vector lanes execute lane 0's index
 * function against lane 0's tables (all loads stay in valid memory)
 * while their results are simply never written back.
 */
struct SimdBankState
{
    /** Active lanes (the bank size); padding lanes beyond this are
     *  never stored back. */
    std::size_t lanes = 0;
    /** True for the per-address-history family (PAg/PAs): hist is
     *  gathered from localHist instead of carried in a register. */
    bool localHistory = false;
    /** Which choice-arena stage the kernel runs before the direction
     *  read (None for the single-gather family). */
    SimdChoiceKind choiceKind = SimdChoiceKind::None;
    /** Bi-mode only: true when any lane runs the partialUpdate=false
     *  ablation, selecting the kernel variant that also steps the
     *  unselected bank (gated per lane by bothBanksMask). */
    bool updateBothBanks = false;
    /**
     * True when counters is bit-packed (see below). History-indexed
     * banks pack: their index streams are spread by the history
     * bits, so the footprint cut dominates. Bimodal banks do not:
     * the pc-only index stream re-touches the same packed word on
     * nearby branches, and the resulting scatter-to-gather
     * forwarding stalls cost more than the smaller arena saves.
     */
    bool packed = false;

    /**
     * All lanes' counter tables as uint32 words, each lane's run
     * preceded by a kSimdLaneStagger gap (see above).
     *
     * Unpacked (packed == false): one counter per word at
     * laneBase[l] + idx.
     *
     * Packed: counter idx of lane l lives in word
     * laneBase[l] + (idx >> wordShift[l]), in the field of
     * fieldMask[l] starting at bit
     * (idx & slotIdxMask[l]) << slotShift[l]. Slots are the power of
     * two >= the counter width, so 2-bit counters pack 16 per word —
     * a 16-fold footprint cut that keeps realistic history-indexed
     * banks L1-resident (gathers were the dominant cost on
     * out-of-L1 banks).
     */
    std::vector<std::uint32_t> counters;
    /** All lanes' per-address history registers (localHistory only),
     *  lane l at [localBase[l], localBase[l] + localMask[l] + 1),
     *  staggered like the counter arena. */
    std::vector<std::uint32_t> localHist;
    /**
     * Choice-stage arena (choiceKind != None), staggered like the
     * counter arena but always one entry per word: the choice/bias
     * tables are pc-indexed, so nearby branches re-touch the same
     * entry and a packed layout would trade its footprint cut for
     * scatter-to-gather forwarding stalls (the same trade that keeps
     * bimodal unpacked).
     *
     * BiMode/Yags: the lane's choice counters at choiceBase[l] + idx.
     * Agree: bit 0 = bias valid, bit 1 = biasing bit (0 = branch not
     * yet seen).
     * Tournament: the meta counters at choiceBase[l] + idx AND the
     * bimodal component's counters at auxBase[l] + idx — two
     * pc-indexed streams sharing the arena.
     * Filter: bit 0 = run direction, bits 1.. = the saturating run
     * length (saturation value in choiceMaxValue).
     */
    std::vector<std::uint32_t> choiceArena;

    /** @name Per-lane constants (paddedLanes() elements) */
    /**@{*/
    std::vector<std::uint32_t> laneBase;   ///< lane's word offset in counters
    std::vector<std::uint32_t> addrMask;   ///< address bits kept
    std::vector<std::uint32_t> histShift;  ///< address shift (two-level)
    std::vector<std::uint32_t> histMask;   ///< history register mask
    std::vector<std::uint32_t> localBase;  ///< lane's offset in localHist
    std::vector<std::uint32_t> localMask;  ///< per-address index mask
    std::vector<std::uint32_t> maxValue;   ///< counter saturation value
    std::vector<std::uint32_t> threshold;  ///< predict taken when >
    std::vector<std::uint32_t> wordShift;  ///< log2 counters per word (packed)
    std::vector<std::uint32_t> slotIdxMask; ///< counters per word - 1 (packed)
    std::vector<std::uint32_t> slotShift;  ///< log2 slot width in bits (packed)
    std::vector<std::uint32_t> fieldMask;  ///< slot-wide value mask (packed)
    /** @name Choice-stage constants (choiceKind != None) */
    std::vector<std::uint32_t> choiceBase; ///< lane's offset in choiceArena
    std::vector<std::uint32_t> choiceAddrMask; ///< choice-index pc mask
    std::vector<std::uint32_t> choiceMaxValue; ///< choice saturation (bimode)
    std::vector<std::uint32_t> choiceThreshold; ///< bank select when > (bimode)
    /** Direction-arena words between the lane's adjacent banks
     *  (bimode: not-taken → taken; gskew: bank i → bank i+1; yags:
     *  not-taken cache → taken cache): a selected bank's base is
     *  laneBase plus a multiple of bankStride. */
    std::vector<std::uint32_t> bankStride;
    /** All-ones on lanes running the alwaysUpdateChoice ablation
     *  (bimode): disables the choice-exception write-back mask. */
    std::vector<std::uint32_t> alwaysChoiceMask;
    /** All-ones on lanes running the partialUpdate=false ablation
     *  (bimode, gskew): enables the unselected/dissenting-bank
     *  write-back. */
    std::vector<std::uint32_t> bothBanksMask;
    /** @name Second pc-indexed read (tournament's bimodal component) */
    std::vector<std::uint32_t> auxBase;      ///< offset in choiceArena
    std::vector<std::uint32_t> auxAddrMask;  ///< pc index mask
    std::vector<std::uint32_t> auxMaxValue;  ///< counter saturation
    std::vector<std::uint32_t> auxThreshold; ///< predict taken when >
    /** @name Tagged-probe constants (yags) */
    std::vector<std::uint32_t> tagShift; ///< addr right-shift for the tag
    std::vector<std::uint32_t> tagMask;  ///< tag-field mask
    /** @name Skew-hash constants (gskew) */
    /** Mask of the wide (bankIndexBits + 8) address field the skew
     *  hashes mix; builders guarantee it fits 31 bits so the bank-2
     *  add cannot carry past the 32-bit lane. */
    std::vector<std::uint32_t> hashFieldMask;
    /** Per-lane fold width (= bankIndexBits): the 64-bit product is
     *  xor-folded in foldShift-bit chunks into addrMask. */
    std::vector<std::uint32_t> foldShift;
    /**@}*/

    /** gskew only: fold iterations covering the widest lane's 64-bit
     *  product, max over lanes of ceil(64 / foldShift[l]); uniform
     *  across the vector (narrow lanes fold zeros after their own
     *  chunks run out). */
    std::uint32_t foldRounds = 0;

    /** Global-history registers, live kernel state (updated per
     *  branch, stored back to the predictors afterwards). Unused
     *  when localHistory. */
    std::vector<std::uint32_t> hist;

    /** Per-lane misprediction counts over the measured region
     *  (lanes elements, not padded). */
    std::vector<std::uint64_t> mispredictions;

    std::size_t
    paddedLanes() const
    {
        return laneBase.size();
    }
};

/**
 * True for the predictor types with a SIMD flattening — the types
 * simd_bank.cc states a lane layout for. buildSimdBank() refuses
 * every other fast-replay type, whose banks then run the scalar bank
 * (replayKernelBank()).
 */
template <typename Pred>
constexpr bool kSimdFlattenable =
    std::is_same_v<Pred, BimodalPredictor> ||
    std::is_same_v<Pred, GsharePredictor> ||
    std::is_same_v<Pred, TwoLevelPredictor> ||
    std::is_same_v<Pred, BiModePredictor> ||
    std::is_same_v<Pred, AgreePredictor> ||
    std::is_same_v<Pred, TournamentPredictor> ||
    std::is_same_v<Pred, GskewPredictor> ||
    std::is_same_v<Pred, YagsPredictor> ||
    std::is_same_v<Pred, FilterPredictor>;

/**
 * Flattens @p bank into SIMD lane state, copying counters/history
 * out of the predictors. The predictors themselves are not modified
 * until storeSimdBank(). Returns std::nullopt (logged once through
 * detail::logSimdBankFallback()) when the bank cannot be expressed:
 * a kind with no SIMD flattening, arena over 2^31 elements, history,
 * tag or hash field wider than the 32-bit lane math, a non-standard
 * tournament pairing, mixed history scopes.
 *
 * @tparam Pred any fast-replay predictor type (simd_bank.cc
 *         instantiates every one)
 */
template <typename Pred>
std::optional<SimdBankState> buildSimdBank(std::vector<Pred> &bank);

/** Stores arena state back into the predictors buildSimdBank()
 *  flattened; @p bank must be the same bank. */
template <typename Pred>
void storeSimdBank(const SimdBankState &state, std::vector<Pred> &bank);

namespace detail
{

/**
 * Records (once per process per distinct what/reason pair, at
 * verbose/debug level) that a bank fell back to the scalar loop, so
 * perf regressions from ineligible shapes are diagnosable instead of
 * invisible. Probed and unprobed replays log through this one
 * channel; the counts are bit-identical either way.
 *
 * @param what the bank's kind/shape, e.g. a predictor name()
 * @param reason why the SIMD path refused it
 */
void logSimdBankFallback(const std::string &what, const char *reason);

} // namespace detail

/**
 * Per-branch accounting sink of a probed SIMD replay (sim/probe.hh):
 * a per-lane uint32 misprediction counter block the kernels
 * scatter-add into with the same gather/scatter machinery as the
 * counter arenas.
 *
 * Layout mirrors SimdBankState::counters: lane l's staticCount
 * counters start at laneBase[l], each lane's block preceded by a
 * kSimdLaneStagger gap (the probe writes are pc-indexed like the
 * choice arenas, so the same 4K-aliasing hazard applies). laneBase
 * is padded to the widest backend group, with padding lanes
 * replicating lane 0 — their gathers stay in valid memory and their
 * results are masked off by scatter32's active count, exactly the
 * counter-arena convention.
 *
 * Counters are 32-bit (the gather/scatter element width);
 * buildSimdBankProbe() refuses traces long enough to overflow one,
 * and the caller merges the block into its per-lane uint64 totals
 * after the pass.
 */
struct SimdBankProbe
{
    /** Per-record static-branch ids (PcIndex::idData()). */
    const std::uint32_t *ids = nullptr;
    /** Counters per lane block. */
    std::size_t staticCount = 0;
    /** Staggered lane-major counter blocks, zeroed at build. */
    std::vector<std::uint32_t> arena;
    /** Per-lane block offsets, padded like SimdBankState::laneBase. */
    std::vector<std::uint32_t> laneBase;
};

/**
 * Sizes @p probe's arena for @p state's lane geometry. Returns false
 * — the caller then runs the probed scalar bank — when the arena
 * would exceed the 32-bit gather index space or @p total branches
 * could overflow a lane's uint32 counter.
 *
 * @param ids per-record ids for the replayed trace
 * @param staticCount distinct static branches (ids are < this)
 */
bool buildSimdBankProbe(SimdBankProbe &probe, const std::uint32_t *ids,
                        std::size_t staticCount,
                        const SimdBankState &state, std::size_t total);

/**
 * Replays @p total branches (of which the first @p warmup train
 * without being scored) through @p state on the backend for
 * @p tier.
 *
 * @param pcs the packed branch addresses
 * @param words the packed taken bitmap
 * @param probe per-branch accounting sink, or nullptr for the
 *        unprobed kernels (the probed instantiations are separate,
 *        so unprobed replays pay nothing for the hook)
 * @return false when @p tier has no backend in this binary (the
 *         caller falls back to the scalar bank); Scalar and Auto
 *         always return false — resolve the tier first.
 */
bool runSimdBank(SimdBankState &state, KernelTier tier,
                 const std::uint64_t *pcs, const std::uint64_t *words,
                 std::size_t total, std::size_t warmup,
                 SimdBankProbe *probe = nullptr);

namespace detail
{

/** Per-ISA kernel entry points; each is defined in its own TU
 *  compiled with that ISA's flags (see src/sim/CMakeLists.txt). */
void simdBankReplayAvx2(SimdBankState &state, const std::uint64_t *pcs,
                        const std::uint64_t *words, std::size_t total,
                        std::size_t warmup, SimdBankProbe *probe);
void simdBankReplayAvx512(SimdBankState &state, const std::uint64_t *pcs,
                          const std::uint64_t *words, std::size_t total,
                          std::size_t warmup, SimdBankProbe *probe);
void simdBankReplayNeon(SimdBankState &state, const std::uint64_t *pcs,
                        const std::uint64_t *words, std::size_t total,
                        std::size_t warmup, SimdBankProbe *probe);

} // namespace detail

} // namespace bpsim

#endif // BPSIM_SIM_SIMD_SIMD_BANK_HH
