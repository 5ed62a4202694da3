#include "sim/simd/simd_bank.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>

#include "core/bimode.hh"
#include "predictors/agree.hh"
#include "predictors/bimodal.hh"
#include "predictors/filter.hh"
#include "predictors/gshare.hh"
#include "predictors/gskew.hh"
#include "predictors/perceptron.hh"
#include "predictors/static_predictors.hh"
#include "predictors/tournament.hh"
#include "predictors/twolevel.hh"
#include "predictors/yags.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace bpsim
{

namespace
{

/** Gather/scatter element offsets are consumed as *signed* 32-bit
 *  lane values by vpgatherdd and friends, so the whole arena
 *  (including the per-lane stagger gaps) must index below 2^31. */
constexpr std::uint64_t kMaxArenaElements =
    static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max());

std::uint32_t
mask32(unsigned bits)
{
    return static_cast<std::uint32_t>(maskBits(bits));
}

/** Every per-lane array of SimdBankState, sized and padded as one. */
std::array<std::vector<std::uint32_t> *, 28>
laneArrays(SimdBankState &s)
{
    return {&s.laneBase, &s.addrMask, &s.histShift, &s.histMask,
            &s.localBase, &s.localMask, &s.maxValue, &s.threshold,
            &s.wordShift, &s.slotIdxMask, &s.slotShift, &s.fieldMask,
            &s.choiceBase, &s.choiceAddrMask, &s.choiceMaxValue,
            &s.choiceThreshold, &s.bankStride, &s.alwaysChoiceMask,
            &s.bothBanksMask, &s.auxBase, &s.auxAddrMask, &s.auxMaxValue,
            &s.auxThreshold, &s.tagShift, &s.tagMask, &s.hashFieldMask,
            &s.foldShift, &s.hist};
}

/**
 * Sums what the lane walks append to each arena, in elements, for
 * the 2^31 check. Packed direction tables count unpacked — an upper
 * bound on their words.
 */
struct ArenaSizer
{
    std::uint64_t counterTotal = 0;
    std::uint64_t choiceTotal = 0;
    std::uint64_t localTotal = 0;

    void
    direction(const CounterTable &table)
    {
        counterTotal += kSimdLaneStagger + table.size();
    }
    void nextBank(const CounterTable &table) { counterTotal += table.size(); }
    template <typename Pack, typename Unpack>
    void
    directionWords(std::size_t entries, Pack &&, Unpack &&)
    {
        counterTotal += kSimdLaneStagger + entries;
    }
    void
    choice(const CounterTable &table)
    {
        choiceTotal += kSimdLaneStagger + table.size();
    }
    void aux(const CounterTable &table) { choice(table); }
    template <typename Pack, typename Unpack>
    void
    choiceWords(std::size_t entries, Pack &&, Unpack &&)
    {
        choiceTotal += kSimdLaneStagger + entries;
    }
    void
    local(const LocalHistoryTable &table)
    {
        localTotal += kSimdLaneStagger + table.entries();
    }
    void history(const HistoryRegister &) {}

    bool
    overflows() const
    {
        return std::max({counterTotal, choiceTotal, localTotal}) >
               kMaxArenaElements;
    }
};

/**
 * Appends one lane's state to the shared arenas, each table behind a
 * kSimdLaneStagger gap, recording the lane's bases and counter
 * constants. Direction tables pack into bit slots or widen to one
 * counter per word according to state.packed.
 */
struct ArenaAppender
{
    SimdBankState &state;
    std::size_t lane = 0;

    /** Opens the lane's region of @p arena behind its stagger gap and
     *  returns the region's base. */
    static std::uint32_t
    open(std::vector<std::uint32_t> &arena)
    {
        arena.resize(arena.size() + kSimdLaneStagger, 0);
        return static_cast<std::uint32_t>(arena.size());
    }

    void
    direction(const CounterTable &table)
    {
        state.maxValue[lane] = table.max();
        state.threshold[lane] = table.max() / 2;
        state.laneBase[lane] = open(state.counters);
        if (state.packed) {
            // Slot width is the power of two >= the counter width
            // (1..8 bits), so slot boundaries follow from plain
            // shift/mask math and a word always holds 4, 8, 16 or 32
            // whole counters.
            const unsigned slotLog2 = log2Ceil(table.bits());
            state.wordShift[lane] = 5 - slotLog2;
            state.slotIdxMask[lane] = mask32(5 - slotLog2);
            state.slotShift[lane] = slotLog2;
            state.fieldMask[lane] = mask32(1u << slotLog2);
        }
        append(table);
    }

    /** A further direction bank of the first one's geometry, directly
     *  after the lane's previous bank: bank k lands at k times
     *  bankStride words past laneBase. */
    void
    nextBank(const CounterTable &table)
    {
        state.bankStride[lane] = static_cast<std::uint32_t>(append(table));
    }

    /** Appends @p table in the lane's slot layout; returns its words. */
    std::size_t
    append(const CounterTable &table)
    {
        std::vector<std::uint32_t> &arena = state.counters;
        if (!state.packed) {
            arena.insert(arena.end(), table.data(),
                         table.data() + table.size());
            return table.size();
        }
        // Word at a time, so each word is assembled in a register
        // instead of read-modify-written once per counter.
        const std::size_t perWord = std::size_t{1} << state.wordShift[lane];
        const unsigned slotLog2 = state.slotShift[lane];
        const std::size_t before = arena.size();
        for (std::size_t first = 0; first < table.size(); first += perWord) {
            const std::size_t count = std::min(perWord, table.size() - first);
            std::uint32_t word = 0;
            for (std::size_t k = 0; k < count; ++k) {
                word |= static_cast<std::uint32_t>(table.data()[first + k])
                        << (k << slotLog2);
            }
            arena.push_back(word);
        }
        return arena.size() - before;
    }

    template <typename Pack, typename Unpack>
    void
    directionWords(std::size_t entries, Pack &&pack, Unpack &&)
    {
        state.laneBase[lane] = open(state.counters);
        for (std::size_t e = 0; e < entries; ++e)
            state.counters.push_back(pack(e));
    }

    void
    choice(const CounterTable &table)
    {
        state.choiceMaxValue[lane] = table.max();
        state.choiceThreshold[lane] = table.max() / 2;
        state.choiceBase[lane] = open(state.choiceArena);
        state.choiceArena.insert(state.choiceArena.end(), table.data(),
                                 table.data() + table.size());
    }

    /** The lane's second pc-indexed counter stream in the choice
     *  arena (tournament's bimodal component). */
    void
    aux(const CounterTable &table)
    {
        state.auxMaxValue[lane] = table.max();
        state.auxThreshold[lane] = table.max() / 2;
        state.auxBase[lane] = open(state.choiceArena);
        state.choiceArena.insert(state.choiceArena.end(), table.data(),
                                 table.data() + table.size());
    }

    template <typename Pack, typename Unpack>
    void
    choiceWords(std::size_t entries, Pack &&pack, Unpack &&)
    {
        state.choiceBase[lane] = open(state.choiceArena);
        for (std::size_t e = 0; e < entries; ++e)
            state.choiceArena.push_back(pack(e));
    }

    void
    local(const LocalHistoryTable &table)
    {
        state.localHistory = true;
        state.histMask[lane] = mask32(table.bits());
        state.localBase[lane] = open(state.localHist);
        state.localMask[lane] = mask32(table.entriesLog2());
        // historyBits <= 28, so the uint64 registers narrow to uint32
        // losslessly.
        for (std::size_t e = 0; e < table.entries(); ++e) {
            state.localHist.push_back(
                static_cast<std::uint32_t>(table.data()[e]));
        }
    }

    void
    history(const HistoryRegister &reg)
    {
        state.histMask[lane] = mask32(reg.bits());
        state.hist[lane] = static_cast<std::uint32_t>(reg.value());
    }
};

/** Copies one lane's state back out of the arenas an ArenaAppender
 *  filled, reading the bases it recorded. */
struct ArenaRestorer
{
    const SimdBankState &state;
    std::size_t lane = 0;
    /** Word offset of the lane's next direction bank. */
    std::size_t next = 0;

    /** Counter values fit their (<= 8-bit) saturation value, so the
     *  narrowing is lossless. */
    static void
    copyOut(const std::uint32_t *src, CounterTable &table)
    {
        for (std::size_t e = 0; e < table.size(); ++e)
            table.data()[e] = static_cast<std::uint16_t>(src[e]);
    }

    void
    direction(CounterTable &table)
    {
        next = state.laneBase[lane];
        nextBank(table);
    }

    void
    nextBank(CounterTable &table)
    {
        if (!state.packed) {
            copyOut(state.counters.data() + next, table);
            next += table.size();
            return;
        }
        const std::size_t perWord = std::size_t{1} << state.wordShift[lane];
        const unsigned slotLog2 = state.slotShift[lane];
        const std::uint32_t field = state.fieldMask[lane];
        for (std::size_t first = 0; first < table.size(); first += perWord) {
            const std::size_t count = std::min(perWord, table.size() - first);
            const std::uint32_t word = state.counters[next++];
            for (std::size_t k = 0; k < count; ++k) {
                table.data()[first + k] = static_cast<std::uint16_t>(
                    (word >> (k << slotLog2)) & field);
            }
        }
    }

    template <typename Pack, typename Unpack>
    void
    directionWords(std::size_t entries, Pack &&, Unpack &&unpack)
    {
        const std::uint32_t *src =
            state.counters.data() + state.laneBase[lane];
        for (std::size_t e = 0; e < entries; ++e)
            unpack(e, src[e]);
    }

    void
    choice(CounterTable &table)
    {
        copyOut(state.choiceArena.data() + state.choiceBase[lane], table);
    }

    void
    aux(CounterTable &table)
    {
        copyOut(state.choiceArena.data() + state.auxBase[lane], table);
    }

    template <typename Pack, typename Unpack>
    void
    choiceWords(std::size_t entries, Pack &&, Unpack &&unpack)
    {
        const std::uint32_t *src =
            state.choiceArena.data() + state.choiceBase[lane];
        for (std::size_t e = 0; e < entries; ++e)
            unpack(e, src[e]);
    }

    void
    local(LocalHistoryTable &table)
    {
        const std::uint32_t *src =
            state.localHist.data() + state.localBase[lane];
        for (std::size_t e = 0; e < table.entries(); ++e)
            table.data()[e] = src[e];
    }

    void history(HistoryRegister &reg) { reg.setValue(state.hist[lane]); }
};

/** The refusal reason for a history register wider than the lane
 *  math allows, or nullptr. */
const char *
historyRefusal(unsigned historyBits, unsigned maxBits = 31)
{
    return historyBits > maxBits ? "history wider than the 32-bit lane math"
                                 : nullptr;
}

/**
 * One predictor kind's lane layout, stated once. Each specialization
 * provides:
 *
 *  - kPacked, kChoice: the bank's direction-arena packing
 *    (SimdBankState::packed) and kernel flavor;
 *  - refuse(p, first): why lane @p p (in a bank whose lane 0 is
 *    @p first) cannot run in 32-bit lane math, or nullptr;
 *  - state(io, p): the ordered walk of the lane's tables and
 *    history registers (whose widths set histMask). ArenaSizer,
 *    ArenaAppender and ArenaRestorer all read this one walk, so
 *    sizing, flattening and restoring cannot disagree about where a
 *    table lives;
 *  - constants(state, l, p): the lane's index-function constants.
 *
 * Constructors cap every index at <= 28 bits through the table
 * sizes; the refusals enforce the lane-math limits independently, so
 * a loosened cap refuses rather than truncates.
 *
 * The primary template is the layout of a kind that has none (the
 * static kinds, perceptron): its refuse() turns every such bank
 * away, so these kinds link and run the scalar bank.
 */
template <typename Pred>
struct Flatten
{
    static_assert(!kSimdFlattenable<Pred>,
                  "a kSimdFlattenable type needs its Flatten layout");

    static constexpr bool kPacked = false;
    static constexpr SimdChoiceKind kChoice = SimdChoiceKind::None;

    static const char *
    refuse(Pred &, Pred &)
    {
        return "kind has no SIMD flattening";
    }

    template <typename Io>
    static void state(Io &, Pred &) {}

    static void constants(SimdBankState &, std::size_t, Pred &) {}
};

template <>
struct Flatten<BimodalPredictor>
{
    // Unpacked: see SimdBankState::packed.
    static constexpr bool kPacked = false;
    static constexpr SimdChoiceKind kChoice = SimdChoiceKind::None;

    static const char *
    refuse(BimodalPredictor &, BimodalPredictor &)
    {
        return nullptr;
    }

    template <typename Io>
    static void
    state(Io &io, BimodalPredictor &p)
    {
        io.direction(p.tableRef());
    }

    static void
    constants(SimdBankState &s, std::size_t l, BimodalPredictor &p)
    {
        // histShift/histMask/hist stay 0: the history term of the
        // unified index formula degenerates away and the per-branch
        // shift keeps hist at 0.
        s.addrMask[l] = mask32(p.indexBitCount());
    }
};

template <>
struct Flatten<GsharePredictor>
{
    static constexpr bool kPacked = true;
    static constexpr SimdChoiceKind kChoice = SimdChoiceKind::None;

    static const char *
    refuse(GsharePredictor &p, GsharePredictor &)
    {
        return historyRefusal(p.historyBitCount());
    }

    template <typename Io>
    static void
    state(Io &io, GsharePredictor &p)
    {
        io.direction(p.tableRef());
        io.history(p.historyRef());
    }

    static void
    constants(SimdBankState &s, std::size_t l, GsharePredictor &p)
    {
        s.addrMask[l] = mask32(p.indexBitCount());
    }
};

template <>
struct Flatten<TwoLevelPredictor>
{
    static constexpr bool kPacked = true;
    static constexpr SimdChoiceKind kChoice = SimdChoiceKind::None;

    static const char *
    refuse(TwoLevelPredictor &p, TwoLevelPredictor &first)
    {
        const TwoLevelConfig &cfg = p.config();
        // The kernel instantiates one history flavor per bank; a
        // mixed-scope bank (which fusion keys never produce) runs
        // scalar.
        if (cfg.scope != first.config().scope)
            return "mixed history scopes";
        if (cfg.historyBits + cfg.pcBits > 31)
            return "index wider than the 32-bit lane math";
        if (cfg.scope == HistoryScope::PerAddress &&
            cfg.localEntriesLog2 > 28)
            return "local-history table wider than the lane math";
        return nullptr;
    }

    template <typename Io>
    static void
    state(Io &io, TwoLevelPredictor &p)
    {
        io.direction(p.tableRef());
        if (LocalHistoryTable *local = p.localHistoryRef())
            io.local(*local);
        else
            io.history(p.globalHistoryRef());
    }

    static void
    constants(SimdBankState &s, std::size_t l, TwoLevelPredictor &p)
    {
        const TwoLevelConfig &cfg = p.config();
        s.addrMask[l] = mask32(cfg.pcBits);
        s.histShift[l] = cfg.historyBits;
    }
};

template <>
struct Flatten<BiModePredictor>
{
    static constexpr bool kPacked = true;
    static constexpr SimdChoiceKind kChoice = SimdChoiceKind::BiMode;

    static const char *
    refuse(BiModePredictor &p, BiModePredictor &)
    {
        return historyRefusal(p.config().historyBits);
    }

    template <typename Io>
    static void
    state(Io &io, BiModePredictor &p)
    {
        // Not-taken bank at laneBase, taken bank bankStride words
        // after it, matching the kernel's choice-sign blend.
        io.direction(p.bankRef(BiModePredictor::kNotTakenBank));
        io.nextBank(p.bankRef(BiModePredictor::kTakenBank));
        io.choice(p.choiceTableRef());
        io.history(p.historyRef());
    }

    static void
    constants(SimdBankState &s, std::size_t l, BiModePredictor &p)
    {
        const BiModeConfig &cfg = p.config();
        s.addrMask[l] = mask32(cfg.directionIndexBits);
        s.choiceAddrMask[l] = mask32(cfg.choiceIndexBits);
        if (cfg.alwaysUpdateChoice)
            s.alwaysChoiceMask[l] = ~std::uint32_t{0};
        if (!cfg.partialUpdate) {
            s.bothBanksMask[l] = ~std::uint32_t{0};
            s.updateBothBanks = true;
        }
    }
};

template <>
struct Flatten<AgreePredictor>
{
    static constexpr bool kPacked = true;
    static constexpr SimdChoiceKind kChoice = SimdChoiceKind::Agree;

    static const char *
    refuse(AgreePredictor &p, AgreePredictor &)
    {
        return historyRefusal(p.config().historyBits);
    }

    template <typename Io>
    static void
    state(Io &io, AgreePredictor &p)
    {
        io.direction(p.tableRef());
        // The biasing state packs into one choice word per entry:
        // bit 0 = valid, bit 1 = the biasing bit (simd_bank.hh).
        std::vector<std::uint16_t> &bias = p.biasBitRef();
        std::vector<std::uint16_t> &valid = p.biasValidRef();
        io.choiceWords(
            bias.size(),
            [&](std::size_t e) {
                return valid[e] ? (1u | (bias[e] ? 2u : 0u)) : 0u;
            },
            [&](std::size_t e, std::uint32_t word) {
                valid[e] = static_cast<std::uint16_t>(word & 1u);
                bias[e] = static_cast<std::uint16_t>((word >> 1) & 1u);
            });
        io.history(p.historyRef());
    }

    static void
    constants(SimdBankState &s, std::size_t l, AgreePredictor &p)
    {
        const AgreeConfig &cfg = p.config();
        s.addrMask[l] = mask32(cfg.indexBits);
        s.choiceAddrMask[l] = mask32(cfg.biasIndexBits);
    }
};

template <>
struct Flatten<TournamentPredictor>
{
    static constexpr bool kPacked = true;
    static constexpr SimdChoiceKind kChoice = SimdChoiceKind::Tournament;

    static const char *
    refuse(TournamentPredictor &p, TournamentPredictor &)
    {
        // Only the standard bimodal+gshare pairing has a flattening;
        // custom component pairs step through virtual dispatch and
        // stay on the scalar bank.
        if (!p.bimodalComponentPtr() || !p.gshareComponentPtr())
            return "non-standard component pairing";
        return historyRefusal(p.gshareComponentPtr()->historyBitCount());
    }

    template <typename Io>
    static void
    state(Io &io, TournamentPredictor &p)
    {
        // gshare is the packed direction arena; the meta table rides
        // the choice constants and the bimodal table the aux
        // constants, both unpacked in the choice arena (pc-indexed
        // streams re-touch words; packing would stall
        // scatter-to-gather forwarding).
        GsharePredictor &gshare = *p.gshareComponentPtr();
        io.direction(gshare.tableRef());
        io.history(gshare.historyRef());
        io.choice(p.metaTableRef());
        io.aux(p.bimodalComponentPtr()->tableRef());
    }

    static void
    constants(SimdBankState &s, std::size_t l, TournamentPredictor &p)
    {
        const GsharePredictor &gshare = *p.gshareComponentPtr();
        s.addrMask[l] = mask32(gshare.indexBitCount());
        s.choiceAddrMask[l] = mask32(p.metaIndexBitCount());
        s.auxAddrMask[l] = mask32(p.bimodalComponentPtr()->indexBitCount());
    }
};

template <>
struct Flatten<GskewPredictor>
{
    static constexpr bool kPacked = true;
    static constexpr SimdChoiceKind kChoice = SimdChoiceKind::Gskew;

    static const char *
    refuse(GskewPredictor &p, GskewPredictor &)
    {
        const GskewConfig &cfg = p.config();
        // The skew hashes mix a (bankIndexBits + 8)-bit address field
        // with up to (historyBits + 1) bits of shifted history in
        // 32-bit lanes. Capping the field at 31 bits and the history
        // at 29 keeps the bank-2 add (address + (history << 1))
        // below 2^32, so the lane add matches the scalar 64-bit sum
        // exactly; the fold shift also needs 0 < n < 32.
        if (cfg.bankIndexBits == 0 || cfg.bankIndexBits > 23)
            return "hash address field outside the 32-bit lane math";
        return historyRefusal(cfg.historyBits, 29);
    }

    template <typename Io>
    static void
    state(Io &io, GskewPredictor &p)
    {
        // The three equal-geometry banks sit back to back: bank 1 at
        // bankStride words past bank 0, bank 2 at twice that.
        io.direction(p.bankRef(0));
        io.nextBank(p.bankRef(1));
        io.nextBank(p.bankRef(2));
        io.history(p.historyRef());
    }

    static void
    constants(SimdBankState &s, std::size_t l, GskewPredictor &p)
    {
        const GskewConfig &cfg = p.config();
        s.addrMask[l] = mask32(cfg.bankIndexBits);
        s.hashFieldMask[l] = mask32(cfg.bankIndexBits + 8);
        s.foldShift[l] = cfg.bankIndexBits;
        if (!cfg.partialUpdate)
            s.bothBanksMask[l] = ~std::uint32_t{0};
        s.foldRounds = std::max<std::uint32_t>(
            s.foldRounds, (64 + cfg.bankIndexBits - 1) / cfg.bankIndexBits);
    }
};

template <>
struct Flatten<YagsPredictor>
{
    // One whole cache entry per arena word (kYagsCounterMask layout):
    // the probe gathers valid+tag+counter in one load and allocation
    // rewrites the word wholesale, so the packed slot math never
    // applies.
    static constexpr bool kPacked = false;
    static constexpr SimdChoiceKind kChoice = SimdChoiceKind::Yags;

    static const char *
    refuse(YagsPredictor &p, YagsPredictor &)
    {
        const YagsConfig &cfg = p.config();
        if (const char *reason = historyRefusal(cfg.historyBits))
            return reason;
        // The scalar tag comes from 64-bit word-address bits
        // [cacheIndexBits, cacheIndexBits + tagBits); the kernel only
        // carries the low 32 address bits per lane.
        if (cfg.cacheIndexBits + cfg.tagBits > 32)
            return "tag field above the 32-bit lane math";
        return nullptr;
    }

    template <typename Io>
    static void
    state(Io &io, YagsPredictor &p)
    {
        // Not-taken cache at laneBase, taken cache bankStride words
        // after it; the kernel consults the cache *opposite* the
        // choice direction (yags.hh), so the stride add is masked by
        // ~choice.
        using Entry = YagsPredictor::CacheEntry;
        std::vector<Entry> &notTaken =
            p.cacheRef(YagsPredictor::kNotTakenCache);
        std::vector<Entry> &taken = p.cacheRef(YagsPredictor::kTakenCache);
        const std::size_t n = notTaken.size();
        auto entry = [&](std::size_t e) -> Entry & {
            return e < n ? notTaken[e] : taken[e - n];
        };
        io.directionWords(
            2 * n,
            [&](std::size_t e) {
                const Entry &c = entry(e);
                return (c.valid ? kYagsValidBit : 0u) |
                       (static_cast<std::uint32_t>(c.tag) << kYagsTagShift) |
                       c.counter;
            },
            [&](std::size_t e, std::uint32_t word) {
                Entry &c = entry(e);
                c.valid = (word & kYagsValidBit) != 0;
                c.tag = static_cast<std::uint16_t>(
                    (word >> kYagsTagShift) & 0xFFFFu);
                c.counter =
                    static_cast<std::uint16_t>(word & kYagsCounterMask);
            });
        io.choice(p.choiceTableRef());
        io.history(p.historyRef());
    }

    static void
    constants(SimdBankState &s, std::size_t l, YagsPredictor &p)
    {
        const YagsConfig &cfg = p.config();
        s.maxValue[l] = mask32(cfg.counterWidth);
        s.threshold[l] = s.maxValue[l] / 2;
        s.bankStride[l] = static_cast<std::uint32_t>(
            p.cacheRef(YagsPredictor::kNotTakenCache).size());
        s.choiceAddrMask[l] = mask32(cfg.choiceIndexBits);
        s.addrMask[l] = mask32(cfg.cacheIndexBits);
        s.tagShift[l] = cfg.cacheIndexBits;
        s.tagMask[l] = mask32(cfg.tagBits);
    }
};

template <>
struct Flatten<FilterPredictor>
{
    static constexpr bool kPacked = true;
    static constexpr SimdChoiceKind kChoice = SimdChoiceKind::Filter;

    static const char *
    refuse(FilterPredictor &p, FilterPredictor &)
    {
        return historyRefusal(p.config().historyBits);
    }

    template <typename Io>
    static void
    state(Io &io, FilterPredictor &p)
    {
        io.direction(p.phtRef());
        // Filter entries pack into one choice word each: direction in
        // bit 0, run length from bit 1 (runs are <= 8 bits). The
        // saturation value rides choiceMaxValue.
        std::vector<FilterPredictor::FilterEntry> &filter = p.filterRef();
        io.choiceWords(
            filter.size(),
            [&](std::size_t e) {
                return (filter[e].direction ? 1u : 0u) |
                       (static_cast<std::uint32_t>(filter[e].runLength)
                        << 1);
            },
            [&](std::size_t e, std::uint32_t word) {
                filter[e].direction = static_cast<std::uint16_t>(word & 1u);
                filter[e].runLength = static_cast<std::uint16_t>(word >> 1);
            });
        io.history(p.historyRef());
    }

    static void
    constants(SimdBankState &s, std::size_t l, FilterPredictor &p)
    {
        const FilterConfig &cfg = p.config();
        s.addrMask[l] = mask32(cfg.indexBits);
        s.choiceAddrMask[l] = mask32(cfg.filterIndexBits);
        s.choiceMaxValue[l] = p.runSaturationValue();
    }
};

} // namespace

namespace detail
{

void
logSimdBankFallback(const std::string &what, const char *reason)
{
    static std::mutex mutex;
    static std::set<std::string> seen;
    std::lock_guard<std::mutex> lock(mutex);
    if (!seen.insert(what + '|' + reason).second)
        return;
    BPSIM_INFORM("SIMD bank fallback: " << what
                 << " runs the scalar bank (" << reason << ")");
}

} // namespace detail

template <typename Pred>
std::optional<SimdBankState>
buildSimdBank(std::vector<Pred> &bank)
{
    using Layout = Flatten<Pred>;
    if (bank.empty())
        return std::nullopt;
    ArenaSizer sizer;
    for (Pred &p : bank) {
        if (const char *reason = Layout::refuse(p, bank.front())) {
            detail::logSimdBankFallback(p.name(), reason);
            return std::nullopt;
        }
        Layout::state(sizer, p);
    }
    if (sizer.overflows()) {
        detail::logSimdBankFallback(bank.front().name(),
                                    "arena over 2^31 elements");
        return std::nullopt;
    }

    SimdBankState state;
    state.packed = Layout::kPacked;
    state.choiceKind = Layout::kChoice;
    const std::size_t lanes = bank.size();
    state.lanes = lanes;
    const std::size_t padded = (lanes + kMaxSimdGroupLanes - 1) /
                               kMaxSimdGroupLanes * kMaxSimdGroupLanes;
    for (std::vector<std::uint32_t> *array : laneArrays(state))
        array->assign(padded, 0);
    state.mispredictions.assign(lanes, 0);
    if (!state.packed)
        state.counters.reserve(sizer.counterTotal);
    state.choiceArena.reserve(sizer.choiceTotal);
    state.localHist.reserve(sizer.localTotal);

    ArenaAppender appender{state};
    for (std::size_t l = 0; l < lanes; ++l) {
        appender.lane = l;
        Layout::state(appender, bank[l]);
        Layout::constants(state, l, bank[l]);
    }
    // Padding lanes replicate lane 0 so padded vector slots execute a
    // valid (discarded) lane.
    for (std::vector<std::uint32_t> *array : laneArrays(state))
        std::fill(array->begin() + lanes, array->end(), array->front());
    return state;
}

template <typename Pred>
void
storeSimdBank(const SimdBankState &state, std::vector<Pred> &bank)
{
    ArenaRestorer restorer{state};
    for (std::size_t l = 0; l < bank.size(); ++l) {
        restorer.lane = l;
        Flatten<Pred>::state(restorer, bank[l]);
    }
}

// Every fast-replay type links both entry points; the ones without a
// lane layout are refused by the primary Flatten.
#define BPSIM_INSTANTIATE_SIMD_BANK(Pred)                                 \
    template std::optional<SimdBankState> buildSimdBank(                  \
        std::vector<Pred> &);                                             \
    template void storeSimdBank(const SimdBankState &, std::vector<Pred> &);

BPSIM_INSTANTIATE_SIMD_BANK(AlwaysTakenPredictor)
BPSIM_INSTANTIATE_SIMD_BANK(AlwaysNotTakenPredictor)
BPSIM_INSTANTIATE_SIMD_BANK(BimodalPredictor)
BPSIM_INSTANTIATE_SIMD_BANK(GsharePredictor)
BPSIM_INSTANTIATE_SIMD_BANK(TwoLevelPredictor)
BPSIM_INSTANTIATE_SIMD_BANK(BiModePredictor)
BPSIM_INSTANTIATE_SIMD_BANK(AgreePredictor)
BPSIM_INSTANTIATE_SIMD_BANK(TournamentPredictor)
BPSIM_INSTANTIATE_SIMD_BANK(GskewPredictor)
BPSIM_INSTANTIATE_SIMD_BANK(YagsPredictor)
BPSIM_INSTANTIATE_SIMD_BANK(PerceptronPredictor)
BPSIM_INSTANTIATE_SIMD_BANK(FilterPredictor)

#undef BPSIM_INSTANTIATE_SIMD_BANK

bool
buildSimdBankProbe(SimdBankProbe &probe, const std::uint32_t *ids,
                   std::size_t staticCount, const SimdBankState &state,
                   std::size_t total)
{
    // A lane's counter for one branch accumulates at most the
    // measured branch count; it must fit the 32-bit arena element.
    if (static_cast<std::uint64_t>(total) >=
        std::numeric_limits<std::uint32_t>::max()) {
        return false;
    }
    const std::uint64_t block =
        static_cast<std::uint64_t>(staticCount) + kSimdLaneStagger;
    const std::uint64_t elements =
        block * static_cast<std::uint64_t>(state.lanes);
    if (elements > kMaxArenaElements)
        return false;

    probe.ids = ids;
    probe.staticCount = staticCount;
    probe.arena.assign(static_cast<std::size_t>(elements), 0);
    probe.laneBase.assign(state.paddedLanes(), 0);
    for (std::size_t l = 0; l < state.lanes; ++l) {
        // The stagger gap precedes each block, mirroring the counter
        // arenas: pc-indexed scatter-adds would otherwise collide at
        // power-of-two page offsets across lanes.
        probe.laneBase[l] = static_cast<std::uint32_t>(
            block * l + kSimdLaneStagger);
    }
    // Padding lanes replicate lane 0 (gathers stay in valid memory,
    // stores are masked off by the active count).
    std::fill(probe.laneBase.begin() + state.lanes,
              probe.laneBase.end(), probe.laneBase.front());
    return true;
}

} // namespace bpsim
