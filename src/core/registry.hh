/**
 * @file
 * The compile-time predictor registry: the single source of truth
 * for every predictor kind the project knows.
 *
 * One entry per factory kind declares, in one place,
 *
 *  - the kind string (`kind`) and a one-line description (`doc`),
 *  - the concrete C++ type (`Predictor`),
 *  - the parameter schema (`params`: key, required-or-defaulted,
 *    doc string) and a documented example config (`example`),
 *  - the builder (`build()`), and
 *  - whether the type has a devirtualized replay kernel
 *    (`fastReplay`, see sim/replay_kernel.hh).
 *
 * Every dispatch site in the system is a fold over this list:
 * core/factory.cc derives construction, parameter validation,
 * knownPredictorKinds(), hasFastReplay() and the grammar help text;
 * sim/replay.cc derives the one typed kernel dispatch that serves
 * solo, probed and banked runs. Adding a predictor kind is therefore
 * exactly two steps — give the type a fast core and append one entry
 * here — and the factory, the replay kernels, the campaign fusion
 * scheduler and the registry-driven tests all pick it up with no
 * further code.
 *
 * Every kind that reads only (pc, outcome) has a fast core. The one
 * exception is `btfn`: it learns from branch targets
 * (observeTarget()), which packed traces do not carry, so it runs on
 * the virtual simulate() loop.
 *
 * The entries are plain structs with static members rather than
 * runtime registration so the replay layer can instantiate the
 * templated kernels per concrete type: the `fastReplay` flag is a
 * `constexpr` bool precisely so `if constexpr` folds can skip
 * kernel instantiation for the type without a fast core.
 *
 * Builders, parameter validation and the predictor constructors
 * report configuration errors by throwing ConfigError
 * (util/logging.hh); tryMakePredictor() in core/factory.cc catches
 * it, so it never escapes the factory.
 */

#ifndef BPSIM_CORE_REGISTRY_HH
#define BPSIM_CORE_REGISTRY_HH

#include <array>
#include <string>
#include <utility>

#include "core/bimode.hh"
#include "core/factory.hh"
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
#include "util/logging.hh"

namespace bpsim
{

/** One parameter in a registry entry's schema. */
struct ParamSpec
{
    /** Key as written in the config string (`key=value`). */
    const char *key;
    /** True when the builder has no default for this key. */
    bool required;
    /** Human-readable meaning, including the default for optional
     *  keys. */
    const char *doc;
};

/** Schema-checked required-parameter lookup for builders. Validation
 *  runs before any builder, so this only fires if an entry's builder
 *  requires a key its schema forgot to declare. */
inline unsigned
requireParam(const PredictorSpec &spec, const char *key)
{
    const auto it = spec.params.find(key);
    if (it == spec.params.end())
        throw ConfigError("predictor '" + spec.kind +
                          "' requires parameter " + key + "=<value>");
    return it->second;
}

/*
 * The registry entries, in the order knownPredictorKinds() reports
 * them. Each is self-contained: schema, docs and builder together.
 */

struct TakenEntry
{
    using Predictor = AlwaysTakenPredictor;
    static constexpr const char *kind = "taken";
    static constexpr const char *doc = "static always-taken baseline";
    static constexpr const char *example = "taken";
    static constexpr bool fastReplay = true;
    static constexpr std::array<ParamSpec, 0> params{};

    static PredictorPtr
    build(const PredictorSpec &)
    {
        return std::make_unique<AlwaysTakenPredictor>();
    }
};

struct NotTakenEntry
{
    using Predictor = AlwaysNotTakenPredictor;
    static constexpr const char *kind = "nottaken";
    static constexpr const char *doc = "static always-not-taken baseline";
    static constexpr const char *example = "nottaken";
    static constexpr bool fastReplay = true;
    static constexpr std::array<ParamSpec, 0> params{};

    static PredictorPtr
    build(const PredictorSpec &)
    {
        return std::make_unique<AlwaysNotTakenPredictor>();
    }
};

struct BtfnEntry
{
    using Predictor = BtfnPredictor;
    static constexpr const char *kind = "btfn";
    static constexpr const char *doc =
        "backward-taken/forward-not-taken static heuristic";
    static constexpr const char *example = "btfn:l=10";
    static constexpr bool fastReplay = false;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"l", false, "log2 of the direction-sense cache (default 12)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        return std::make_unique<BtfnPredictor>(spec.get("l", 12));
    }
};

struct BimodalEntry
{
    using Predictor = BimodalPredictor;
    static constexpr const char *kind = "bimodal";
    static constexpr const char *doc =
        "pc-indexed saturating counters (Smith 1981)";
    static constexpr const char *example = "bimodal:n=12";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"n", true, "log2 of the counter count"},
        {"w", false, "counter width in bits (default 2)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        return std::make_unique<BimodalPredictor>(
            requireParam(spec, "n"), spec.get("w", 2));
    }
};

struct GagEntry
{
    using Predictor = TwoLevelPredictor;
    static constexpr const char *kind = "gag";
    static constexpr const char *doc =
        "two-level GAg: global history, one PHT (Yeh-Patt)";
    static constexpr const char *example = "gag:h=12";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"h", true, "global history bits (PHT holds 2^h counters)"},
        {"w", false, "counter width in bits (default 2)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        TwoLevelConfig cfg = makeGAg(requireParam(spec, "h"));
        cfg.counterWidth = spec.get("w", 2);
        return std::make_unique<TwoLevelPredictor>(cfg);
    }
};

struct GasEntry
{
    using Predictor = TwoLevelPredictor;
    static constexpr const char *kind = "gas";
    static constexpr const char *doc =
        "two-level GAs: global history, 2^a pc-selected PHTs";
    static constexpr const char *example = "gas:h=8,a=4";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"h", true, "global history bits"},
        {"a", true, "pc bits selecting among 2^a PHTs"},
        {"w", false, "counter width in bits (default 2)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        TwoLevelConfig cfg =
            makeGAs(requireParam(spec, "h"), requireParam(spec, "a"));
        cfg.counterWidth = spec.get("w", 2);
        return std::make_unique<TwoLevelPredictor>(cfg);
    }
};

struct PagEntry
{
    using Predictor = TwoLevelPredictor;
    static constexpr const char *kind = "pag";
    static constexpr const char *doc =
        "two-level PAg: per-address history, one PHT";
    static constexpr const char *example = "pag:h=10,l=10";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"h", true, "per-address history bits"},
        {"l", true, "log2 of the per-address history table"},
        {"w", false, "counter width in bits (default 2)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        TwoLevelConfig cfg =
            makePAg(requireParam(spec, "h"), requireParam(spec, "l"));
        cfg.counterWidth = spec.get("w", 2);
        return std::make_unique<TwoLevelPredictor>(cfg);
    }
};

struct PasEntry
{
    using Predictor = TwoLevelPredictor;
    static constexpr const char *kind = "pas";
    static constexpr const char *doc =
        "two-level PAs: per-address history, 2^a pc-selected PHTs";
    static constexpr const char *example = "pas:h=8,l=10,a=2";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"h", true, "per-address history bits"},
        {"l", true, "log2 of the per-address history table"},
        {"a", true, "pc bits selecting among 2^a PHTs"},
        {"w", false, "counter width in bits (default 2)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        TwoLevelConfig cfg =
            makePAs(requireParam(spec, "h"), requireParam(spec, "l"),
                    requireParam(spec, "a"));
        cfg.counterWidth = spec.get("w", 2);
        return std::make_unique<TwoLevelPredictor>(cfg);
    }
};

struct GshareEntry
{
    using Predictor = GsharePredictor;
    static constexpr const char *kind = "gshare";
    static constexpr const char *doc =
        "global-history xor-indexed two-level (McFarling 1993)";
    static constexpr const char *example = "gshare:n=12,h=12";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"n", true, "log2 of the counter count"},
        {"h", false, "global history bits (default: n)"},
        {"w", false, "counter width in bits (default 2)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        const unsigned n = requireParam(spec, "n");
        return std::make_unique<GsharePredictor>(n, spec.get("h", n),
                                                 spec.get("w", 2));
    }
};

struct BiModeEntry
{
    using Predictor = BiModePredictor;
    static constexpr const char *kind = "bimode";
    static constexpr const char *doc =
        "the bi-mode predictor (Lee, Chen & Mudge, MICRO-30)";
    static constexpr const char *example = "bimode:d=11,c=11,h=11";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"d", true, "log2 counters per direction bank"},
        {"c", false, "log2 of the choice table (default: d)"},
        {"h", false, "global history bits (default: d)"},
        {"w", false, "counter width in bits (default 2)"},
        {"partial", false,
         "1 = paper's partial update, 0 = both banks (default 1)"},
        {"alwayschoice", false,
         "1 = always train the choice table ablation (default 0)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        const unsigned d = requireParam(spec, "d");
        BiModeConfig cfg;
        cfg.directionIndexBits = d;
        cfg.choiceIndexBits = spec.get("c", d);
        cfg.historyBits = spec.get("h", d);
        cfg.counterWidth = spec.get("w", 2);
        cfg.partialUpdate = spec.get("partial", 1) != 0;
        cfg.alwaysUpdateChoice = spec.get("alwayschoice", 0) != 0;
        return std::make_unique<BiModePredictor>(cfg);
    }
};

struct AgreeEntry
{
    using Predictor = AgreePredictor;
    static constexpr const char *kind = "agree";
    static constexpr const char *doc =
        "bias-agreement de-aliased gshare (Sprangle et al., ISCA 1997)";
    static constexpr const char *example = "agree:n=12,h=12,b=12";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"n", true, "log2 of the agree-counter table"},
        {"h", false, "global history bits (default: n)"},
        {"b", false, "log2 of the biasing-bit table (default: n)"},
        {"w", false, "counter width in bits (default 2)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        const unsigned n = requireParam(spec, "n");
        AgreeConfig cfg;
        cfg.indexBits = n;
        cfg.historyBits = spec.get("h", n);
        cfg.biasIndexBits = spec.get("b", n);
        cfg.counterWidth = spec.get("w", 2);
        return std::make_unique<AgreePredictor>(cfg);
    }
};

struct GskewEntry
{
    using Predictor = GskewPredictor;
    static constexpr const char *kind = "gskew";
    static constexpr const char *doc =
        "majority-vote skewed predictor, e-gskew (Michaud et al.)";
    static constexpr const char *example = "gskew:n=11,h=11";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"n", true, "log2 counters per bank (three banks)"},
        {"h", false, "global history bits (default: n)"},
        {"w", false, "counter width in bits (default 2)"},
        {"partial", false,
         "1 = e-gskew partial update, 0 = all banks (default 1)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        const unsigned n = requireParam(spec, "n");
        GskewConfig cfg;
        cfg.bankIndexBits = n;
        cfg.historyBits = spec.get("h", n);
        cfg.counterWidth = spec.get("w", 2);
        cfg.partialUpdate = spec.get("partial", 1) != 0;
        return std::make_unique<GskewPredictor>(cfg);
    }
};

struct YagsEntry
{
    using Predictor = YagsPredictor;
    static constexpr const char *kind = "yags";
    static constexpr const char *doc =
        "tagged-exception-cache bi-mode successor (Eden & Mudge)";
    static constexpr const char *example = "yags:c=12,n=10,t=6,h=10";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"c", true, "log2 of the choice (bimodal) table"},
        {"n", true, "log2 of each direction cache"},
        {"t", false, "partial tag bits per cache entry (default 6)"},
        {"h", false, "global history bits (default: n)"},
        {"w", false, "counter width in bits (default 2)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        YagsConfig cfg;
        cfg.choiceIndexBits = requireParam(spec, "c");
        cfg.cacheIndexBits = requireParam(spec, "n");
        cfg.tagBits = spec.get("t", 6);
        cfg.historyBits = spec.get("h", cfg.cacheIndexBits);
        cfg.counterWidth = spec.get("w", 2);
        return std::make_unique<YagsPredictor>(cfg);
    }
};

struct TournamentEntry
{
    using Predictor = TournamentPredictor;
    static constexpr const char *kind = "tournament";
    static constexpr const char *doc =
        "meta-selected bimodal+gshare pair (McFarling 1993)";
    static constexpr const char *example = "tournament:n=12";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"n", true,
         "log2 of the meta table and of each component's table"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        return TournamentPredictor::makeStandard(
            requireParam(spec, "n"));
    }
};

struct PerceptronEntry
{
    using Predictor = PerceptronPredictor;
    static constexpr const char *kind = "perceptron";
    static constexpr const char *doc =
        "table-of-perceptrons predictor (Jimenez & Lin, HPCA 2001)";
    static constexpr const char *example = "perceptron:n=8,h=24";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"n", true, "log2 of the perceptron table"},
        {"h", false, "global history bits == weights (default 24)"},
        {"w", false, "weight width in bits (default 8)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        PerceptronConfig cfg;
        cfg.tableIndexBits = requireParam(spec, "n");
        cfg.historyBits = spec.get("h", 24);
        cfg.weightBits = spec.get("w", 8);
        return std::make_unique<PerceptronPredictor>(cfg);
    }
};

struct FilterEntry
{
    using Predictor = FilterPredictor;
    static constexpr const char *kind = "filter";
    static constexpr const char *doc =
        "PHT-interference-filtering gshare (Chang et al., PACT 1996)";
    static constexpr const char *example = "filter:n=12,h=12,b=12,k=6";
    static constexpr bool fastReplay = true;
    static constexpr auto params = std::to_array<ParamSpec>({
        {"n", true, "log2 of the gshare-indexed PHT"},
        {"h", false, "global history bits (default: n)"},
        {"b", false, "log2 of the per-branch filter table (default: n)"},
        {"k", false, "run-counter bits; saturation filters (default 6)"},
        {"w", false, "counter width in bits (default 2)"},
    });

    static PredictorPtr
    build(const PredictorSpec &spec)
    {
        const unsigned n = requireParam(spec, "n");
        FilterConfig cfg;
        cfg.indexBits = n;
        cfg.historyBits = spec.get("h", n);
        cfg.filterIndexBits = spec.get("b", n);
        cfg.filterCounterBits = spec.get("k", 6);
        cfg.counterWidth = spec.get("w", 2);
        return std::make_unique<FilterPredictor>(cfg);
    }
};

/** The ordered compile-time list of registry entries. */
template <typename... Entries>
struct EntryList
{
    /** Calls `f.template operator()<Entry>()` for each entry, in
     *  order. F is usually a templated lambda:
     *  `[&]<typename E>() { ... }`. */
    template <typename F>
    static void
    forEach(F &&f)
    {
        (f.template operator()<Entries>(), ...);
    }

    static constexpr std::size_t size = sizeof...(Entries);
};

/**
 * The registry. Entry order is the public kind order
 * (knownPredictorKinds(), help text, registry-driven tests).
 */
using PredictorRegistry =
    EntryList<TakenEntry, NotTakenEntry, BtfnEntry, BimodalEntry,
              GagEntry, GasEntry, PagEntry, PasEntry, GshareEntry,
              BiModeEntry, AgreeEntry, GskewEntry, YagsEntry,
              TournamentEntry, PerceptronEntry, FilterEntry>;

/** Folds @p f over every registry entry, in kind order. */
template <typename F>
void
forEachPredictorEntry(F &&f)
{
    PredictorRegistry::forEach(std::forward<F>(f));
}

/** Comma-separated accepted-key list of an entry's schema. */
template <typename Entry>
std::string
acceptedKeyList()
{
    std::string keys;
    for (const ParamSpec &param : Entry::params) {
        if (!keys.empty())
            keys += ", ";
        keys += param.key;
    }
    return keys;
}

/**
 * Validates @p spec against @p Entry's schema: every key must be
 * declared (misspelled keys like `gshare:hist=12` used to fall back
 * to defaults silently) and every required key must be present.
 * Throws ConfigError; runs before the entry's builder.
 */
template <typename Entry>
void
validateSpecParams(const PredictorSpec &spec)
{
    for (const auto &given : spec.params) {
        bool known = false;
        for (const ParamSpec &param : Entry::params)
            known = known || given.first == param.key;
        if (!known) {
            std::string message = "unknown parameter '" + given.first +
                                  "' for predictor '" + spec.kind + "'";
            if (Entry::params.empty())
                message += " (takes no parameters)";
            else
                message +=
                    " (accepted keys: " + acceptedKeyList<Entry>() + ")";
            throw ConfigError(message);
        }
    }
    for (const ParamSpec &param : Entry::params) {
        if (param.required &&
            spec.params.find(param.key) == spec.params.end())
            throw ConfigError("predictor '" + spec.kind +
                              "' requires parameter " + param.key +
                              "=<value>");
    }
}

} // namespace bpsim

#endif // BPSIM_CORE_REGISTRY_HH
