/**
 * @file
 * The three offline workloads: suite-store, ladder-fused, mixed-kinds.
 */

#include <filesystem>
#include <optional>
#include <random>

#include "analysis/bias_analysis.hh"
#include "analysis/h2p.hh"
#include "common/bench_common.hh"
#include "core/factory.hh"
#include "core/registry.hh"
#include "harness.hh"
#include "sim/replay.hh"
#include "sim/simd/simd_bank.hh"
#include "sim/size_ladder.hh"
#include "trace/pc_index.hh"
#include "trace/trace_store.hh"
#include "util/logging.hh"
#include "workload/benchmarks.hh"
#include "workload/generator.hh"

namespace e2e
{

using namespace bpsim;

namespace
{

/** A campaign's jobs beside their results, kept from the last
 *  iteration for the output check and the attribution pass. */
struct CampaignRecord
{
    std::vector<Job> jobs;
    std::vector<JobResult> results;
};

/** One job re-run alone through simulateAny(); true on a match. */
bool
matchesPerJob(const Job &job, const JobResult &expected)
{
    PredictorResult made = tryMakePredictor(job.configText);
    if (!made.ok())
        return !expected.ok();
    if (!expected.ok())
        return false;
    auto reader = job.trace->reader();
    const SimResult alone = simulateAny(*made.predictor, reader,
                                        job.packed.get(), job.simConfig);
    return alone.branches == expected.result.branches &&
           alone.mispredictions == expected.result.mispredictions;
}

/** Re-runs @p samples seeded picks of @p records' jobs alone. */
Check
verifyJobSample(const std::vector<CampaignRecord> &records,
                std::uint64_t seed, std::size_t samples)
{
    std::vector<std::pair<const Job *, const JobResult *>> all;
    for (const CampaignRecord &record : records) {
        for (std::size_t i = 0; i < record.jobs.size(); ++i)
            all.emplace_back(&record.jobs[i], &record.results[i]);
    }
    Check check;
    std::mt19937_64 rng(mix64(seed ^ 0x5eedull));
    for (std::size_t s = 0; s < samples && !all.empty(); ++s) {
        const auto &[job, result] = all[rng() % all.size()];
        ++check.attempted;
        if (!matchesPerJob(*job, *result)) {
            ++check.failed;
            BPSIM_WARN("output check: " << job->benchmark << " × "
                       << job->configText
                       << " differs from its per-job simulateAny() run");
        }
    }
    return check;
}

/**
 * Replays one bank through the typed SIMD calls, each in its own
 * span, and compares every lane with the campaign's result. A bank
 * with no SIMD flattening records only its build span.
 */
template <typename Pred>
void
attributeSimdBank(Tracer &tracer, const std::vector<const Job *> &jobs,
                  const std::vector<const JobResult *> &results,
                  KernelTier tier, Check &check)
{
    std::vector<Pred> bank;
    bank.reserve(jobs.size());
    for (const Job *job : jobs) {
        PredictorResult made = tryMakePredictor(job->configText);
        auto *typed = dynamic_cast<Pred *>(made.predictor.get());
        if (typed == nullptr)
            return;
        bank.push_back(std::move(*typed));
    }
    const PackedTrace &packed = *jobs.front()->packed;
    const std::string owner = jobs.front()->benchmark;
    std::optional<SimdBankState> state;
    {
        Tracer::Scope span(tracer, "sim.simd_build", owner);
        state = buildSimdBank(bank);
    }
    if (!state)
        return;
    bool ran = false;
    {
        Tracer::Scope span(tracer, "sim.simd_kernel", owner);
        ran = runSimdBank(*state, tier, packed.pcData(), packed.wordData(),
                          packed.size(), 0);
    }
    {
        Tracer::Scope span(tracer, "sim.simd_store", owner);
        storeSimdBank(*state, bank);
    }
    for (std::size_t l = 0; l < jobs.size(); ++l) {
        ++check.attempted;
        if (!ran || !results[l]->ok() ||
            state->mispredictions[l] != results[l]->result.mispredictions)
            ++check.failed;
    }
}

/**
 * The SIMD split of @p records: rebuilds each fused bank the campaign
 * ran from what its results record (bank width in fusedLanes, tier in
 * kernelTier), taking the bank's lanes in job order from the jobs of
 * the same kind and trace, and replays each bank of two or more SIMD
 * lanes through buildSimdBank()/runSimdBank()/storeSimdBank(). A bank
 * that cannot be rebuilt at its recorded width fails the check.
 */
void
attributeSimdBanks(Tracer &tracer, const std::vector<CampaignRecord> &records,
                   Check &check)
{
    for (const CampaignRecord &record : records) {
        std::vector<bool> taken(record.jobs.size(), false);
        for (std::size_t head = 0; head < record.jobs.size(); ++head) {
            const JobResult &first = record.results[head];
            if (taken[head] || !first.ok() || first.result.fusedLanes < 2 ||
                first.result.kernelTier == KernelTier::Scalar)
                continue;
            const std::uint32_t width = first.result.fusedLanes;
            const std::string kind =
                fastReplayKind(record.jobs[head].configText);
            std::vector<const Job *> jobs;
            std::vector<const JobResult *> results;
            for (std::size_t j = head;
                 j < record.jobs.size() && jobs.size() < width; ++j) {
                const Job &job = record.jobs[j];
                const JobResult &result = record.results[j];
                if (taken[j] || !result.ok() ||
                    result.result.fusedLanes != width ||
                    job.packed != record.jobs[head].packed ||
                    fastReplayKind(job.configText) != kind)
                    continue;
                taken[j] = true;
                jobs.push_back(&job);
                results.push_back(&result);
            }
            if (jobs.size() != width) {
                ++check.attempted;
                ++check.failed;
                BPSIM_WARN("attribution: a " << kind << " bank of " << width
                           << " lanes on " << record.jobs[head].benchmark
                           << " rebuilt with " << jobs.size() << " lanes");
                continue;
            }
            forEachPredictorEntry([&]<typename Entry>() {
                if constexpr (Entry::fastReplay) {
                    if (kind == Entry::kind)
                        attributeSimdBank<typename Entry::Predictor>(
                            tracer, jobs, results, first.result.kernelTier,
                            check);
                }
            });
        }
    }
}

// ---------------------------------------------------------------- suite-store

/**
 * All 14 Table 2 benchmarks through a persistent trace store: set-up
 * fills the store from cold; each iteration opens a new TraceCache
 * on it, resolves both trace forms, runs the headline schemes at two
 * rungs, then one per-branch-tracked bi-mode run and its H2P report
 * per benchmark.
 */
class SuiteStore : public Workload
{
  public:
    explicit SuiteStore(const Options &options)
        : storeDir(options.workDir + "/store")
    {
        for (WorkloadSpec spec : allBenchmarks())
            specs.push_back(
                seededSpec(scaledBenchmark(std::move(spec), kDivisor),
                           options.seed));
    }

    ~SuiteStore() override
    {
        std::error_code ignored;
        std::filesystem::remove_all(storeDir, ignored);
    }

    std::map<std::string, double>
    setup(Tracer &tracer) override
    {
        std::filesystem::remove_all(storeDir);
        TraceStore store(storeDir);
        double records = 0.0;
        for (const WorkloadSpec &spec : specs) {
            MemoryTrace trace;
            {
                Tracer::Scope span(tracer, "workload.generate", spec.name);
                trace = generateWorkloadTrace(spec);
            }
            records += static_cast<double>(trace.size());
            std::optional<PackedTrace> packed;
            {
                Tracer::Scope span(tracer, "trace.pack", spec.name);
                packed.emplace(trace);
            }
            Tracer::Scope span(tracer, "trace.store_write", spec.name);
            const std::uint64_t fingerprint = workloadTraceFingerprint(spec);
            std::string why;
            if (!store.storeTrace(spec.name, fingerprint, trace, why) ||
                !store.storePacked(spec.name, fingerprint, *packed, why))
                BPSIM_FATAL("cannot fill the trace store: " << why);
        }
        double bytes = 0.0;
        for (const auto &entry :
             std::filesystem::directory_iterator(storeDir)) {
            if (entry.is_regular_file())
                bytes += static_cast<double>(entry.file_size());
        }
        return {{"workload.records", records}, {"trace.store_bytes", bytes}};
    }

    Iteration
    iterate(Tracer &tracer) override
    {
        Iteration it;
        // Drop the previous iteration's traces before loading anew.
        records.clear();
        probed.clear();
        benchmarks.clear();
        cache = std::make_unique<TraceCache>(storeDir);
        for (const WorkloadSpec &spec : specs) {
            BenchmarkTrace benchmark{spec.name, nullptr, nullptr};
            {
                Tracer::Scope span(tracer, "trace.store_load_full",
                                   spec.name);
                benchmark.trace = cache->handleFor(spec);
            }
            {
                Tracer::Scope span(tracer, "trace.store_load_packed",
                                   spec.name);
                benchmark.packed = cache->packedHandleFor(spec);
            }
            benchmarks.push_back(std::move(benchmark));
        }
        // The workload exists to measure the store; a run the store
        // did not serve measured something else.
        const TraceCache::Stats &stats = cache->stats();
        ++it.jobs;
        if (stats.generated != 0 || stats.traceLoads != specs.size() ||
            stats.packedLoads != specs.size()) {
            ++it.failed;
            BPSIM_WARN("trace store did not serve every trace ("
                       << stats.generated << " generated)");
        }

        for (const unsigned rung : {12u, 14u}) {
            const std::string n = std::to_string(rung);
            const std::vector<std::string> configs = {
                "gshare:n=" + n,                                   // 1PHT
                "gshare:n=" + n + ",h=" + std::to_string(rung - 4), // best
                "bimode:d=" + std::to_string(rung - 1)};
            Campaign campaign;
            campaign.addGrid(configs, benchmarks);
            const std::string id = "headline-n" + n;
            auto results = runCampaign(tracer, campaign, id, it);
            emitResults(tracer, results, id, it);
            records.push_back({campaign.jobs(), std::move(results)});
        }

        for (const BenchmarkTrace &benchmark : benchmarks) {
            const PredictorPtr predictor = makePredictor(kProbedConfig);
            SimConfig config;
            config.trackPerBranch = true;
            auto reader = benchmark.trace->reader();
            SimResult result;
            {
                Tracer::Scope span(tracer, "sim.probed_replay",
                                   benchmark.name);
                result = simulateAny(*predictor, reader,
                                     benchmark.packed.get(), config);
            }
            result.benchmark = benchmark.name;
            result.configText = kProbedConfig;
            H2PReport report;
            {
                Tracer::Scope span(tracer, "analysis.h2p", benchmark.name);
                report = buildH2PReport(result);
            }
            ++it.jobs;
            it.records += result.branches;
            it.digest.addJob(benchmark.name, kProbedConfig, result.branches,
                             result.mispredictions);
            it.digest.add("h2p|" + benchmark.name + "|" +
                          std::to_string(report.h2pCount) + "|" +
                          std::to_string(report.staticBranches()));
            probed.push_back(std::move(result));
        }
        return it;
    }

    Check
    verifySample(std::uint64_t sampleSeed) override
    {
        Check check = verifyJobSample(records, sampleSeed, 6);
        // The probed runs: their totals must match an unprobed run.
        std::mt19937_64 rng(mix64(sampleSeed ^ 0x9b0bedull));
        for (int s = 0; s < 2; ++s) {
            const std::size_t b = rng() % benchmarks.size();
            Job job;
            job.configText = kProbedConfig;
            job.benchmark = benchmarks[b].name;
            job.trace = benchmarks[b].trace;
            job.packed = benchmarks[b].packed;
            JobResult expected;
            expected.result = probed[b];
            ++check.attempted;
            if (!matchesPerJob(job, expected) ||
                probed[b].perBranch.empty())
                ++check.failed;
        }
        return check;
    }

    void
    teardown() override
    {
        records.clear();
        probed.clear();
        benchmarks.clear();
        cache.reset();
    }

    void
    attribute(Tracer &tracer, Check &check) override
    {
        for (const BenchmarkTrace &benchmark : benchmarks) {
            Tracer::Scope span(tracer, "trace.pc_index", benchmark.name);
            const PcIndex index(*benchmark.packed);
            ++check.attempted;
            if (index.size() != benchmark.packed->size())
                ++check.failed;
        }
    }

  private:
    static constexpr std::uint64_t kDivisor = 8;
    static constexpr const char *kProbedConfig = "bimode:d=13";

    std::string storeDir;
    std::vector<WorkloadSpec> specs;
    std::unique_ptr<TraceCache> cache;
    std::vector<BenchmarkTrace> benchmarks;
    std::vector<CampaignRecord> records;
    std::vector<SimResult> probed;
};

// -------------------------------------------------- gcc/go/compress workloads

/** The three benchmarks the figure workloads run, traces resolved
 *  through a memory-only TraceCache in set-up. */
class ThreeBenchmarks : public Workload
{
  public:
    ThreeBenchmarks(const Options &options, std::uint64_t divisor)
    {
        for (const char *name : {"gcc", "go", "compress"})
            specs.push_back(benchmarkSpec(name, options.seed, divisor));
    }

    std::map<std::string, double>
    setup(Tracer &tracer) override
    {
        benchmarks.clear();
        cache = std::make_unique<TraceCache>();
        Tracer::Scope span(tracer, "trace.resolve");
        benchmarks = resolveTraces(*cache, specs);
        double records = 0.0;
        for (const BenchmarkTrace &benchmark : benchmarks)
            records += static_cast<double>(benchmark.packed->size());
        return {{"workload.records", records}};
    }

    Check
    verifySample(std::uint64_t sampleSeed) override
    {
        return verifyJobSample(records, sampleSeed, 6);
    }

    void
    attribute(Tracer &tracer, Check &check) override
    {
        attributeSimdBanks(tracer, records, check);
    }

    /** The last iteration's jobs hold its traces: release them with
     *  the set-up's, before the next set-up generates anew. */
    void
    teardown() override
    {
        records.clear();
        benchmarks.clear();
        cache.reset();
    }

  protected:
    /** Runs, emits and keeps one campaign of @p configs. */
    const std::vector<JobResult> &
    runGrid(Tracer &tracer, const std::vector<std::string> &configs,
            const std::string &id, Iteration &it)
    {
        Campaign campaign;
        campaign.addGrid(configs, benchmarks);
        auto results = runCampaign(tracer, campaign, id, it);
        emitResults(tracer, results, id, it);
        records.push_back({campaign.jobs(), std::move(results)});
        return records.back().results;
    }

    std::vector<WorkloadSpec> specs;
    std::unique_ptr<TraceCache> cache;
    std::vector<BenchmarkTrace> benchmarks;
    std::vector<CampaignRecord> records;
};

/**
 * The Figure 2 measurement over gcc, go and compress, expressed as
 * the campaigns measureSchemeCurves() runs per rung: the gshare
 * history sweep (one wide same-kind bank per benchmark) and the
 * natural bi-mode point.
 */
class LadderFused : public ThreeBenchmarks
{
  public:
    explicit LadderFused(const Options &options)
        : ThreeBenchmarks(options, 2)
    {
    }

    Iteration
    iterate(Tracer &tracer) override
    {
        Iteration it;
        records.clear();
        curve.clear();
        const double count = static_cast<double>(benchmarks.size());
        for (const SizePoint &size : paperSizeLadder()) {
            const unsigned n = size.gshareIndexBits;
            std::vector<std::string> configs;
            for (unsigned m = 0; m <= n; ++m)
                configs.push_back("gshare:n=" + std::to_string(n) +
                                  ",h=" + std::to_string(m));
            const auto &sweep = runGrid(
                tracer, configs, "sweep-n" + std::to_string(n), it);
            // Suite averages per history length, first minimum wins
            // (GshareSweepResult::best()).
            CurvePoint point;
            double bestAverage = 0.0;
            for (unsigned m = 0; m <= n; ++m) {
                double total = 0.0;
                for (std::size_t b = 0; b < benchmarks.size(); ++b) {
                    const JobResult &job = sweep[m * benchmarks.size() + b];
                    total += job.ok() ? job.result.mispredictionRate() : 0.0;
                }
                const double average = total / count;
                if (m == 0 || average < bestAverage) {
                    bestAverage = average;
                    point.bestHistoryBits = m;
                }
                if (m == n)
                    point.pht1Average = average;
            }
            point.bestAverage = bestAverage;

            const auto &bimode = runGrid(
                tracer,
                {"bimode:d=" + std::to_string(size.bimodeDirectionBits)},
                "bimode-d" + std::to_string(size.bimodeDirectionBits), it);
            double total = 0.0;
            for (const JobResult &job : bimode)
                total += job.ok() ? job.result.mispredictionRate() : 0.0;
            point.bimodeAverage = total / count;
            it.digest.add("best|" + std::to_string(n) + "|" +
                          std::to_string(point.bestHistoryBits));
            curve.push_back(point);
        }
        return it;
    }

    Check
    verifySample(std::uint64_t sampleSeed) override
    {
        Check check = ThreeBenchmarks::verifySample(sampleSeed);
        // The decomposed campaigns must reproduce the figure path.
        setDefaultWorkerCount(kWorkers);
        const auto figure =
            bench::measureSchemeCurves(*cache, specs, paperSizeLadder());
        ++check.attempted;
        bool same = figure.size() == curve.size();
        for (std::size_t i = 0; same && i < figure.size(); ++i) {
            same = figure[i].bestHistoryBits == curve[i].bestHistoryBits &&
                   figure[i].bestAverage == curve[i].bestAverage &&
                   figure[i].pht1Average == curve[i].pht1Average &&
                   figure[i].bimodeAverage == curve[i].bimodeAverage;
        }
        if (!same) {
            ++check.failed;
            BPSIM_WARN("output check: ladder campaigns differ from "
                       "measureSchemeCurves()");
        }
        return check;
    }

  private:
    struct CurvePoint
    {
        unsigned bestHistoryBits = 0;
        double bestAverage = 0.0;
        double pht1Average = 0.0;
        double bimodeAverage = 0.0;
    };
    std::vector<CurvePoint> curve;
};

/**
 * The scheme_comparison grids (every kind at three matched budgets)
 * over gcc, go and compress, then the Figure 7 bias breakdown on gcc.
 */
class MixedKinds : public ThreeBenchmarks
{
  public:
    explicit MixedKinds(const Options &options)
        : ThreeBenchmarks(options, 4)
    {
    }

    Iteration
    iterate(Tracer &tracer) override
    {
        Iteration it;
        records.clear();
        for (const auto &[label, configs] : budgets())
            runGrid(tracer, configs, label, it);

        const BenchmarkTrace &gcc = benchmarks.front();
        for (const unsigned n : {8u, 10u, 15u}) {
            for (const std::string &config :
                 {"gshare:n=" + std::to_string(n) + ",h=" +
                      std::to_string(n - 6),
                  "gshare:n=" + std::to_string(n),
                  "bimode:d=" + std::to_string(n - 1)}) {
                const PredictorPtr predictor = makePredictor(config);
                auto reader = gcc.trace->reader();
                Tracer::Scope span(tracer, "analysis.bias",
                                   gcc.name + "/" + config);
                BiasAnalysis analysis(*predictor, reader);
                analysis.run();
                const MispredictionBreakdown breakdown =
                    analysis.breakdown();
                const SimResult &result = analysis.result();
                ++it.jobs;
                it.records += result.branches;
                it.digest.addJob(gcc.name, "bias:" + config,
                                 result.branches, result.mispredictions);
                char text[96];
                std::snprintf(text, sizeof(text), "%.9f|%.9f|%.9f",
                              breakdown.sntPercent, breakdown.stPercent,
                              breakdown.wbPercent);
                it.digest.add(text);
            }
        }
        return it;
    }

  private:
    /** bench/scheme_comparison.cc's budget classes. */
    static std::vector<std::pair<std::string, std::vector<std::string>>>
    budgets()
    {
        return {
            {"budget-1KB",
             {"bimodal:n=12", "gshare:n=12", "gshare:n=12,h=9",
              "gas:h=8,a=4", "pas:h=6,l=9,a=6", "agree:n=12",
              "filter:n=12", "gskew:n=10", "bimode:d=10",
              "yags:c=11,n=9", "tournament:n=10", "perceptron:n=5,h=21",
              "taken", "nottaken", "btfn"}},
            {"budget-4KB",
             {"bimodal:n=14", "gshare:n=14", "gshare:n=14,h=11",
              "gas:h=10,a=4", "pas:h=8,l=10,a=6", "agree:n=14",
              "filter:n=14", "gskew:n=12", "bimode:d=12",
              "yags:c=13,n=11", "tournament:n=12", "perceptron:n=7,h=21"}},
            {"budget-16KB",
             {"bimodal:n=16", "gshare:n=16", "gshare:n=16,h=13",
              "gas:h=12,a=4", "pas:h=10,l=11,a=6", "agree:n=16",
              "filter:n=16", "gskew:n=14", "bimode:d=14",
              "yags:c=15,n=13", "tournament:n=14", "perceptron:n=9,h=21"}},
        };
    }
};

} // namespace

std::unique_ptr<Workload>
makeSuiteStore(const Options &options)
{
    return std::make_unique<SuiteStore>(options);
}

std::unique_ptr<Workload>
makeLadderFused(const Options &options)
{
    return std::make_unique<LadderFused>(options);
}

std::unique_ptr<Workload>
makeMixedKinds(const Options &options)
{
    return std::make_unique<MixedKinds>(options);
}

} // namespace e2e
