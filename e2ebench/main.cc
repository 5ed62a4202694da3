/**
 * @file
 * e2ebench: runs one named workload and prints its metrics.
 *
 *   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--expect-digest <hex>] [--work-dir <dir>]
 *
 * Human-readable lines (run metadata, every metric with its unit and
 * sample count) come first; the last line of stdout is one JSON
 * object {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones, all from untraced
 * iterations. With --trace 1 the first half of the time runs
 * untraced and the second half traced; the metrics are the per-layer
 * ones, plus the tracing overhead (traced minus untraced wall_s) and
 * the share of wall_s no span covers, and the spans are written to
 * <work-dir>/trace-<workload>-<seed>.json.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.hh"
#include "sim/simd/kernel_tier.hh"
#include "util/logging.hh"

using namespace e2e;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_branches_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
    {"campaign_p50_ms", "ms"},
    {"campaign_p90_ms", "ms"},
    {"campaigns_per_s", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"workload.generate_ms", "ms"},
    {"workload.records", "count"},
    {"trace.pack_ms", "ms"},
    {"trace.store_write_ms", "ms"},
    {"trace.store_load_full_ms", "ms"},
    {"trace.store_load_packed_ms", "ms"},
    {"trace.store_bytes", "bytes"},
    {"trace.pc_index_ms", "ms"},
    {"sim.probed_replay_ms", "ms"},
    {"analysis.h2p_ms", "ms"},
    {"sim.bank_replay_ms", "ms"},
    {"sim.banks", "count"},
    {"sim.bank_lanes_mean", "count"},
    {"sim.ns_per_branch_step", "ns"},
    {"sim.simd_build_ms", "ms"},
    {"sim.simd_kernel_ms", "ms"},
    {"sim.simd_store_ms", "ms"},
    {"sim.solo_replay_ms", "ms"},
    {"sim.virtual_replay_ms", "ms"},
    {"analysis.bias_ms", "ms"},
    {"campaign.self_ms", "ms"},
    {"campaign.emit_ms", "ms"},
    {"campaign.emit_bytes", "bytes"},
    {"serve.accept_ms", "ms"},
    {"serve.result_gap_ms", "ms"},
    {"serve.fused_banks", "count"},
    {"serve.pending_max", "count"},
    {"serve.rejected", "count"},
    {"trace.self_ms", "ms"},
    {"sim.self_ms", "ms"},
    {"analysis.self_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"bench.uncovered_share", "ratio"},
    {"bench.tracing_overhead_s", "s"},
};

/** Metrics of set-up (median over the set-ups), not of iterations. */
const std::vector<std::string> kSetupMetrics = {
    "workload.generate_ms", "workload.records", "trace.pack_ms",
    "trace.store_write_ms", "trace.store_bytes"};

/** Metrics timed by the attribution pass after the traced phase. */
const std::vector<std::string> kAttributedMetrics = {
    "trace.pc_index_ms", "sim.simd_build_ms", "sim.simd_kernel_ms",
    "sim.simd_store_ms"};

void
usage()
{
    std::cerr << "usage: e2ebench --workload "
                 "<suite-store|ladder-fused|mixed-kinds|serve-clients> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--expect-digest <hex>] [--work-dir <dir>]\n";
}

bool
parseArgs(int argc, char **argv, Options &options)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            options.workload = value;
        else if (key == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            options.trace = value == "1";
        else if (key == "--expect-digest")
            options.expectDigest = value;
        else if (key == "--work-dir")
            options.workDir = value;
        else
            return false;
    }
    return argc % 2 == 1 && !options.workload.empty() &&
           options.seconds > 0.0 && !options.workDir.empty();
}

std::unique_ptr<Workload>
makeWorkload(const Options &options)
{
    if (options.workload == "suite-store")
        return makeSuiteStore(options);
    if (options.workload == "ladder-fused")
        return makeLadderFused(options);
    if (options.workload == "mixed-kinds")
        return makeMixedKinds(options);
    if (options.workload == "serve-clients")
        return makeServeClients(options);
    return nullptr;
}

std::string
metadataJson(const Options &options)
{
    const char *tier =
        bpsim::kernelTierName(bpsim::resolveKernelTier(bpsim::KernelTier::Auto));
    return std::string("{\"workload\":\"") + options.workload +
           "\",\"seed\":" + std::to_string(options.seed) +
           ",\"kernel_tier\":\"" + tier + "\",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"workers\":" + std::to_string(kWorkers) +
           ",\"build_type\":\"" E2EBENCH_BUILD_TYPE
           "\",\"compiler\":\"" E2EBENCH_COMPILER "\"}";
}

/** Per-key median over @p samples (missing keys count as 0). */
std::map<std::string, double>
medians(const std::vector<std::map<std::string, double>> &samples)
{
    std::map<std::string, std::vector<double>> columns;
    for (const auto &sample : samples) {
        for (const auto &[key, value] : sample)
            columns[key];
    }
    for (auto &[key, column] : columns) {
        for (const auto &sample : samples) {
            const auto it = sample.find(key);
            column.push_back(it == sample.end() ? 0.0 : it->second);
        }
    }
    std::map<std::string, double> result;
    for (auto &[key, column] : columns)
        result[key] = median(std::move(column));
    return result;
}

/**
 * The campaign latencies (@p field of each iteration) that the
 * percentiles are taken over. A workload with a fixed campaign list
 * gives one value per campaign, its median over the iterations: with
 * 2–16 campaigns per iteration, a pooled p90 would be the host-time
 * tail of a single campaign. Served campaigns, hundreds per run in
 * shuffled order, are pooled.
 */
std::vector<double>
latencies(const std::vector<Iteration> &iterations,
          std::vector<double> Iteration::*field, bool fixedCampaigns)
{
    std::vector<double> values;
    if (!fixedCampaigns) {
        for (const Iteration &it : iterations)
            values.insert(values.end(), (it.*field).begin(),
                          (it.*field).end());
        return values;
    }
    for (std::size_t k = 0; k < (iterations.front().*field).size(); ++k) {
        std::vector<double> column;
        for (const Iteration &it : iterations)
            column.push_back((it.*field).at(k));
        values.push_back(median(std::move(column)));
    }
    return values;
}

std::string
number(double value)
{
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    // A fixed mmap threshold (glibc's default start value). Left
    // dynamic, glibc raises it on the first large free, later
    // set-ups' traces land in the heap, and peak_rss_mb depends on
    // how set-ups and iterations happen to interleave there (33 to
    // 44 MiB across serve-clients runs).
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    Options options;
    if (!parseArgs(argc, argv, options)) {
        usage();
        return 2;
    }
    std::unique_ptr<Workload> workload = makeWorkload(options);
    if (!workload) {
        std::cerr << "e2ebench: unknown workload '" << options.workload
                  << "'\n";
        usage();
        return 2;
    }
    const std::string metadata = metadataJson(options);
    std::cout << "meta " << metadata << "\n";

    Tracer tracer(false);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    // Set-up runs once before the warm-up and again before every
    // measured iteration, so setup_s is a median over the whole run
    // rather than over a few seconds of host time. The next iteration
    // measures the state of the set-up before it.
    std::vector<double> setupSeconds;
    std::vector<std::map<std::string, double>> setupLayers;
    const auto setUp = [&] {
        if (!setupSeconds.empty()) {
            workload->teardown();
            // Hand the discarded set-up's memory back, so peak_rss_mb
            // sees one set-up's state, not a heap fragmented by many.
            malloc_trim(0);
        }
        const std::size_t mark = tracer.mark();
        const Clock::time_point start = Clock::now();
        std::map<std::string, double> counts = workload->setup(tracer);
        setupSeconds.push_back(secondsSince(start));
        if (tracer.enabled()) {
            std::map<std::string, double> layers = tracer.totalsSince(mark);
            layers.insert(counts.begin(), counts.end());
            setupLayers.push_back(std::move(layers));
        }
    };
    setUp();

    // One warm-up iteration: its digest is the run's reference.
    Iteration warm = workload->iterate(tracer);
    attempted += warm.jobs;
    failed += warm.failed;
    const std::string digest = warm.digest.hex();
    std::cout << "digest " << digest << "\n";

    std::vector<Iteration> untraced;
    std::vector<Iteration> traced;
    std::vector<std::map<std::string, double>> tracedLayers;
    const double untracedBudget =
        options.trace ? options.seconds / 2.0 : options.seconds;
    const Clock::time_point measureStart = Clock::now();
    while (untraced.size() < 3 ||
           secondsSince(measureStart) < untracedBudget) {
        setUp();
        const Clock::time_point start = Clock::now();
        Iteration it = workload->iterate(tracer);
        it.wallS = secondsSince(start);
        untraced.push_back(std::move(it));
    }
    if (options.trace) {
        tracer.setEnabled(true);
        while (traced.size() < 3 ||
               secondsSince(measureStart) < options.seconds) {
            setUp();
            const std::size_t mark = tracer.mark();
            const Clock::time_point start = Clock::now();
            Iteration it;
            {
                Tracer::Scope root(tracer, "bench.iteration");
                it = workload->iterate(tracer);
            }
            it.wallS = secondsSince(start);
            std::map<std::string, double> layers = tracer.totalsSince(mark);
            for (const auto &[key, value] : it.layer)
                layers[key] = value;
            traced.push_back(std::move(it));
            tracedLayers.push_back(std::move(layers));
        }
    }

    Check check;
    std::map<std::string, double> attributed;
    if (options.trace) {
        const std::size_t mark = tracer.mark();
        workload->attribute(tracer, check);
        attributed = tracer.totalsSince(mark);
    }
    tracer.setEnabled(false);

    // Output checks: every iteration reproduces the warm-up digest,
    // the default seed reproduces the recorded one, and a seeded
    // sample of jobs re-runs alone to the same counts.
    bool digestOk = true;
    for (const auto *phase : {&untraced, &traced}) {
        for (const Iteration &it : *phase) {
            attempted += it.jobs;
            failed += it.failed;
            if (it.digest.hex() != digest) {
                digestOk = false;
                ++failed;
            }
        }
    }
    if (options.seed == kDefaultSeed) {
        ++attempted;
        if (options.expectDigest.empty() || options.expectDigest != digest) {
            digestOk = false;
            ++failed;
            std::cout << "digest mismatch: recorded '"
                      << options.expectDigest << "', this run " << digest
                      << "\n";
        }
    }
    const Check sample = workload->verifySample(options.seed);
    attempted += sample.attempted + check.attempted;
    failed += sample.failed + check.failed;
    workload->teardown();

    std::vector<double> walls, rates, campaignRates;
    for (const Iteration &it : untraced) {
        walls.push_back(it.wallS);
        rates.push_back(static_cast<double>(it.records) / it.wallS);
        campaignRates.push_back(static_cast<double>(it.campaignMs.size()) /
                                it.wallS);
    }
    const double wallS = median(walls);
    const bool fixedCampaigns = workload->fixedCampaigns();
    const std::vector<double> campaignMs =
        latencies(untraced, &Iteration::campaignMs, fixedCampaigns);
    const std::vector<double> firstMs =
        latencies(untraced, &Iteration::firstResultMs, fixedCampaigns);

    std::map<std::string, double> values;
    if (!options.trace) {
        values["setup_s"] = median(setupSeconds);
        values["wall_s"] = wallS;
        values["sim_branches_per_s"] = median(rates);
        values["peak_rss_mb"] = peakRssMb();
        values["campaign_p50_ms"] = percentile(campaignMs, 50.0);
        values["campaign_p90_ms"] = percentile(campaignMs, 90.0);
        values["campaigns_per_s"] = median(campaignRates);
    } else {
        std::map<std::string, double> setupMedians = medians(setupLayers);
        std::map<std::string, double> layers = medians(tracedLayers);
        for (const std::string &key : kSetupMetrics)
            layers[key] = setupMedians[key];
        for (const std::string &key : kAttributedMetrics)
            layers[key] = attributed[key];
        if (layers["sim.banks"] > 0.0) {
            layers["sim.bank_lanes_mean"] =
                layers["sim.bank_lanes"] / layers["sim.banks"];
            layers["sim.ns_per_branch_step"] =
                layers["sim.bank_replay_ms"] * 1e6 /
                layers["sim.bank_lane_steps"];
        }
        // The campaign layer's own time inside Campaign::run; emission
        // has its own metric.
        layers["campaign.self_ms"] -= layers["campaign.emit_ms"];
        std::vector<double> tracedWalls, uncovered;
        for (std::size_t i = 0; i < traced.size(); ++i) {
            tracedWalls.push_back(traced[i].wallS);
            uncovered.push_back(tracedLayers[i]["bench.uncovered_ms"] /
                                (traced[i].wallS * 1e3));
        }
        layers["bench.uncovered_share"] = median(uncovered);
        layers["bench.tracing_overhead_s"] = median(tracedWalls) - wallS;
        for (const MetricDef &def : kPerLayer)
            values[def.name] = layers[def.name];

        const std::string path = options.workDir + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
        if (tracer.writeChromeTrace(path, metadata))
            std::cout << "chrome trace " << path << "\n";
    }

    const bool correct = failed == 0 && digestOk;
    const auto &defs = options.trace ? kPerLayer : kEndToEnd;
    std::cout << "iterations untraced=" << untraced.size()
              << " traced=" << traced.size()
              << " latency_samples=" << campaignMs.size()
              << (fixedCampaigns ? " (campaign medians)" : "")
              << " beyond_p90=" << campaignMs.size() / 10
              << " first_result_p50_ms=" << percentile(firstMs, 50.0)
              << " wall_q1=" << percentile(walls, 25.0)
              << " wall_q3=" << percentile(walls, 75.0)
              << " setups=" << setupSeconds.size()
              << " setup_q1=" << percentile(setupSeconds, 25.0)
              << " setup_q3=" << percentile(setupSeconds, 75.0)
              << " failed_ratio="
              << (attempted ? static_cast<double>(failed) / attempted : 0.0)
              << "\n";
    for (const MetricDef &def : defs)
        std::cout << "  " << def.name << " = " << number(values[def.name])
                  << " " << def.unit << "\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << defs[i].name
                  << "\": {\"value\": " << number(values[defs[i].name])
                  << ", \"unit\": \"" << defs[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
}
