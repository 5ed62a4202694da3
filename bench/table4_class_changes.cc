/**
 * @file
 * Reproduces Table 4 of the paper: the number of changes between
 * bias classes at the second-level counters, comparing the
 * history-indexed gshare with the bi-mode scheme on gcc.
 *
 * A "change" is a break in one class's run of accesses at a counter
 * (interference by the other classes). Expected shape: bi-mode shows
 * fewer changes — its ST and SNT substreams are less intermingled.
 */

#include <iostream>

#include "analysis/bias_analysis.hh"
#include "common/bench_common.hh"
#include "core/bimode.hh"
#include "predictors/gshare.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    ArgParser args("table4_class_changes",
                   "Reproduce Table 4: bias-class change counts for "
                   "the history-indexed and bi-mode schemes.");
    addCommonOptions(args);
    args.addOption("benchmark", "gcc", "benchmark to analyze");
    if (!args.parse(argc, argv))
        return 0;
    const std::uint64_t divisor = applyCommonOptions(args);

    auto spec = findBenchmark(args.get("benchmark"));
    if (!spec) {
        std::cerr << "unknown benchmark\n";
        return 1;
    }
    spec->dynamicBranches /= divisor;
    TraceCache cache(traceStoreDir(args));
    const MemoryTrace &trace = cache.traceFor(*spec);

    TextTable table;
    table.setColumns(
        {"scheme", "dominant", "non-dominant", "WB", "total"});

    // History-indexed gshare: 256 counters, 8 bits of history.
    {
        GsharePredictor predictor(8, 8);
        auto reader = trace.reader();
        BiasAnalysis analysis(predictor, reader, StepLog::Keep);
        analysis.run();
        const TransitionCounts counts = analysis.countTransitions();
        table.addRow({"history-indexed gshare (n=8,h=8)",
                      TextTable::grouped(counts.dominant),
                      TextTable::grouped(counts.nonDominant),
                      TextTable::grouped(counts.weak),
                      TextTable::grouped(counts.total())});
    }

    // Bi-mode: 128-counter choice + two 128-counter banks.
    {
        BiModeConfig cfg;
        cfg.directionIndexBits = 7;
        cfg.choiceIndexBits = 7;
        cfg.historyBits = 7;
        BiModePredictor predictor(cfg);
        auto reader = trace.reader();
        BiasAnalysis analysis(predictor, reader, StepLog::Keep);
        analysis.run();
        const TransitionCounts counts = analysis.countTransitions();
        table.addRow({"bi-mode (c=128, 2x128 direction)",
                      TextTable::grouped(counts.dominant),
                      TextTable::grouped(counts.nonDominant),
                      TextTable::grouped(counts.weak),
                      TextTable::grouped(counts.total())});
    }

    emitTable(args, table,
              "Table 4: bias-class changes (" + spec->name + ")");
    std::cout << "expected shape: fewer changes for bi-mode — its ST "
                 "and SNT classes are less intermingled.\n";
    return 0;
}
