/**
 * @file
 * Reproduces Table 3 of the paper: the worked example of normalized
 * counts N_bc at a prediction counter, first with the paper's exact
 * four streams, then live — the busiest mixed-class counter found in
 * an actual gshare run on gcc.
 */

#include <algorithm>
#include <iostream>

#include "analysis/bias_analysis.hh"
#include "common/bench_common.hh"
#include "predictors/gshare.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace
{

void
emitStreams(const ArgParser &args,
            const std::vector<const StreamStats *> &streams,
            std::uint64_t counterTotal, const std::string &title)
{
    TextTable table;
    table.setColumns({"branch pc", "count to counter", "taken count",
                      "bias class", "normalized count %"});
    for (const StreamStats *stream : streams) {
        table.addRow({
            "0x" + [&] {
                char buffer[32];
                std::snprintf(buffer, sizeof(buffer), "%llx",
                              static_cast<unsigned long long>(stream->pc));
                return std::string(buffer);
            }(),
            TextTable::grouped(stream->count),
            TextTable::grouped(stream->takenCount),
            biasClassName(stream->biasClass()),
            TextTable::fixed(100.0 * static_cast<double>(stream->count) /
                                 static_cast<double>(counterTotal),
                             1),
        });
    }
    emitTable(args, table, title);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("table3_normalized_counts",
                   "Reproduce Table 3: normalized counts at a "
                   "prediction counter.");
    addCommonOptions(args);
    if (!args.parse(argc, argv))
        return 0;
    const std::uint64_t divisor = applyCommonOptions(args);

    // Part 1: the paper's exact example — four streams on counter c.
    {
        StreamTracker tracker;
        auto feed = [&](std::uint64_t pc, int total, int taken) {
            for (int i = 0; i < total; ++i)
                tracker.observe(pc, 0, i < taken, false);
        };
        feed(0x001, 12, 11);
        feed(0x005, 20, 1);
        feed(0x100, 8, 3);
        feed(0x150, 10, 1);
        emitStreams(args, tracker.streamsOfCounter(0), 50,
                    "Table 3 (paper example): four streams at one "
                    "counter");
        std::cout << "expected: ST 24%, SNT 40%+20% = 60% (dominant), "
                     "WB 16%\n";
    }

    // Part 2: the same decomposition live from a gcc run.
    auto spec = findBenchmark("gcc");
    spec->dynamicBranches /= divisor;
    TraceCache cache(traceStoreDir(args));
    const MemoryTrace &trace = cache.traceFor(*spec);
    GsharePredictor predictor(8, 8);
    auto reader = trace.reader();
    BiasAnalysis analysis(predictor, reader);
    analysis.run();

    // Find the busiest counter whose dominant class does not own the
    // whole traffic (a genuinely mixed counter).
    const CounterProfile profile = analysis.counterProfile();
    const CounterBias *chosen = nullptr;
    for (const CounterBias &c : profile.counters) {
        if (c.nonDominantShare() > 0.1 && c.wbShare() > 0.05 &&
            (!chosen || c.total > chosen->total)) {
            chosen = &c;
        }
    }
    if (chosen) {
        auto streams = analysis.streams().streamsOfCounter(
            chosen->counterId);
        std::sort(streams.begin(), streams.end(),
                  [](const StreamStats *a, const StreamStats *b) {
                      if (a->count != b->count)
                          return a->count > b->count;
                      return a->pc < b->pc;
                  });
        if (streams.size() > 12)
            streams.resize(12);
        emitStreams(args, streams, chosen->total,
                    "Table 3 (live): busiest mixed counter in a "
                    "256-counter gshare on gcc (counter " +
                        std::to_string(chosen->counterId) + ", " +
                        std::to_string(chosen->total) +
                        " accesses; top streams)");
    } else {
        std::cout << "no mixed counter found (unexpected)\n";
    }
    return 0;
}
