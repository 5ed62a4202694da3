#include "analysis/bias_analysis.hh"

#include "util/logging.hh"

namespace bpsim
{

BiasAnalysis::BiasAnalysis(BranchPredictor &predictor, TraceReader &trace,
                           StepLog steps, double threshold)
    : predictor(predictor), trace(trace), threshold(threshold),
      tracker(steps)
{
    if (predictor.directionCounters() == 0)
        BPSIM_FATAL("bias analysis requires a predictor that exposes "
                    "direction counters ("
                    << predictor.name() << " exposes none)");
}

void
BiasAnalysis::run()
{
    if (ran)
        return;

    predictor.reset();
    trace.rewind();
    simResult = SimResult{};
    simResult.predictorName = predictor.name();
    simResult.counterBits = predictor.counterBits();
    simResult.storageBits = predictor.storageBits();

    BranchRecord record;
    while (trace.next(record)) {
        if (!record.isConditional())
            continue;
        const PredictionDetail detail = predictor.predictDetailed(record.pc);
        const bool mispredicted = detail.taken != record.taken;
        ++simResult.branches;
        if (record.taken)
            ++simResult.takenBranches;
        if (mispredicted)
            ++simResult.mispredictions;
        if (detail.usesCounter)
            tracker.observe(record.pc, detail.counterId, record.taken,
                            mispredicted);
        predictor.observeTarget(record.pc, record.target);
        predictor.update(record.pc, record.taken);
    }
    ran = true;
}

void
BiasAnalysis::ensureRan() const
{
    if (!ran)
        BPSIM_PANIC("BiasAnalysis accessed before run()");
}

CounterProfile
BiasAnalysis::counterProfile() const
{
    ensureRan();
    return buildCounterProfile(tracker, predictor.directionCounters(),
                               threshold);
}

MispredictionBreakdown
BiasAnalysis::breakdown() const
{
    ensureRan();
    MispredictionBreakdown breakdown;
    if (simResult.branches == 0)
        return breakdown;
    std::uint64_t st = 0, snt = 0, wb = 0;
    for (const StreamStats &stream : tracker.streams()) {
        switch (stream.biasClass(threshold)) {
          case BiasClass::StronglyTaken:
            st += stream.mispredictions;
            break;
          case BiasClass::StronglyNotTaken:
            snt += stream.mispredictions;
            break;
          case BiasClass::WeaklyBiased:
            wb += stream.mispredictions;
            break;
        }
    }
    const double total = static_cast<double>(simResult.branches);
    breakdown.stPercent = 100.0 * static_cast<double>(st) / total;
    breakdown.sntPercent = 100.0 * static_cast<double>(snt) / total;
    breakdown.wbPercent = 100.0 * static_cast<double>(wb) / total;
    return breakdown;
}

TransitionCounts
BiasAnalysis::countTransitions() const
{
    ensureRan();
    const std::vector<StreamStep> &steps = tracker.steps();

    // The role of a class at a counter depends on the counter's
    // dominant class: tally each counter's strongly-biased traffic,
    // then fix every stream's role once.
    const std::vector<StreamStats> &streams = tracker.streams();
    const auto num_counters =
        static_cast<std::size_t>(predictor.directionCounters());
    std::vector<std::uint64_t> st(num_counters, 0), snt(num_counters, 0);
    for (const StreamStats &stream : streams) {
        const auto c = static_cast<std::size_t>(stream.counterId);
        switch (stream.biasClass(threshold)) {
          case BiasClass::StronglyTaken:
            st[c] += stream.count;
            break;
          case BiasClass::StronglyNotTaken:
            snt[c] += stream.count;
            break;
          case BiasClass::WeaklyBiased:
            break;
        }
    }

    enum class Role : std::uint8_t { Dominant, NonDominant, Weak, None };
    std::vector<Role> role(streams.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const BiasClass cls = streams[i].biasClass(threshold);
        const auto c = static_cast<std::size_t>(streams[i].counterId);
        const BiasClass dominant = snt[c] > st[c]
                                       ? BiasClass::StronglyNotTaken
                                       : BiasClass::StronglyTaken;
        role[i] = cls == BiasClass::WeaklyBiased ? Role::Weak
                  : cls == dominant              ? Role::Dominant
                                                 : Role::NonDominant;
    }

    // Walk the recorded steps: a run of one role at a counter ends
    // whenever the counter next serves a stream of another role.
    std::vector<Role> last(num_counters, Role::None);
    TransitionCounts counts;
    for (const StreamStep step : steps) {
        const Role now = role[step.stream()];
        Role &prev = last[static_cast<std::size_t>(
            streams[step.stream()].counterId)];
        if (prev != Role::None && prev != now) {
            switch (prev) {
              case Role::Dominant: ++counts.dominant; break;
              case Role::NonDominant: ++counts.nonDominant; break;
              case Role::Weak: ++counts.weak; break;
              case Role::None: break;
            }
        }
        prev = now;
    }
    return counts;
}

} // namespace bpsim
