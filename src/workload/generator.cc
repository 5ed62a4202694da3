#include "workload/generator.hh"

#include <numeric>

#include "util/logging.hh"
#include "workload/program_builder.hh"

namespace bpsim
{

namespace
{

/** Offset mixed into the spec seed for the execution RNG stream so
 *  construction and execution draw from independent streams. */
constexpr std::uint64_t kExecutionSeedSalt = 0x9d2c'5680'1ce4'e5b9ULL;

/**
 * Probability of re-dispatching through the Zipf sampler instead of
 * following the current routine's Markov successors. Kept small:
 * control-flow paths in real programs are highly repetitive, and the
 * repetitiveness is precisely what lets history-indexed predictors
 * converge — every re-dispatch gives the next routine's branches a
 * history window they have rarely seen before.
 */
constexpr double kRedispatchProbability = 0.06;

} // namespace

TraceGenerator::TraceGenerator(Program &program, const WorkloadSpec &spec)
    : program(program), spec(spec),
      rng(spec.seed ^ kExecutionSeedSalt),
      routineSampler(std::max<std::size_t>(program.routineCount(), 1),
                     spec.zipfExponent, spec.zipfOffset)
{
    if (program.routineCount() == 0)
        BPSIM_FATAL("cannot generate a trace from an empty program");

    // Map Zipf ranks onto routines in a shuffled order so the hot
    // routines are scattered across the code region.
    routineOrder.resize(program.routineCount());
    std::iota(routineOrder.begin(), routineOrder.end(), std::size_t{0});
    Rng setup_rng(spec.seed ^ 0x5851'f42d'4c95'7f2dULL);
    for (std::size_t i = routineOrder.size(); i > 1; --i) {
        const std::size_t j =
            static_cast<std::size_t>(setup_rng.nextBounded(i));
        std::swap(routineOrder[i - 1], routineOrder[j]);
    }

    // Markov successors: drawn through the Zipf sampler so hot
    // routines stay hot under chained control flow as well.
    successors.resize(program.routineCount());
    for (auto &list : successors) {
        for (auto &succ : list)
            succ = routineOrder[routineSampler.sample(setup_rng)];
    }
}

void
TraceGenerator::restart()
{
    program.resetState();
    globalHistory = 0;
    rng = Rng(spec.seed ^ kExecutionSeedSalt);
}

std::size_t
TraceGenerator::pickNextRoutine(std::size_t current)
{
    // Rare uniform escape: cold paths do run occasionally (signal
    // handlers, error paths, phase changes), which also keeps the
    // executed-site population close to the configured Table 2
    // static count.
    if (rng.nextBool(0.005))
        return static_cast<std::size_t>(
            rng.nextBounded(program.routineCount()));
    if (rng.nextBool(kRedispatchProbability))
        return routineOrder[routineSampler.sample(rng)];
    const auto &list = successors[current];
    // Weighted toward the first successor (callers repeat their
    // dominant call sequence most of the time).
    const double point = rng.nextDouble();
    if (point < 0.72)
        return list[0];
    if (point < 0.92)
        return list[1];
    return list[2];
}

void
TraceGenerator::walkRoutine(std::size_t routineIndex, std::uint64_t count,
                            std::uint64_t &emitted, TraceWriter &sink)
{
    Routine &routine = program.routine(routineIndex);
    BranchRecord record;

    std::size_t i = 0;
    while (i < routine.sites.size() && emitted < count) {
        BranchSite &site = routine.sites[i];
        bool outcome;
        do {
            BehaviorContext ctx;
            ctx.rng = &rng;
            ctx.globalHistory = globalHistory;
            ctx.localHistory = site.localHistory;
            outcome = site.behavior->nextOutcome(ctx);

            record.pc = site.pc;
            record.target = site.takenTarget;
            record.type = BranchType::Conditional;
            record.taken = outcome;
            sink.append(record);

            globalHistory = (globalHistory << 1) | (outcome ? 1 : 0);
            site.localHistory =
                (site.localHistory << 1) | (outcome ? 1 : 0);
            ++emitted;
            // A loop site repeats while its back edge is taken.
        } while (site.isLoop && outcome && emitted < count);

        if (!site.isLoop && outcome && site.skipOnTaken > 0)
            i += 1 + site.skipOnTaken;
        else
            i += 1;
    }
}

void
TraceGenerator::generate(std::uint64_t count, TraceWriter &sink)
{
    std::uint64_t emitted = 0;

    // Cold sweep: run every routine once up front, the way program
    // initialization touches code that the steady state rarely
    // revisits. This pins the executed static-branch population to
    // the configured Table 2 count (modulo skipped diamond arms).
    std::vector<std::size_t> sweep_order(program.routineCount());
    std::iota(sweep_order.begin(), sweep_order.end(), std::size_t{0});
    for (std::size_t i = sweep_order.size(); i > 1; --i)
        std::swap(sweep_order[i - 1],
                  sweep_order[static_cast<std::size_t>(rng.nextBounded(i))]);
    std::size_t sweep_position = 0;

    std::size_t current = routineOrder[routineSampler.sample(rng)];
    while (emitted < count) {
        if (sweep_position < sweep_order.size() &&
            program.siteCount() * 2 < count) {
            current = sweep_order[sweep_position++];
        }
        walkRoutine(current, count, emitted, sink);
        current = pickNextRoutine(current);
    }
}

MemoryTrace
generateWorkloadTrace(const WorkloadSpec &spec)
{
    Program program = buildProgram(spec);
    TraceGenerator generator(program, spec);
    MemoryTrace trace;
    trace.reserve(spec.dynamicBranches);
    generator.generate(spec.dynamicBranches, trace);
    return trace;
}

} // namespace bpsim
