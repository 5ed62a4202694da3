#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "campaign/emitters.hh"
#include "core/factory.hh"
#include "util/logging.hh"
#include "workload/benchmarks.hh"

namespace e2e
{

using namespace bpsim;

void
Digest::add(const std::string &line)
{
    for (const char c : line) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    hash ^= '\n';
    hash *= 0x100000001b3ull;
}

void
Digest::addJob(const std::string &benchmark, const std::string &config,
               std::uint64_t branches, std::uint64_t mispredictions)
{
    add(benchmark + "|" + config + "|" + std::to_string(branches) + "|" +
        std::to_string(mispredictions));
}

std::string
Digest::hex() const
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

WorkloadSpec
seededSpec(WorkloadSpec spec, std::uint64_t seed)
{
    spec.seed = mix64(spec.seed ^ mix64(seed));
    return spec;
}

WorkloadSpec
benchmarkSpec(const std::string &name, std::uint64_t seed,
              std::uint64_t divisor)
{
    auto spec = findBenchmark(name);
    if (!spec)
        BPSIM_FATAL("unknown benchmark '" << name << "'");
    return seededSpec(scaledBenchmark(std::move(*spec), divisor), seed);
}

std::vector<JobResult>
runCampaign(Tracer &tracer, const Campaign &campaign, const std::string &id,
            Iteration &iteration)
{
    Tracer::Scope span(tracer, "campaign.run", id);
    const int parent = span.id();
    const Clock::time_point start = Clock::now();
    Clock::time_point firstAt = start;
    bool first = true;
    // Lanes of the current bank still to report, per bank key; the
    // first lane result of a bank turns the whole pass into a span.
    std::map<std::string, std::uint32_t> lanesLeft;

    const ProgressFn progress = [&](const CampaignProgress &p) {
        const Clock::time_point now = Clock::now();
        if (first) {
            first = false;
            firstAt = now;
        }
        const JobResult &job = *p.latest;
        if (!tracer.enabled() || !job.ok())
            return;
        const SimResult &r = job.result;
        const std::string kind = fastReplayKind(job.configText);
        if (r.fusedLanes > 0) {
            std::uint32_t &left = lanesLeft[job.benchmark + "|" + kind + "|" +
                                            std::to_string(r.fusedLanes)];
            if (left == 0) {
                const auto pass = std::chrono::nanoseconds(
                    r.wallNanos * r.fusedLanes);
                tracer.addSpan("sim.bank_replay", id, now - pass, now,
                               parent);
                left = r.fusedLanes;
            }
            --left;
            return;
        }
        tracer.addSpan(kind.empty() ? "sim.virtual_replay"
                                    : "sim.solo_replay",
                       id, now - std::chrono::nanoseconds(r.wallNanos),
                       now, parent);
    };
    std::vector<JobResult> results = campaign.run(kWorkers, progress);
    const Clock::time_point end = Clock::now();

    iteration.campaignMs.push_back(
        static_cast<double>(nanosBetween(start, end)) * 1e-6);
    iteration.firstResultMs.push_back(
        static_cast<double>(nanosBetween(start, firstAt)) * 1e-6);
    double banks = 0.0;
    double bankLanes = 0.0;
    double laneSteps = 0.0;
    for (const JobResult &job : results) {
        ++iteration.jobs;
        if (!job.ok()) {
            ++iteration.failed;
            iteration.digest.add("error|" + job.benchmark + "|" +
                                 job.configText);
            continue;
        }
        const SimResult &r = job.result;
        iteration.records += r.branches;
        iteration.digest.addJob(job.benchmark, job.configText, r.branches,
                                r.mispredictions);
        if (r.fusedLanes > 0) {
            banks += 1.0 / r.fusedLanes;
            bankLanes += 1.0;
            laneSteps += static_cast<double>(r.branches);
        }
    }
    iteration.layer["sim.banks"] += banks;
    iteration.layer["sim.bank_lanes"] += bankLanes;
    iteration.layer["sim.bank_lane_steps"] += laneSteps;
    return results;
}

void
emitResults(Tracer &tracer, const std::vector<JobResult> &results,
            const std::string &id, Iteration &iteration)
{
    Tracer::Scope span(tracer, "campaign.emit", id);
    std::ostringstream os;
    writeResultsJson(os, results);
    iteration.layer["campaign.emit_bytes"] +=
        static_cast<double>(os.str().size());
}

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        pct / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace e2e
