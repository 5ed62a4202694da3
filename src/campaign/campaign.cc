#include "campaign/campaign.hh"

#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "campaign/scheduler.hh"
#include "core/factory.hh"
#include "sim/replay.hh"
#include "util/logging.hh"

namespace bpsim
{

namespace
{

/** 0 = follow the hardware; set from --jobs. */
std::atomic<unsigned> configured_workers{0};

} // namespace

void
setDefaultWorkerCount(unsigned n)
{
    configured_workers.store(n, std::memory_order_relaxed);
}

unsigned
defaultWorkerCount()
{
    const unsigned configured =
        configured_workers.load(std::memory_order_relaxed);
    if (configured != 0)
        return configured;
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

Job &
Campaign::addJob(Job job)
{
    job.index = jobList.size();
    jobList.push_back(std::move(job));
    return jobList.back();
}

Job &
Campaign::addJob(std::string configText, const BenchmarkTrace &benchmark,
                 const SimConfig &simConfig)
{
    Job job;
    job.configText = std::move(configText);
    job.benchmark = benchmark.name;
    job.trace = benchmark.trace;
    job.packed = benchmark.packed;
    job.simConfig = simConfig;
    return addJob(std::move(job));
}

void
Campaign::addGrid(const std::vector<std::string> &configs,
                  const std::vector<BenchmarkTrace> &benchmarks,
                  const SimConfig &simConfig)
{
    for (const std::string &config : configs)
        for (const BenchmarkTrace &benchmark : benchmarks)
            addJob(config, benchmark, simConfig);
}

std::vector<JobResult>
runJobs(const std::vector<const Job *> &jobs)
{
    std::vector<JobResult> results(jobs.size());
    std::vector<PredictorPtr> owned;
    std::vector<BranchPredictor *> lanes;
    std::vector<std::size_t> slots;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        const Job &job = *jobs[k];
        results[k].index = job.index;
        results[k].benchmark = job.benchmark;
        results[k].configText = job.configText;
        PredictorResult made =
            job.trace == nullptr
                ? PredictorResult{nullptr, "job has no trace bound"}
                : tryMakePredictor(job.configText);
        if (!made.ok()) {
            results[k].error = std::move(made.error);
            continue;
        }
        lanes.push_back(made.predictor.get());
        owned.push_back(std::move(made.predictor));
        slots.push_back(k);
    }
    if (lanes.empty())
        return results;

    // A batch shares one packed trace and SimConfig (the scheduler's
    // fusion key), so any built lane's job speaks for the bank.
    const Job &first = *jobs[slots.front()];
    std::vector<SimResult> sims;
    if (first.packed == nullptr ||
        !replayKernelBankAny(lanes, *first.packed, first.simConfig,
                             sims)) {
        // No fast core (btfn) or no packed trace: such jobs never
        // fuse, so this is a lone job on the virtual loop.
        for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
            const Job &job = *jobs[slots[lane]];
            auto reader = job.trace->reader();
            sims.push_back(simulate(*lanes[lane], reader, job.simConfig));
        }
    }
    for (std::size_t lane = 0; lane < sims.size(); ++lane) {
        JobResult &result = results[slots[lane]];
        result.result = std::move(sims[lane]);
        result.result.benchmark = result.benchmark;
        result.result.configText = result.configText;
    }
    return results;
}

JobResult
runJob(const Job &job)
{
    return std::move(runJobs({&job}).front());
}

std::vector<JobResult>
Campaign::run(unsigned workers, const ProgressFn &progress) const
{
    std::vector<JobResult> results(jobList.size());
    if (jobList.empty())
        return results;

    if (workers == 0)
        workers = defaultWorkerCount();
    if (jobList.size() < workers)
        workers = static_cast<unsigned>(jobList.size());

    // The blocking API is a wrapper over the incremental scheduler:
    // submit everything into a paused queue first, so the fusion
    // sweep sees the whole grid (the same banks the historical
    // up-front grouping planned), then release the pool and drain.
    CampaignScheduler::Options options;
    options.workers = workers;
    options.fuse = fuseJobs;
    options.paused = true;
    CampaignScheduler scheduler(options);

    std::size_t completed = 0;
    bool progress_disabled = false;
    // The scheduler serializes completion callbacks, so the shared
    // captures need no extra locking; drain() below orders every
    // callback's writes before the return.
    const auto on_done = [&](CampaignScheduler::Ticket,
                             JobResult result) {
        // Results land in their job's slot, so the returned ordering
        // never depends on the thread schedule (or on how jobs were
        // batched).
        const std::size_t i = result.index;
        results[i] = std::move(result);
        ++completed;
        // An exception escaping into a worker thread would
        // std::terminate the process; a broken progress hook must
        // not take the campaign down, so swallow and disable it.
        if (progress && !progress_disabled) {
            try {
                progress({completed, jobList.size(), &results[i]});
            } catch (const std::exception &e) {
                progress_disabled = true;
                BPSIM_WARN("campaign progress callback threw ("
                           << e.what()
                           << "); progress reporting disabled");
            } catch (...) {
                progress_disabled = true;
                BPSIM_WARN("campaign progress callback threw; "
                           << "progress reporting disabled");
            }
        }
    };

    for (const Job &job : jobList)
        scheduler.submit(job, on_done);
    scheduler.drain();
    return results;
}

std::vector<BenchmarkTrace>
resolveTraces(TraceCache &cache, const std::vector<WorkloadSpec> &specs)
{
    std::vector<BenchmarkTrace> benchmarks;
    benchmarks.reserve(specs.size());
    for (const WorkloadSpec &spec : specs) {
        // Pack once per benchmark (serially, like trace generation);
        // every job on the benchmark then shares both forms through
        // owning handles, so the jobs stay valid even if they outlive
        // this cache.
        benchmarks.push_back({spec.name, cache.handleFor(spec),
                              cache.packedHandleFor(spec)});
    }
    return benchmarks;
}

} // namespace bpsim
