/**
 * @file
 * The experiment campaign engine.
 *
 * The paper's evaluation — and every figure binary in bench/ — is a
 * grid of independent measurements: predictor configurations ×
 * benchmarks (× size rungs). A Campaign owns that shape once:
 *
 *   1. declare the grid (addGrid()/addJob()); each cell is a Job —
 *      one factory configuration string run over one shared,
 *      immutable, pre-generated MemoryTrace;
 *   2. run() executes the work on a pool of worker threads
 *      (generate once, simulate many: traces are read-only in
 *      simulate(), predictors are constructed per job);
 *   3. results come back as one JobResult per job, *in job order*,
 *      regardless of the thread schedule — runs with different
 *      `--jobs` values are bit-identical.
 *
 * The worker-pool work unit is a *benchmark group*, not a job: jobs
 * that replay the same PackedTrace with the same fast-replay kind
 * (core/factory.hh, fastReplayKind()) and compatible SimConfig are
 * fused into one banked kernel pass (sim/replay.hh,
 * replayKernelBankAny()) that streams the trace once for the whole
 * group. A fig2-style size ladder or gshare.best sweep therefore
 * touches each benchmark's trace once instead of once per rung.
 * Per-branch tracking fuses too (the bank runs with a per-lane
 * probe, sim/probe.hh), though only with jobs that also track — the
 * tracking flag is part of the fusion key. Everything else — a
 * lone job, `btfn`, jobs without a packed trace, malformed configs —
 * runs as a one-job batch through the same runner (runJobs()).
 * Fusion changes wall time only: per-job counts, errors and emitted
 * JSON are bit-identical to an unfused run (enforced by
 * tests/sim/test_replay_bank.cc), and setFusion(false) runs every
 * job alone, e.g. to time configurations in isolation.
 *
 * Configuration errors do not kill a campaign: a job whose config
 * string is rejected by tryMakePredictor() completes with
 * JobResult::error set and every other job still runs.
 *
 * run() is a thin blocking wrapper over the incremental
 * CampaignScheduler (campaign/scheduler.hh), which is the primitive
 * long-running callers (the campaign service daemon, src/serve/)
 * build on: submit jobs over time, get per-ticket completion
 * callbacks, drain. The wrapper submits every declared job to a
 * private paused scheduler, resumes it, and drains — bit-identical
 * to the historical in-place pool at any worker count.
 *
 * Emitters for the result list (JSON array, text table) live in
 * campaign/emitters.hh.
 */

#ifndef BPSIM_CAMPAIGN_CAMPAIGN_HH
#define BPSIM_CAMPAIGN_CAMPAIGN_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/trace_cache.hh"
#include "trace/memory_trace.hh"
#include "trace/trace_handle.hh"
#include "workload/workload_spec.hh"

namespace bpsim
{

/** A benchmark identity paired with its generated trace. */
struct BenchmarkTrace
{
    std::string name;
    /** Trace to replay. Handles constructed from a raw pointer are
     *  borrows (the pointee must outlive every run that uses it);
     *  handles from TraceCache::handleFor()/resolveTraces() share
     *  ownership and make any job lifetime safe. */
    TraceHandle trace = nullptr;
    /** Packed form of the same trace for the devirtualized replay
     *  kernel; null disables the fast path for jobs on this
     *  benchmark. Ownership semantics as @ref trace. */
    PackedTraceHandle packed = nullptr;
};

/** One independent unit of campaign work. */
struct Job
{
    /** Slot in the deterministic result ordering; assigned by
     *  Campaign::addJob() (schedulers key progress on it too). */
    std::size_t index = 0;
    /** Predictor configuration in the factory grammar. */
    std::string configText;
    /** Benchmark name, for reporting. */
    std::string benchmark;
    /** Shared immutable trace to replay (borrowed or owning; see
     *  BenchmarkTrace::trace). */
    TraceHandle trace = nullptr;
    /** Packed trace for the replay kernel; may be null (the job
     *  then always uses the virtual simulate() loop). */
    PackedTraceHandle packed = nullptr;
    /** Per-job simulation options (warm-up, per-branch tracking). */
    SimConfig simConfig;
};

/** Outcome of one job: a SimResult, or a per-job error. */
struct JobResult
{
    std::size_t index = 0;
    std::string benchmark;
    std::string configText;
    /** Empty on success; the config/setup error otherwise. */
    std::string error;
    /** Valid only when ok(). */
    SimResult result;

    bool ok() const { return error.empty(); }
};

/** Snapshot passed to a campaign's progress callback. */
struct CampaignProgress
{
    std::size_t completed = 0;
    std::size_t total = 0;
    /** The result that just finished (owned by the run). */
    const JobResult *latest = nullptr;
};

/**
 * Progress hook; invoked after each job completes, serialized under
 * the campaign's internal lock (callbacks never race each other).
 */
using ProgressFn = std::function<void(const CampaignProgress &)>;

/**
 * Sets the process-wide default worker count used when run() is
 * called with workers == 0. Wired to the bench binaries' `--jobs`
 * flag; 0 means "one worker per hardware thread".
 *
 * Legacy knob: only the blocking Campaign::run(0) compatibility
 * wrapper consults it. New code should pass the worker count
 * explicitly — CampaignScheduler::Options::workers is per-scheduler
 * state, never global (util/args CommonOptions carries the parsed
 * `--jobs` value for exactly that hand-off).
 */
void setDefaultWorkerCount(unsigned n);

/** The resolved default worker count (always >= 1). */
unsigned defaultWorkerCount();

/** A declarative batch of predictor-on-trace simulations. */
class Campaign
{
  public:
    /** Appends one job; its index is assigned here. */
    Job &addJob(Job job);

    /** Convenience: appends one config × benchmark cell. */
    Job &addJob(std::string configText, const BenchmarkTrace &benchmark,
                const SimConfig &simConfig = {});

    /**
     * Expands a grid in config-major order: for each config, one job
     * per benchmark. Callers relying on result positions (sweeps,
     * per-budget tables) index results as
     * `configIndex * benchmarks.size() + benchmarkIndex`.
     */
    void addGrid(const std::vector<std::string> &configs,
                 const std::vector<BenchmarkTrace> &benchmarks,
                 const SimConfig &simConfig = {});

    const std::vector<Job> &jobs() const { return jobList; }
    std::size_t jobCount() const { return jobList.size(); }

    /**
     * Enables or disables benchmark-group fusion (on by default).
     * Results are bit-identical either way; disabling trades the
     * single-pass wall-time win for per-job timing isolation
     * (SimResult::fusedLanes == 0 on every result).
     */
    void setFusion(bool enabled) { fuseJobs = enabled; }
    bool fusionEnabled() const { return fuseJobs; }

    /**
     * Executes every job and returns results indexed by job order.
     *
     * @param workers thread count; 0 uses defaultWorkerCount(), 1
     *                runs inline on the calling thread. The result
     *                list is identical for every value.
     * @param progress optional per-job completion hook
     */
    std::vector<JobResult> run(unsigned workers = 0,
                               const ProgressFn &progress = {}) const;

  private:
    std::vector<Job> jobList;
    bool fuseJobs = true;
};

/**
 * Runs a batch of jobs synchronously as one bank — the scheduler's
 * worker-loop body. Builds every job's predictor, landing each
 * construction error in its own slot, then replays the built
 * predictors in one pass (sim/replay.hh, replayKernelBankAny()).
 * A batch of two or more must share one packed trace, fast-replay
 * kind and SimConfig (the scheduler's fusion key). Results come back
 * in @p jobs order.
 */
std::vector<JobResult> runJobs(const std::vector<const Job *> &jobs);

/** Runs one job synchronously: a one-job runJobs(). */
JobResult runJob(const Job &job);

/**
 * Generates (serially, through @p cache) the traces of @p specs and
 * pairs each with its benchmark name. Campaigns share the resulting
 * traces across all jobs; the cache must outlive the run.
 */
std::vector<BenchmarkTrace>
resolveTraces(TraceCache &cache, const std::vector<WorkloadSpec> &specs);

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_CAMPAIGN_HH
