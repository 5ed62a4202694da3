/**
 * @file
 * The incremental campaign scheduler: an open-ended job source over
 * a persistent worker pool.
 *
 * Campaign::run() serves the declarative, run-to-completion shape —
 * declare a grid, block, get a vector. A long-running service cannot
 * use that API: jobs arrive from many clients over time, results
 * must stream back as they complete, and the worker pool and trace
 * pool must be shared across all of them. CampaignScheduler is that
 * execution engine, split out from the declarative Campaign:
 *
 *   - submit(Job, CompletionFn) -> Ticket admits one job and returns
 *     immediately; the completion callback fires (on a worker
 *     thread) when the job finishes. trySubmit() refuses instead of
 *     blocking when the pending queue is at Options::maxPending —
 *     the admission-control primitive the service daemon's
 *     backpressure is built on. trySubmitAll() admits a whole
 *     campaign atomically (all or nothing), so one client's grid is
 *     never half-accepted.
 *
 *   - Fusion happens at dispatch time, across submitters: when a
 *     worker goes idle it takes the oldest pending job and sweeps
 *     the rest of the queue for jobs with the same fusion key
 *     (packed trace × fast-replay kind × warm-up × kernel tier ×
 *     per-branch tracking), banking up to
 *     kMaxBankLanes of them into one single-pass kernel sweep
 *     (sim/replay.hh). Two clients sweeping the same benchmark
 *     therefore share one trace pass without either knowing the
 *     other exists. Fusion never changes results, only wall time.
 *
 *   - Completion callbacks are serialized (never concurrent with
 *     each other) and exception-isolated: a throwing callback fails
 *     only its own ticket — the worker pool, the other tickets, and
 *     every other client's stream keep going (the throw is counted
 *     in Stats::callbackExceptions and logged).
 *
 *   - cancel(ticket) removes a not-yet-dispatched job (its callback
 *     then never runs) — how the service discards work for a client
 *     that disconnected mid-campaign. drain() blocks until every
 *     accepted job has completed; shutdown() additionally stops
 *     admission and joins the pool (the destructor calls it).
 *
 * Worker count is per-scheduler state (Options::workers), not the
 * process-wide setDefaultWorkerCount() global — two schedulers in
 * one process size their pools independently.
 */

#ifndef BPSIM_CAMPAIGN_SCHEDULER_HH
#define BPSIM_CAMPAIGN_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"

namespace bpsim
{

/** Incremental executor of campaign jobs on a persistent pool. */
class CampaignScheduler
{
  public:
    /** Identifies one accepted job; strictly increasing from 1. */
    using Ticket = std::uint64_t;

    /**
     * Per-job completion hook. Runs on a worker thread, serialized
     * against every other completion callback of this scheduler.
     * The result is passed by value (moved in) so receivers can keep
     * it without copying. Exceptions are swallowed (counted and
     * logged): they fail only this ticket's delivery, never the
     * pool.
     */
    using CompletionFn = std::function<void(Ticket, JobResult)>;

    struct Options
    {
        /** Worker threads; 0 = one per hardware thread. Explicit
         *  per-scheduler state (the setDefaultWorkerCount() global
         *  is only consulted by the legacy Campaign::run(0)). */
        unsigned workers = 0;
        /** Fuse compatible pending jobs into banked sweeps at
         *  dispatch time (results are bit-identical either way). */
        bool fuse = true;
        /** Admission-control bound on the pending (undispatched)
         *  queue; 0 = unbounded. trySubmit() fails and submit()
         *  blocks when the queue is full. */
        std::size_t maxPending = 0;
        /** Start with dispatch paused; submit() still admits jobs.
         *  resume() opens the floodgates — used by Campaign::run()
         *  so its whole grid is visible to the fusion sweep. */
        bool paused = false;
    };

    /** Monotonic counters; a consistent snapshot under the lock. */
    struct Stats
    {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t cancelled = 0;
        /** Completion callbacks that threw (their tickets only). */
        std::uint64_t callbackExceptions = 0;
        /** Fused banks dispatched (of any width >= 2). */
        std::uint64_t fusedBanks = 0;
        /** Jobs currently queued, not yet dispatched. */
        std::size_t pending = 0;
        /** Jobs currently executing on workers. */
        std::size_t inFlight = 0;
    };

    /** Default options: hardware-sized pool, fusion on, unbounded. */
    CampaignScheduler();
    explicit CampaignScheduler(Options options);

    /** Shuts down: stops admission, drains, joins the pool. */
    ~CampaignScheduler();

    CampaignScheduler(const CampaignScheduler &) = delete;
    CampaignScheduler &operator=(const CampaignScheduler &) = delete;

    /**
     * Admits one job, blocking while the pending queue is full.
     * Returns std::nullopt only when the scheduler is shutting
     * down. @p done may be empty (fire-and-forget).
     */
    std::optional<Ticket> submit(Job job, CompletionFn done);

    /** Non-blocking admission: std::nullopt when the queue is full
     *  or the scheduler is shutting down. */
    std::optional<Ticket> trySubmit(Job job, CompletionFn done);

    /**
     * Atomically admits every job or none (std::nullopt when the
     * batch would overflow maxPending or the scheduler is shutting
     * down). @p done fires once per job. Tickets are returned in
     * job order.
     */
    std::optional<std::vector<Ticket>>
    trySubmitAll(std::vector<Job> jobs, CompletionFn done);

    /**
     * Removes a not-yet-dispatched job; its completion callback will
     * never run. Returns false when the ticket is unknown, already
     * dispatched, or already completed.
     */
    bool cancel(Ticket ticket);

    /** Holds back dispatch; pending jobs stay queued. */
    void pause();

    /** Releases dispatch (also implied by drain()). */
    void resume();

    /**
     * Blocks until every accepted job has completed (or been
     * cancelled) and its callback returned. Resumes a paused
     * scheduler first — draining a paused queue would never finish.
     * New jobs may be submitted while drain() waits; it returns
     * once the queue is empty *at some instant*, i.e. when all work
     * accepted before that instant has finished.
     */
    void drain();

    /**
     * Stops admission (submit calls return std::nullopt from now
     * on), drains remaining work, and joins the worker threads.
     * Idempotent; called by the destructor.
     */
    void shutdown();

    Stats stats() const;

    /** Pending (undispatched) job count — the backpressure signal. */
    std::size_t pendingJobs() const;

    /** The pool size this scheduler resolved at construction. */
    unsigned workerCount() const { return resolvedWorkers; }

  private:
    /** One queued unit: the job plus its delivery state. */
    struct Pending
    {
        Ticket ticket = 0;
        Job job;
        /** Fast-replay kind when the job is fusable; empty runs
         *  the job alone. Computed once at admission. */
        std::string fuseKind;
        CompletionFn done;
    };

    void workerLoop();
    /** Pops the next dispatch batch; empty when stopping. Called
     *  and returns with @ref mu held. */
    std::vector<Pending> takeBatch(std::unique_lock<std::mutex> &lock);
    void deliver(const Pending &pending, JobResult result);
    std::optional<Ticket> admit(Job &&job, CompletionFn &&done,
                                bool blocking);

    const Options opts;
    unsigned resolvedWorkers = 1;

    mutable std::mutex mu;
    std::condition_variable workCv;   ///< queue non-empty / stop
    std::condition_variable spaceCv;  ///< queue has room again
    std::condition_variable drainCv;  ///< all accepted work finished
    std::deque<Pending> queue;
    std::size_t inFlight = 0;
    bool paused = false;
    bool stopping = false;
    Ticket nextTicket = 1;
    Stats counters;

    /** Serializes completion callbacks; never held with @ref mu. */
    std::mutex callbackMu;

    /** Serializes shutdown(): only one caller joins the pool;
     *  concurrent callers wait for that join to finish. Acquired
     *  before @ref mu, never the other way round. */
    std::mutex shutdownMu;

    std::vector<std::thread> pool;
};

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_SCHEDULER_HH
