/**
 * @file
 * The benchmark's workload interface and the helpers workloads share.
 *
 * A run sets a workload up, runs one warm-up iteration, then repeats
 * set-up and a measured iteration until the run's time is spent
 * (set-up time is reported as the median). Each iteration returns
 * what it did (jobs, records, campaign latencies, an output digest)
 * and its counts; spans come from the process-wide Tracer, which is
 * switched on only for the traced half of a `--trace 1` run.
 */

#ifndef E2EBENCH_HARNESS_HH
#define E2EBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "tracer.hh"
#include "workload/workload_spec.hh"

namespace e2e
{

/** Worker threads of every workload (campaign pool and daemon pool
 *  alike); fixed so runs on different machines do the same work.
 *  One: with two, a campaign's time on a shared VM depended on
 *  whether both vCPUs ran at once, and run medians moved up to 2.5×. */
constexpr unsigned kWorkers = 1;

/** The seed whose output digests are recorded in digests.json. */
constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Recorded digest for this workload at kDefaultSeed ("" = none). */
    std::string expectDigest;
    /** Directory (inside the checkout) for the store, the socket and
     *  the Chrome trace. */
    std::string workDir;
};

/** Output digest: FNV-1a 64 over one text line per checked value. */
class Digest
{
  public:
    void add(const std::string &line);
    /** Adds "benchmark|config|branches|mispredictions". */
    void addJob(const std::string &benchmark, const std::string &config,
                std::uint64_t branches, std::uint64_t mispredictions);
    std::string hex() const;

  private:
    std::uint64_t hash = 0xcbf29ce484222325ull;
};

/** What one measured iteration did. */
struct Iteration
{
    double wallS = 0.0;
    /** Σ over jobs of the trace records each replayed. */
    std::uint64_t records = 0;
    std::uint64_t jobs = 0;
    /** Jobs that failed, were rejected, or mismatched a check. */
    std::uint64_t failed = 0;
    /** Request-to-last-result latency of each campaign. */
    std::vector<double> campaignMs;
    /** Request-to-first-result latency of each campaign. */
    std::vector<double> firstResultMs;
    Digest digest;
    /** Per-layer counts and values the spans cannot carry. */
    std::map<std::string, double> layer;
};

/** Outcome of an output check outside the measured phase. */
struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Builds the measured phase's inputs; called several times,
     *  with teardown() between calls. Returns set-up counts (e.g.
     *  "workload.records"). */
    virtual std::map<std::string, double> setup(Tracer &tracer) = 0;

    /** One measured iteration. */
    virtual Iteration iterate(Tracer &tracer) = 0;

    /**
     * Re-runs a seeded sample of the workload's jobs through per-job
     * simulateAny() (or the offline emitter) and compares.
     */
    virtual Check verifySample(std::uint64_t seed) = 0;

    /**
     * Traced runs only, after the measured phase: times layers that
     * the public calls of the measured phase hide inside one call
     * (the SIMD flatten/kernel/unflatten split, PcIndex builds) by
     * re-running one iteration's worth of them through their own
     * public calls. Its spans give per-iteration equivalents.
     */
    virtual void attribute(Tracer &, Check &) {}

    /**
     * True when every iteration runs the same campaigns in the same
     * order, so that a campaign's latency is its median over the
     * iterations (the offline workloads).
     */
    virtual bool fixedCampaigns() const { return true; }

    /** Stops whatever set-up started. */
    virtual void teardown() {}
};

std::unique_ptr<Workload> makeSuiteStore(const Options &options);
std::unique_ptr<Workload> makeLadderFused(const Options &options);
std::unique_ptr<Workload> makeMixedKinds(const Options &options);
std::unique_ptr<Workload> makeServeClients(const Options &options);

/** @p spec with its generator seed derived from the run's @p seed
 *  (static count, dynamic count and behaviour mix unchanged). */
bpsim::WorkloadSpec seededSpec(bpsim::WorkloadSpec spec,
                               std::uint64_t seed);

/** The named paper benchmark, seeded and scaled down by @p divisor. */
bpsim::WorkloadSpec benchmarkSpec(const std::string &name,
                                  std::uint64_t seed,
                                  std::uint64_t divisor);

/**
 * Runs @p campaign on kWorkers workers inside a "campaign.run" span
 * owned by @p id. Records its latencies, jobs, records, failures and
 * digest lines into @p iteration, plus the sim-layer counts its
 * results carry (banks, lanes, replay time). When tracing, the
 * results' own replay times become child spans ("sim.bank_replay",
 * "sim.solo_replay", "sim.virtual_replay") on the worker tracks.
 */
std::vector<bpsim::JobResult> runCampaign(Tracer &tracer,
                                          const bpsim::Campaign &campaign,
                                          const std::string &id,
                                          Iteration &iteration);

/** Emits @p results through writeResultsJson() inside a
 *  "campaign.emit" span; adds the bytes to "campaign.emit_bytes". */
void emitResults(Tracer &tracer, const std::vector<bpsim::JobResult> &results,
                 const std::string &id, Iteration &iteration);

/** Linear-interpolated percentile (0..100) of @p values. */
double percentile(std::vector<double> values, double pct);

double median(std::vector<double> values);

/** Process peak resident set, in MiB. */
double peakRssMb();

/** Deterministic 64-bit mix (splitmix64). */
std::uint64_t mix64(std::uint64_t x);

} // namespace e2e

#endif // E2EBENCH_HARNESS_HH
