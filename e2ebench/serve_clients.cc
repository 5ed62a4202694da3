/**
 * @file
 * The serve-clients workload: an in-process CampaignServer on a unix
 * socket and two ServeClient connections in a closed loop, each
 * sending its next small campaign only after the previous one's last
 * result arrived. Every served campaign is compared byte for byte
 * with writeResultsJson() of the same grid run offline.
 */

#include <algorithm>
#include <filesystem>
#include <random>
#include <sstream>
#include <thread>

#include "campaign/emitters.hh"
#include "harness.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "workload/benchmarks.hh"

namespace e2e
{

using namespace bpsim;
using namespace bpsim::serve;

namespace
{

constexpr unsigned kClients = 2;
constexpr std::uint64_t kDivisor = 4;
/** Times each client sends every template per measured iteration,
 *  in a seeded order: every iteration does the same work. */
constexpr std::size_t kRepeats = 3;

/** Template shapes: config count, benchmarks, per-branch tracking.
 *  Fixed, so the work per iteration does not depend on the seed;
 *  the seed picks table sizes and history lengths. */
struct Shape
{
    std::size_t configs;
    std::vector<std::string> benchmarks;
    bool perBranch;
};

const std::vector<Shape> kShapes = {
    {2, {"go"}, false},
    {3, {"compress"}, false},
    {2, {"go", "compress"}, false},
    // Per-branch payloads list every static branch; keep them on the
    // small-footprint benchmark.
    {2, {"compress"}, true},
    {4, {"go"}, false},
    {3, {"go", "compress"}, false},
};

/** A campaign the clients cycle through, with its offline answer. */
struct Template
{
    CampaignRequest request;
    /** writeResultsJson() of the same grid, run offline. */
    std::string expected;
    /** Σ over the grid's jobs of their trace records. */
    std::uint64_t records = 0;
};

/** One client's share of an iteration. */
struct ClientTally
{
    Iteration it;
    std::vector<double> acceptMs;
    std::vector<double> gapMs;
    double pendingMax = 0.0;
};

class ServeClients : public Workload
{
  public:
    explicit ServeClients(const Options &options)
        : seed(options.seed), socketPath(options.workDir + "/serve.sock")
    {
        std::mt19937_64 rng(mix64(seed ^ 0x5e7eull));
        const std::vector<std::string> names = {"go", "compress"};
        TraceCache offlineCache;
        std::map<std::string, BenchmarkTrace> traces;
        for (const std::string &name : names) {
            const WorkloadSpec spec = benchmarkSpec(name, seed, kDivisor);
            traces[name] = resolveTraces(offlineCache, {spec}).front();
        }
        for (const Shape &shape : kShapes) {
            Template tpl;
            CampaignRequest &request = tpl.request;
            request.divisor = kDivisor;
            request.perBranch = shape.perBranch;
            request.benchmarks = shape.benchmarks;
            // Alternating kinds, so every template fuses the same way
            // whatever the seed.
            while (request.configs.size() < shape.configs) {
                std::string config;
                if (request.configs.size() % 2 == 0) {
                    const unsigned n = 10 + rng() % 5;
                    config = "gshare:n=" + std::to_string(n) + ",h=" +
                             std::to_string(n - rng() % 5);
                } else {
                    config = "bimode:d=" + std::to_string(9 + rng() % 5);
                }
                if (std::find(request.configs.begin(),
                              request.configs.end(),
                              config) == request.configs.end())
                    request.configs.push_back(config);
            }

            std::vector<BenchmarkTrace> grid;
            for (const std::string &name : request.benchmarks) {
                grid.push_back(traces.at(name));
                tpl.records += traces.at(name).packed->size() *
                               request.configs.size();
            }
            Campaign campaign;
            SimConfig config;
            config.trackPerBranch = request.perBranch;
            campaign.addGrid(request.configs, grid, config);
            std::ostringstream os;
            writeResultsJson(os, campaign.run(kWorkers));
            tpl.expected = os.str();
            templates.push_back(std::move(tpl));
        }
    }

    ~ServeClients() override { teardown(); }

    std::map<std::string, double>
    setup(Tracer &tracer) override
    {
        std::filesystem::remove(socketPath);
        CampaignServer::Options options;
        options.socketPath = socketPath;
        options.workers = kWorkers;
        options.resolveBenchmark =
            [seed = seed](const std::string &name)
            -> std::optional<WorkloadSpec> {
            auto spec = findBenchmark(name);
            if (!spec)
                return std::nullopt;
            return seededSpec(std::move(*spec), seed);
        };
        server = std::make_unique<CampaignServer>(std::move(options));
        std::string error;
        {
            Tracer::Scope span(tracer, "serve.start");
            if (!server->start(error))
                BPSIM_FATAL("cannot start the campaign server: " << error);
        }
        for (unsigned c = 0; c < kClients; ++c) {
            if (!clients[c].connect(socketPath, error))
                BPSIM_FATAL("cannot connect to the campaign server: "
                            << error);
        }
        // Warm the daemon's trace cache: one campaign per benchmark.
        Tracer::Scope span(tracer, "serve.warm");
        for (const char *name : {"go", "compress"}) {
            CampaignRequest request;
            request.id = std::string("warm-") + name;
            request.configs = {"bimode:d=9"};
            request.benchmarks = {name};
            request.divisor = kDivisor;
            if (!clients[0].runCampaign(request, error))
                BPSIM_FATAL("warm-up campaign failed: " << error);
        }
        return {};
    }

    Iteration
    iterate(Tracer &tracer) override
    {
        const std::uint64_t fusedBefore = server->schedulerStats().fusedBanks;
        const std::uint64_t rejectedBefore = server->stats().campaignsRejected;
        std::vector<ClientTally> tallies(kClients);
        std::vector<std::thread> threads;
        const std::uint64_t round = rounds++;
        // Client threads open no span of their own; their campaign
        // spans hang under the iteration that started them.
        const int parent = tracer.current();
        for (unsigned c = 0; c < kClients; ++c) {
            threads.emplace_back([this, &tracer, &tallies, c, round, parent] {
                runClient(tracer, c, round, parent, tallies[c]);
            });
        }
        for (std::thread &thread : threads)
            thread.join();

        Iteration it;
        std::vector<double> acceptMs, gapMs;
        double pendingMax = 0.0;
        for (ClientTally &tally : tallies) {
            it.records += tally.it.records;
            it.jobs += tally.it.jobs;
            it.failed += tally.it.failed;
            it.campaignMs.insert(it.campaignMs.end(),
                                 tally.it.campaignMs.begin(),
                                 tally.it.campaignMs.end());
            it.firstResultMs.insert(it.firstResultMs.end(),
                                    tally.it.firstResultMs.begin(),
                                    tally.it.firstResultMs.end());
            acceptMs.insert(acceptMs.end(), tally.acceptMs.begin(),
                            tally.acceptMs.end());
            gapMs.insert(gapMs.end(), tally.gapMs.begin(), tally.gapMs.end());
            pendingMax = std::max(pendingMax, tally.pendingMax);
        }
        // Every served campaign matched its template's offline answer
        // (or counted as failed), so the answers are the digest.
        for (std::size_t t = 0; t < templates.size(); ++t)
            it.digest.add(templates[t].expected);
        it.layer["serve.accept_ms"] = median(acceptMs);
        it.layer["serve.result_gap_ms"] = median(gapMs);
        it.layer["serve.fused_banks"] = static_cast<double>(
            server->schedulerStats().fusedBanks - fusedBefore);
        it.layer["serve.pending_max"] = pendingMax;
        it.layer["serve.rejected"] = static_cast<double>(
            server->stats().campaignsRejected - rejectedBefore);
        return it;
    }

    Check
    verifySample(std::uint64_t) override
    {
        // Every served campaign was compared with its offline bytes
        // as it arrived (counted in the iterations' failures).
        return {};
    }

    bool
    fixedCampaigns() const override
    {
        return false;
    }

    void
    teardown() override
    {
        for (ServeClient &client : clients)
            client.disconnect();
        if (server) {
            server->stop();
            server.reset();
        }
    }

  private:
    void
    runClient(Tracer &tracer, unsigned c, std::uint64_t round, int parent,
              ClientTally &tally)
    {
        std::mt19937_64 rng(mix64(seed ^ mix64(round * kClients + c)));
        std::vector<std::size_t> order;
        for (std::size_t r = 0; r < kRepeats; ++r) {
            for (std::size_t t = 0; t < templates.size(); ++t)
                order.push_back(t);
        }
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t k = 0; k < order.size(); ++k) {
            const Template &tpl = templates[order[k]];
            CampaignRequest request = tpl.request;
            request.id = std::to_string(c);
            request.id += '-' + std::to_string(round) + '-' +
                          std::to_string(k);
            runOne(tracer, clients[c], request, tpl, parent, tally);
        }
    }

    void
    runOne(Tracer &tracer, ServeClient &client,
           const CampaignRequest &request, const Template &tpl,
           int parent, ClientTally &tally)
    {
        Tracer::Scope span(tracer, "serve.campaign", request.id, parent);
        const std::size_t jobs = request.jobCount();
        tally.it.jobs += jobs;
        const Clock::time_point sent = Clock::now();
        tally.pendingMax = std::max(
            tally.pendingMax,
            static_cast<double>(server->schedulerStats().pending));
        if (!client.sendLine(campaignRequestLine(request))) {
            tally.it.failed += jobs;
            return;
        }
        std::vector<std::string> payloads;
        Clock::time_point accepted = sent, last = sent;
        bool ok = false;
        for (;;) {
            const auto line = client.readLine();
            if (!line)
                break;
            const Clock::time_point now = Clock::now();
            const Event event = parseEvent(*line);
            if (event.kind == Event::Kind::Accepted) {
                accepted = last = now;
                tracer.addSpan("serve.wait_accept", request.id, sent, now,
                               span.id());
                continue;
            }
            if (event.kind == Event::Kind::Result) {
                if (payloads.empty())
                    tally.it.firstResultMs.push_back(
                        static_cast<double>(nanosBetween(sent, now)) * 1e-6);
                else
                    tally.gapMs.push_back(
                        static_cast<double>(nanosBetween(last, now)) * 1e-6);
                last = now;
                payloads.push_back(event.payload);
                continue;
            }
            // Done ends the campaign; anything else (rejected, error)
            // fails it.
            ok = event.kind == Event::Kind::Done &&
                 event.jobs == payloads.size() && payloads.size() == jobs;
            break;
        }
        tracer.addSpan("serve.wait_results", request.id, accepted, last,
                       span.id());
        if (ok && joinResultsJson(payloads) == tpl.expected) {
            tally.it.records += tpl.records;
            tally.it.campaignMs.push_back(
                static_cast<double>(nanosBetween(sent, last)) * 1e-6);
            tally.acceptMs.push_back(
                static_cast<double>(nanosBetween(sent, accepted)) * 1e-6);
            return;
        }
        tally.it.failed += jobs;
        BPSIM_WARN("campaign " << request.id
                   << (ok ? " differs from its offline output"
                          : " did not complete"));
    }

    std::uint64_t seed;
    std::string socketPath;
    std::vector<Template> templates;
    std::unique_ptr<CampaignServer> server;
    ServeClient clients[kClients];
    std::uint64_t rounds = 0;
};

} // namespace

std::unique_ptr<Workload>
makeServeClients(const Options &options)
{
    return std::make_unique<ServeClients>(options);
}

} // namespace e2e
