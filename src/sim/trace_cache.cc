#include "sim/trace_cache.hh"

#include <fstream>
#include <sstream>
#include <utility>

#include "trace/codec.hh"
#include "util/logging.hh"
#include "workload/generator.hh"
#include "workload/spec_io.hh"

namespace bpsim
{

namespace
{

/**
 * Salt mixed into every trace fingerprint. Bump when the generator's
 * output changes for an unchanged spec (new behaviour families,
 * different dispatch arithmetic, ...) so stale caches invalidate
 * themselves instead of silently serving old traces.
 */
constexpr unsigned kGeneratorVersion = 1;

} // namespace

std::uint64_t
workloadTraceFingerprint(const WorkloadSpec &spec)
{
    std::ostringstream os;
    writeWorkloadSpec(os, spec);
    os << "generator_version = " << kGeneratorVersion << "\n";
    const std::string text = os.str();
    Fnv1a hash;
    hash.update(reinterpret_cast<const std::uint8_t *>(text.data()),
                text.size());
    return hash.digest();
}

TraceCache::TraceCache(const std::string &storeDirectory)
{
    if (!storeDirectory.empty())
        store = std::make_unique<TraceStore>(storeDirectory);
}

std::uint64_t
TraceCache::fingerprintFor(const WorkloadSpec &spec)
{
    const auto it = fingerprints.find(spec.name);
    if (it != fingerprints.end())
        return it->second;
    const std::uint64_t fingerprint = workloadTraceFingerprint(spec);
    fingerprints.emplace(spec.name, fingerprint);
    return fingerprint;
}

void
TraceCache::rememberSpec(const WorkloadSpec &spec)
{
    // Human-readable provenance sidecar: exactly the text the
    // fingerprint hashed, so a stale cache can be diagnosed by eye.
    // Failures are harmless (the sidecar is never read back).
    const std::string path =
        store->pathFor(spec.name, fingerprintFor(spec), ".spec");
    std::ofstream out(path, std::ios::trunc);
    if (out)
        writeWorkloadSpec(out, spec);
}

const MemoryTrace &
TraceCache::traceFor(const WorkloadSpec &spec)
{
    auto it = traces.find(spec.name);
    if (it != traces.end()) {
        const auto count = dynamicCounts.find(spec.name);
        if (count == dynamicCounts.end() ||
            count->second != spec.dynamicBranches) {
            BPSIM_PANIC("TraceCache: benchmark '" << spec.name
                        << "' requested with two different dynamic "
                        << "counts");
        }
        return *it->second;
    }

    if (store != nullptr) {
        MemoryTrace loaded;
        std::string why;
        const StoreStatus status =
            store->loadTrace(spec.name, fingerprintFor(spec),
                             spec.dynamicBranches, loaded, why);
        if (status == StoreStatus::Loaded) {
            BPSIM_INFORM("loaded cached trace for " << spec.name << " ("
                         << loaded.size() << " branches)");
            ++counters.traceLoads;
            it = traces
                     .emplace(spec.name,
                              std::make_shared<const MemoryTrace>(
                                  std::move(loaded)))
                     .first;
            dynamicCounts[spec.name] = spec.dynamicBranches;
            return *it->second;
        }
        if (status == StoreStatus::Invalid) {
            ++counters.invalidFiles;
            BPSIM_WARN("cached trace for " << spec.name
                       << " rejected (" << why << "); regenerating");
        }
    }

    BPSIM_INFORM("generating trace for " << spec.name << " ("
                 << spec.dynamicBranches << " branches)");
    ++counters.generated;
    it = traces
             .emplace(spec.name, std::make_shared<const MemoryTrace>(
                                     generateWorkloadTrace(spec)))
             .first;
    dynamicCounts[spec.name] = spec.dynamicBranches;

    if (store != nullptr) {
        std::string why;
        if (!store->storeTrace(spec.name, fingerprintFor(spec),
                               *it->second, why))
            BPSIM_WARN("cannot persist trace for " << spec.name << ": "
                       << why);
        rememberSpec(spec);
    }
    return *it->second;
}

const PackedTrace &
TraceCache::packedFor(const WorkloadSpec &spec)
{
    auto it = packed.find(spec.name);
    if (it != packed.end())
        return *it->second;

    if (store != nullptr) {
        PackedTrace loaded;
        std::string why;
        const StoreStatus status = store->loadPacked(
            spec.name, fingerprintFor(spec), loaded, why);
        if (status == StoreStatus::Loaded) {
            // Every generated record is conditional, so the packed
            // count is pinned by the spec; a disagreeing file is
            // stale even if self-consistent.
            if (loaded.size() == spec.dynamicBranches) {
                BPSIM_INFORM("loaded cached packed trace for "
                             << spec.name << " (" << loaded.size()
                             << " conditionals, "
                             << (loaded.isView() ? "zero-copy" : "owned")
                             << ")");
                ++counters.packedLoads;
                it = packed
                         .emplace(spec.name,
                                  std::make_shared<const PackedTrace>(
                                      std::move(loaded)))
                         .first;
                return *it->second;
            }
            ++counters.invalidFiles;
            BPSIM_WARN("cached packed trace for " << spec.name
                       << " holds " << loaded.size()
                       << " records, expected " << spec.dynamicBranches
                       << "; rebuilding");
        } else if (status == StoreStatus::Invalid) {
            ++counters.invalidFiles;
            BPSIM_WARN("cached packed trace for " << spec.name
                       << " rejected (" << why << "); rebuilding");
        }
    }

    ++counters.packedBuilt;
    it = packed
             .emplace(spec.name, std::make_shared<const PackedTrace>(
                                     traceFor(spec)))
             .first;

    if (store != nullptr) {
        std::string why;
        if (!store->storePacked(spec.name, fingerprintFor(spec),
                                *it->second, why))
            BPSIM_WARN("cannot persist packed trace for " << spec.name
                       << ": " << why);
    }
    return *it->second;
}

TraceHandle
TraceCache::handleFor(const WorkloadSpec &spec)
{
    traceFor(spec);
    return TraceHandle(traces.at(spec.name));
}

PackedTraceHandle
TraceCache::packedHandleFor(const WorkloadSpec &spec)
{
    packedFor(spec);
    return PackedTraceHandle(packed.at(spec.name));
}

} // namespace bpsim
