#include "analysis/counter_profile.hh"

#include <algorithm>

#include "util/logging.hh"

namespace bpsim
{

double
CounterBias::stShare() const
{
    return total ? static_cast<double>(stCount) /
                       static_cast<double>(total)
                 : 0.0;
}

double
CounterBias::sntShare() const
{
    return total ? static_cast<double>(sntCount) /
                       static_cast<double>(total)
                 : 0.0;
}

double
CounterBias::wbShare() const
{
    return total ? static_cast<double>(wbCount) /
                       static_cast<double>(total)
                 : 0.0;
}

double
CounterBias::dominantShare() const
{
    return std::max(stShare(), sntShare());
}

double
CounterBias::nonDominantShare() const
{
    return std::min(stShare(), sntShare());
}

BiasClass
CounterBias::dominantClass() const
{
    return sntCount > stCount ? BiasClass::StronglyNotTaken
                              : BiasClass::StronglyTaken;
}

CounterProfile
buildCounterProfile(const StreamTracker &tracker,
                    std::uint64_t numCounters, double threshold)
{
    if (numCounters == 0)
        BPSIM_PANIC("counter profile needs a predictor with counters");

    std::vector<CounterBias> bias(static_cast<std::size_t>(numCounters));
    for (std::uint64_t c = 0; c < numCounters; ++c)
        bias[static_cast<std::size_t>(c)].counterId = c;

    for (const StreamStats &stream : tracker.streams()) {
        if (stream.counterId >= numCounters)
            BPSIM_PANIC("stream counter id " << stream.counterId
                        << " out of range (" << numCounters
                        << " counters)");
        CounterBias &entry =
            bias[static_cast<std::size_t>(stream.counterId)];
        entry.total += stream.count;
        switch (stream.biasClass(threshold)) {
          case BiasClass::StronglyTaken:
            entry.stCount += stream.count;
            break;
          case BiasClass::StronglyNotTaken:
            entry.sntCount += stream.count;
            break;
          case BiasClass::WeaklyBiased:
            entry.wbCount += stream.count;
            break;
        }
    }

    CounterProfile profile;
    std::uint64_t traffic = 0, traffic_wb = 0, traffic_dom = 0,
                  traffic_nondom = 0;
    for (const CounterBias &entry : bias) {
        if (entry.total == 0)
            continue;
        ++profile.activeCounters;
        profile.meanWbShare += entry.wbShare();
        profile.meanDominantShare += entry.dominantShare();
        profile.meanNonDominantShare += entry.nonDominantShare();
        traffic += entry.total;
        traffic_wb += entry.wbCount;
        traffic_dom += std::max(entry.stCount, entry.sntCount);
        traffic_nondom += std::min(entry.stCount, entry.sntCount);
        profile.counters.push_back(entry);
    }
    if (profile.activeCounters > 0) {
        const double n = static_cast<double>(profile.activeCounters);
        profile.meanWbShare /= n;
        profile.meanDominantShare /= n;
        profile.meanNonDominantShare /= n;
    }
    if (traffic > 0) {
        const double t = static_cast<double>(traffic);
        profile.trafficWbShare = static_cast<double>(traffic_wb) / t;
        profile.trafficDominantShare =
            static_cast<double>(traffic_dom) / t;
        profile.trafficNonDominantShare =
            static_cast<double>(traffic_nondom) / t;
    }

    // Figure 5/6 ordering: counters sorted by WB share.
    std::sort(profile.counters.begin(), profile.counters.end(),
              [](const CounterBias &a, const CounterBias &b) {
                  if (a.wbShare() != b.wbShare())
                      return a.wbShare() < b.wbShare();
                  return a.counterId < b.counterId;
              });
    return profile;
}

} // namespace bpsim
