#include "tracer.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <utility>

namespace e2e
{

namespace
{

/** Open spans of the calling thread, innermost last. The process
 *  holds one Tracer, so the stack needs no per-tracer key. */
thread_local std::vector<int> openStack;
thread_local int threadTrack = -1;

/** Length of the union of @p intervals clipped to [lo, hi). */
std::int64_t
coveredLength(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
              std::int64_t lo, std::int64_t hi)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (auto [a, b] : intervals) {
        a = std::max(a, reach);
        b = std::min(b, hi);
        if (b > a) {
            covered += b - a;
            reach = b;
        }
    }
    return covered;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

void
writeJsonString(std::ostream &os, const std::string &text)
{
    os << '"';
    for (const char c : text) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

} // namespace

Tracer::Tracer(bool enabled) : on(enabled) {}

Tracer::Scope::Scope(Tracer &tracer, std::string name, std::string owner,
                     int parent)
    : tracer(&tracer)
{
    if (tracer.on)
        index = tracer.open(std::move(name), std::move(owner), parent);
}

Tracer::Scope::~Scope()
{
    if (index >= 0)
        tracer->close(index);
}

int
Tracer::trackOfThisThread()
{
    if (threadTrack < 0)
        threadTrack = nextTrack++;
    return threadTrack;
}

int
Tracer::open(std::string name, std::string owner, int parent)
{
    const std::int64_t now = nanosBetween(epoch, Clock::now());
    std::lock_guard<std::mutex> lock(mu);
    Span span;
    span.name = std::move(name);
    span.owner = std::move(owner);
    span.startNs = now;
    span.endNs = now;
    span.parent = parent != kInherit ? parent
                  : openStack.empty() ? -1
                                      : openStack.back();
    span.track = trackOfThisThread();
    spans.push_back(std::move(span));
    const int index = static_cast<int>(spans.size()) - 1;
    openStack.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    const std::int64_t now = nanosBetween(epoch, Clock::now());
    std::lock_guard<std::mutex> lock(mu);
    spans[static_cast<std::size_t>(index)].endNs = now;
    if (!openStack.empty() && openStack.back() == index)
        openStack.pop_back();
}

void
Tracer::addSpan(std::string name, std::string owner,
                Clock::time_point start, Clock::time_point end,
                int parent)
{
    if (!on)
        return;
    std::lock_guard<std::mutex> lock(mu);
    Span span;
    span.name = std::move(name);
    span.owner = std::move(owner);
    span.startNs = nanosBetween(epoch, start);
    span.endNs = nanosBetween(epoch, end);
    span.parent = parent;
    span.track = trackOfThisThread();
    spans.push_back(std::move(span));
}

int
Tracer::current() const
{
    return openStack.empty() ? -1 : openStack.back();
}

std::size_t
Tracer::mark() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans.size();
}

std::map<std::string, double>
Tracer::totalsSince(std::size_t from) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::map<std::string, double> totals;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (std::size_t i = from; i < spans.size(); ++i) {
        const Span &span = spans[i];
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.startNs, span.endNs);
    }
    for (std::size_t i = from; i < spans.size(); ++i) {
        const Span &span = spans[i];
        const std::int64_t length = span.endNs - span.startNs;
        const std::int64_t self =
            length - coveredLength(children[i], span.startNs, span.endNs);
        totals[span.name + "_ms"] += static_cast<double>(length) * 1e-6;
        totals[layerOf(span.name) + ".self_ms"] +=
            static_cast<double>(self) * 1e-6;
        if (span.name == "bench.iteration")
            totals["bench.uncovered_ms"] += static_cast<double>(self) * 1e-6;
    }
    return totals;
}

bool
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &metadata) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    std::lock_guard<std::mutex> lock(mu);
    // Microsecond timestamps with nanosecond digits.
    os << std::fixed << std::setprecision(3);
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata
       << ",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        if (i != 0)
            os << ',';
        os << "\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << span.track
           << ",\"name\":";
        writeJsonString(os, span.name);
        os << ",\"cat\":";
        writeJsonString(os, layerOf(span.name));
        os << ",\"ts\":" << static_cast<double>(span.startNs) * 1e-3
           << ",\"dur\":"
           << static_cast<double>(span.endNs - span.startNs) * 1e-3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
           << ",\"owner\":";
        writeJsonString(os, span.owner);
        os << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace e2e
