/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one call into a library layer, recorded from the
 * benchmark's side of the call: name ("<layer>.<what>"), start and
 * end on the steady clock, the span that was open on the same thread
 * when it started (its parent), the recording thread, and the job or
 * campaign id it belongs to. Spans stay in memory and are written
 * once, at the end, as Chrome trace-event JSON (chrome://tracing,
 * ui.perfetto.dev).
 *
 * A disabled tracer records nothing: Scope then costs one branch, so
 * the untraced run executes the same code path as the traced one.
 */

#ifndef E2EBENCH_TRACER_HH
#define E2EBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds between @p a and @p b. */
inline std::int64_t
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return static_cast<double>(nanosBetween(start, Clock::now())) * 1e-9;
}

struct Span
{
    std::string name;
    /** Job or campaign id the span belongs to ("" when none). */
    std::string owner;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the parent span, or -1 for a root. */
    int parent = -1;
    /** Small per-thread track number (Chrome "tid"). */
    int track = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled = false);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Scope parent: the innermost span open on this thread. */
    static constexpr int kInherit = -2;

    bool enabled() const { return on; }
    void setEnabled(bool enabled) { on = enabled; }

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        /** @p parent: a span index, or kInherit for the innermost
         *  span open on the calling thread. */
        Scope(Tracer &tracer, std::string name, std::string owner = {},
              int parent = kInherit);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Index of this span (-1 when tracing is off). */
        int id() const { return index; }

      private:
        Tracer *tracer;
        int index = -1;
    };

    /**
     * Records a finished span measured by someone else (a result's
     * own replay time). @p parent is a span index or -1; the span
     * goes on the calling thread's track.
     */
    void addSpan(std::string name, std::string owner,
                 Clock::time_point start, Clock::time_point end,
                 int parent);

    /** The innermost span open on the calling thread, or -1. */
    int current() const;

    /** Number of spans recorded so far (a mark for totalsSince()). */
    std::size_t mark() const;

    /**
     * Sums of span durations in milliseconds by span name, and the
     * per-layer self time ("<layer>.self_ms": each span's duration
     * minus the part of it its children cover) over spans recorded
     * after @p from. Also fills "bench.uncovered_ms": the time of the
     * "bench.iteration" roots no child span covers.
     */
    std::map<std::string, double> totalsSince(std::size_t from) const;

    /** Writes every span as Chrome trace-event JSON; @p metadata is
     *  emitted verbatim as the "otherData" object. */
    bool writeChromeTrace(const std::string &path,
                          const std::string &metadata) const;

  private:
    int open(std::string name, std::string owner, int parent);
    void close(int index);
    int trackOfThisThread();

    bool on;
    Clock::time_point epoch = Clock::now();
    mutable std::mutex mu;
    std::vector<Span> spans;   ///< guarded by mu
    int nextTrack = 0;         ///< guarded by mu
};

} // namespace e2e

#endif // E2EBENCH_TRACER_HH
