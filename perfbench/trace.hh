/**
 * @file
 * Spans and counters for the benchmark's traced replay.
 *
 * A Span times one call into a layer of the program, from the
 * benchmark's own code. Spans nest: a span's *self* time is its
 * duration minus the time its child spans cover, and each layer total
 * is a sum of self times, so the layer totals never double-count. The
 * sum over all layers equals the time covered by outermost spans,
 * which the replay divides by its wall time to report trace coverage.
 */

#ifndef LTSBENCH_TRACE_HH
#define LTSBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ltsbench
{

class Trace
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Self seconds per layer name. */
    std::map<std::string, double> seconds;

    /** Counters per name (work done: solves, conflicts, bytes, ...). */
    std::map<std::string, uint64_t> counts;

    /** Seconds covered by outermost spans. */
    double covered = 0;

    void
    add(const std::string &name, uint64_t n)
    {
        counts[name] += n;
    }

    void
    push()
    {
        childSeconds.push_back(0);
    }

    /** Close the innermost span, which began at @p start. */
    void
    pop(const std::string &name, Clock::time_point start)
    {
        double dur =
            std::chrono::duration<double>(Clock::now() - start).count();
        double self = dur - childSeconds.back();
        childSeconds.pop_back();
        seconds[name] += self;
        if (childSeconds.empty())
            covered += dur;
        else
            childSeconds.back() += dur;
    }

  private:
    std::vector<double> childSeconds;
};

/** RAII span: charges its self time to @p name on destruction. */
class Span
{
  public:
    Span(Trace &trace, std::string name)
        : trace(trace), name(std::move(name)), start(Trace::Clock::now())
    {
        trace.push();
    }

    ~Span() { trace.pop(name, start); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Trace &trace;
    std::string name;
    Trace::Clock::time_point start;
};

/** Time @p body as one span named @p name and return its result. */
template <typename F>
auto
timed(Trace &trace, const char *name, F &&body)
{
    Span span(trace, name);
    return body();
}

} // namespace ltsbench

#endif // LTSBENCH_TRACE_HH
