/**
 * @file
 * Chrome trace_event JSON export of a finished grid.
 *
 * writeChromeTrace() lays a GridResult out as a Chrome
 * trace_event-format document ({"traceEvents": [...]}) loadable in
 * chrome://tracing or Perfetto: one timeline lane per worker thread,
 * one "decode" slice per stream the planning pass decoded (the
 * worker lanes before the first cell), one complete ("X") slice per
 * grid cell, nested slices for the
 * cell's phase breakdown (read/warmup/simulate/reduce, from the PR 3
 * phase timers), and — when an EventTracer ran alongside — instant
 * ("i") events for the sampled protocol transitions.
 *
 * Timestamps are microseconds relative to the planning start, taken from
 * the same PhaseTimer::nowNs() clock the cells and tracer sessions
 * stamp, so cells and protocol events line up on one axis. Phase
 * slices are laid out cumulatively inside their cell (phases do not
 * record their own start times), which matches reality because the
 * phases of a cell run back-to-back.
 */

#ifndef DIRSIM_OBS_CHROME_TRACE_HH
#define DIRSIM_OBS_CHROME_TRACE_HH

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"

namespace dirsim
{

class EventTracer;

/**
 * One generic timeline slice for writeChromeSpans(): anything with a
 * start and a duration on the PhaseTimer::nowNs() clock. The daemon
 * uses these for its run-scoped traces (queue-wait, run execution,
 * per-cell slices, HTTP requests) without needing a GridResult.
 */
struct TraceSpan
{
    std::string name;
    std::string category;
    /** Timeline lane ("tid" in the trace viewer). */
    unsigned lane = 0;
    /** PhaseTimer::nowNs() stamps. */
    std::uint64_t startNs = 0;
    std::uint64_t durationNs = 0;
    /** Extra args rendered as strings under the slice. */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Worker lanes 1..N for timings carrying a startNs and a threadTag
 * (CellTiming, DecodeTiming), keyed by thread tag and numbered in
 * order of each thread's first start — lane 1 is the worker that
 * started first, a deterministic layout for a sequential run.
 */
template <typename Timing>
std::map<std::uint64_t, unsigned>
workerLanes(const std::vector<Timing> &timings)
{
    std::vector<const Timing *> sorted;
    sorted.reserve(timings.size());
    for (const Timing &timing : timings)
        sorted.push_back(&timing);
    std::sort(sorted.begin(), sorted.end(),
              [](const Timing *a, const Timing *b) {
                  return a->startNs < b->startNs;
              });
    std::map<std::uint64_t, unsigned> lanes;
    for (const Timing *timing : sorted)
        lanes.try_emplace(timing->threadTag,
                          static_cast<unsigned>(lanes.size() + 1));
    return lanes;
}

/**
 * Write free-form spans as a Chrome trace_event document.
 * Timestamps are emitted relative to @p origin_ns (a span starting
 * before the origin clamps to 0); @p lane_names labels lanes 0..N-1.
 */
void writeChromeSpans(
    std::ostream &os, const std::vector<TraceSpan> &spans,
    std::uint64_t origin_ns,
    const std::vector<std::string> &lane_names = {});

/**
 * Write @p grid (and, optionally, @p tracer's sampled timelines) as
 * a Chrome trace_event JSON document.
 */
void writeChromeTrace(std::ostream &os, const GridResult &grid,
                      const EventTracer *tracer = nullptr);

/** writeChromeTrace() to a file. @throws UsageError when unwritable */
void writeChromeTraceFile(const std::string &path,
                          const GridResult &grid,
                          const EventTracer *tracer = nullptr);

} // namespace dirsim

#endif // DIRSIM_OBS_CHROME_TRACE_HH
