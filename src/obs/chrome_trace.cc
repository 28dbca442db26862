#include "obs/chrome_trace.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/phase.hh"
#include "obs/tracer.hh"

namespace dirsim
{

namespace
{

/** Microseconds (Chrome's unit) from a nanosecond delta. */
double
usSince(std::uint64_t ns, std::uint64_t origin_ns)
{
    if (ns <= origin_ns)
        return 0.0;
    return static_cast<double>(ns - origin_ns) / 1e3;
}

/** One complete ("X") slice. */
void
writeSlice(JsonWriter &writer, const std::string &name,
           const char *category, unsigned tid, double ts_us,
           double dur_us)
{
    writer.beginObject();
    writer.key("name").value(name);
    writer.key("cat").value(category);
    writer.key("ph").value("X");
    writer.key("pid").value(1u);
    writer.key("tid").value(tid);
    writer.key("ts").value(ts_us);
    writer.key("dur").value(dur_us);
}

void
writeThreadName(JsonWriter &writer, unsigned tid,
                const std::string &name)
{
    writer.beginObject();
    writer.key("name").value("thread_name");
    writer.key("ph").value("M");
    writer.key("pid").value(1u);
    writer.key("tid").value(tid);
    writer.key("args").beginObject();
    writer.key("name").value(name);
    writer.endObject();
    writer.endObject();
}

} // namespace

void
writeChromeSpans(std::ostream &os,
                 const std::vector<TraceSpan> &spans,
                 std::uint64_t origin_ns,
                 const std::vector<std::string> &lane_names)
{
    JsonWriter writer(os);
    writer.beginObject();
    writer.key("displayTimeUnit").value("ms");
    writer.key("traceEvents").beginArray();

    for (std::size_t lane = 0; lane < lane_names.size(); ++lane)
        writeThreadName(writer, static_cast<unsigned>(lane),
                        lane_names[lane]);

    for (const TraceSpan &span : spans) {
        writeSlice(writer, span.name, span.category.c_str(),
                   span.lane, usSince(span.startNs, origin_ns),
                   static_cast<double>(span.durationNs) / 1e3);
        if (!span.args.empty()) {
            writer.key("args").beginObject();
            for (const auto &[key, value] : span.args)
                writer.key(key).value(value);
            writer.endObject();
        }
        writer.endObject();
    }

    writer.endArray();
    writer.endObject();
    os << '\n';
}

void
writeChromeTrace(std::ostream &os, const GridResult &grid,
                 const EventTracer *tracer)
{
    const std::map<std::uint64_t, unsigned> lanes =
        workerLanes(grid.cells);
    const std::map<std::uint64_t, unsigned> decode_lanes =
        workerLanes(grid.plan.decodes);
    // The planning pass runs before the cells; when it was recorded,
    // the timeline starts with it.
    const std::uint64_t origin =
        grid.plan.startNs != 0 && grid.plan.startNs < grid.startNs
        ? grid.plan.startNs
        : grid.startNs;

    // Cell identity -> lane, for placing tracer timelines.
    std::map<std::string, unsigned> cell_lanes;
    const std::size_t num_traces =
        grid.schemes.empty() ? 0 : grid.schemes[0].perTrace.size();

    JsonWriter writer(os);
    writer.beginObject();
    writer.key("displayTimeUnit").value("ms");
    writer.key("traceEvents").beginArray();

    writeThreadName(writer, 0, "grid");
    const std::size_t worker_lanes =
        std::max(lanes.size(), decode_lanes.size());
    for (unsigned lane = 1; lane <= worker_lanes; ++lane)
        writeThreadName(writer, lane,
                        "worker " + std::to_string(lane));

    // The planning pass and the grid itself, on their own lane.
    if (grid.plan.startNs != 0) {
        writeSlice(writer, "plan", "plan", 0,
                   usSince(grid.plan.startNs, origin),
                   grid.plan.wallSeconds * 1e6);
        writer.endObject();
    }
    for (const DecodeTiming &decode : grid.plan.decodes) {
        writeSlice(writer, "decode", "decode",
                   decode_lanes.at(decode.threadTag),
                   usSince(decode.startNs, origin),
                   static_cast<double>(decode.durationNs) / 1e3);
        writer.key("args").beginObject();
        writer.key("trace").value(decode.traceName);
        writer.key("block_bytes").value(decode.blockBytes);
        writer.endObject();
        writer.endObject();
    }
    writeSlice(writer, "grid", "grid", 0, usSince(grid.startNs, origin),
               grid.wallSeconds * 1e6);
    writer.key("args").beginObject();
    writer.key("jobs").value(grid.jobs);
    writer.key("cells").value(
        static_cast<std::uint64_t>(grid.cells.size()));
    writer.key("refs").value(grid.totalRefs());
    writer.endObject();
    writer.endObject();

    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        for (std::size_t t = 0; t < num_traces; ++t) {
            const std::size_t index = s * num_traces + t;
            const CellTiming &cell = grid.cells[index];
            const SimResult &result = grid.schemes[s].perTrace[t];
            const unsigned lane = lanes.at(cell.threadTag);
            const std::string name =
                cell.scheme + "/" + cell.traceName;
            cell_lanes.emplace(name, lane);
            const double cell_ts = usSince(cell.startNs, origin);

            writeSlice(writer, name, "cell", lane, cell_ts,
                       cell.wallSeconds * 1e6);
            writer.key("args").beginObject();
            writer.key("refs").value(cell.refs);
            writer.key("refs_per_second")
                .value(cell.refsPerSecond());
            writer.endObject();
            writer.endObject();

            // Phase slices, laid out back-to-back inside the cell.
            double phase_ts = cell_ts;
            for (std::size_t p = 0; p < numPhases; ++p) {
                const auto phase = static_cast<Phase>(p);
                const double dur_us =
                    static_cast<double>(result.phases.get(phase))
                    / 1e3;
                if (dur_us <= 0.0)
                    continue;
                writeSlice(writer,
                           std::string("phase:") + toString(phase),
                           "phase", lane, phase_ts, dur_us);
                writer.endObject();
                phase_ts += dur_us;
            }
        }
    }

    if (tracer != nullptr) {
        for (const CellTimeline &timeline : tracer->timelines()) {
            const std::string cell_name =
                timeline.scheme + "/" + timeline.trace;
            const auto it = cell_lanes.find(cell_name);
            const unsigned lane =
                it != cell_lanes.end() ? it->second : 0;
            for (const ProtocolTraceEvent &event : timeline.events) {
                writer.beginObject();
                writer.key("name").value(toString(event.type));
                writer.key("cat").value("protocol");
                writer.key("ph").value("i");
                writer.key("s").value("t");
                writer.key("pid").value(1u);
                writer.key("tid").value(lane);
                writer.key("ts").value(usSince(event.tsNs, origin));
                writer.key("args").beginObject();
                writer.key("cell").value(cell_name);
                writer.key("ref").value(event.ref);
                writer.key("block").value(event.block);
                writer.key("cache").value(event.cache);
                writer.key("state_before")
                    .value(static_cast<unsigned>(event.stateBefore));
                writer.key("state_after")
                    .value(static_cast<unsigned>(event.stateAfter));
                writer.key("others_before")
                    .value(event.othersBefore);
                writer.key("others_after").value(event.othersAfter);
                writer.endObject();
                writer.endObject();
            }
        }
    }

    writer.endArray();
    writer.endObject();
    os << '\n';
}

void
writeChromeTraceFile(const std::string &path, const GridResult &grid,
                     const EventTracer *tracer)
{
    std::ofstream out(path, std::ios::binary);
    fatalIf(!out, "cannot open chrome trace file '", path,
            "' for writing");
    writeChromeTrace(out, grid, tracer);
    out.flush();
    fatalIf(!out, "failed writing chrome trace file '", path, "'");
}

} // namespace dirsim
