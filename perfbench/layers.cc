/**
 * @file
 * perfbench_layers: the C++ side of the dirsim benchmark
 * (perfbench/run.py drives it; see perfbench/README.md).
 *
 *   perfbench_layers info
 *       Build provenance as one JSON line: build type, compiler,
 *       whether the build is optimized, hardware threads.
 *
 *   perfbench_layers gen <workload> <seed> <refs> <pool> <reps> <dir>
 *       Set-up: generate the workload's traces from the seed and
 *       write them as v2 trace files under <dir>, <reps> times over
 *       (the files are identical each time). Prints one JSON line
 *       with the per-repetition generation and write seconds.
 *
 *   perfbench_layers layers <workload> <seed> <refs> <pool> <dir>
 *                           <spec.json> <jobs> <out.json>
 *       The traced layer run: times the public call into each layer
 *       (tracegen, trace, sim plan, sim cells, protocols, sharding,
 *       obs) on the workload's inputs, recording one span per call
 *       and per executed cell, and writes spans plus per-layer
 *       metrics to <out.json>.
 *
 * Spans are stamped with PhaseTimer::nowNs() (steady_clock), the
 * clock runSweep() stamps its cells with, so cell lanes line up with
 * the harness's own spans.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "dirsim/dirsim.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace
{

using namespace dirsim;
namespace fs = std::filesystem;

/** The schemes whose sequential throughput every workload reports:
 *  the paper grid's eight plus the scaling grid's (scalingSchemes()),
 *  so every workload reports the same metric names. */
const std::vector<std::string> &
ledgerSchemes()
{
    static const std::vector<std::string> schemes = [] {
        std::vector<std::string> out{"Dir1NB", "WTI",    "Dir0B",
                                     "Dragon", "DirNNB", "Dir2B",
                                     "Dir4NB", "Berkeley"};
        for (const SchemeSpec &spec : scalingSchemes())
            if (std::find(out.begin(), out.end(), spec.name()) ==
                out.end())
                out.push_back(spec.name());
        return out;
    }();
    return schemes;
}

/** One generated trace of a workload and the file it lands in. */
struct TraceJob
{
    std::string file; ///< file name under the workload directory
    std::string profile;
    std::uint64_t seed = 0;
};

/** The traces a workload generates from its seed. */
std::vector<TraceJob>
workloadTraces(const std::string &workload, std::uint64_t seed,
               unsigned pool)
{
    std::vector<TraceJob> out;
    if (workload == "paper_grid") {
        for (const char *profile : {"pops", "thor", "pero"})
            out.push_back({std::string(profile) + ".trc", profile, seed});
    } else if (workload == "scale1024") {
        out.push_back({"scale1024.trc", "scale1024", seed});
    } else if (workload == "serve_mixed") {
        static const char *const profiles[] = {"pops", "thor", "pero"};
        for (unsigned i = 0; i < pool; ++i) {
            const std::string profile = profiles[i % 3];
            out.push_back({profile + "-" + std::to_string(i) + ".trc",
                           profile, seed * 1000 + i});
        }
    } else {
        fatal("unknown workload '", workload, "'");
    }
    return out;
}

Trace
generate(const TraceJob &job, std::uint64_t refs)
{
    if (job.profile == "scale1024") {
        ScalingParams params;
        params.refsPerTrace = refs;
        params.seed = job.seed;
        return scalingTrace(1024, params);
    }
    return generateTrace(job.profile, refs, job.seed);
}

double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(PhaseTimer::nowNs() - start_ns) * 1e-9;
}

/** In-memory span recorder: a name, its layer, start/end, the span
 *  that caused it, and the lane (tid) it ran on. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        long parent = -1;
        std::uint64_t tid = 0;
    };

    /** Open a span under the innermost open one. */
    void
    begin(std::string name, std::string layer)
    {
        Span span;
        span.name = std::move(name);
        span.layer = std::move(layer);
        span.parent = open.empty() ? -1 : static_cast<long>(open.back());
        span.startNs = PhaseTimer::nowNs();
        spans.push_back(std::move(span));
        open.push_back(spans.size() - 1);
    }

    /** Close the innermost span; returns its duration in seconds. */
    double
    end()
    {
        Span &span = spans[open.back()];
        open.pop_back();
        span.endNs = PhaseTimer::nowNs();
        return static_cast<double>(span.endNs - span.startNs) * 1e-9;
    }

    /** Record a finished span (cells timed by runSweep itself). */
    void
    add(Span span)
    {
        if (span.parent < 0 && !open.empty())
            span.parent = static_cast<long>(open.back());
        spans.push_back(std::move(span));
    }

    void
    write(JsonWriter &writer) const
    {
        writer.beginArray();
        for (const Span &span : spans) {
            writer.beginObject();
            writer.key("name").value(span.name);
            writer.key("layer").value(span.layer);
            writer.key("start_ns").value(span.startNs);
            writer.key("end_ns").value(span.endNs);
            writer.key("parent").value(static_cast<std::int64_t>(span.parent));
            writer.key("tid").value(span.tid);
            writer.endObject();
        }
        writer.endArray();
    }

  private:
    std::vector<Span> spans;
    std::vector<std::size_t> open;
};

int
infoCommand()
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    JsonWriter writer(std::cout);
    writer.beginObject();
    writer.key("build_type").value(std::string(PERFBENCH_BUILD_TYPE));
#ifdef __clang__
    writer.key("compiler").value("clang " __VERSION__);
#else
    writer.key("compiler").value("gcc " __VERSION__);
#endif
    writer.key("optimized").value(optimized);
    writer.key("nproc").value(
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    writer.endObject();
    std::cout << '\n';
    return 0;
}

int
genCommand(const std::vector<std::string> &args)
{
    fatalIf(args.size() != 6, "gen needs <workload> <seed> <refs> "
                              "<pool> <reps> <dir>");
    const std::string &workload = args[0];
    const std::uint64_t seed = std::stoull(args[1]);
    const std::uint64_t refs = std::stoull(args[2]);
    const unsigned pool = static_cast<unsigned>(std::stoul(args[3]));
    const unsigned reps = static_cast<unsigned>(std::stoul(args[4]));
    const fs::path dir = args[5];
    fs::create_directories(dir);
    const std::vector<TraceJob> traces =
        workloadTraces(workload, seed, pool);

    JsonWriter writer(std::cout);
    writer.beginObject();
    writer.key("reps").beginArray();
    std::uint64_t records = 0;
    for (unsigned rep = 0; rep < std::max(reps, 1u); ++rep) {
        double gen_s = 0.0;
        double write_s = 0.0;
        records = 0;
        for (const TraceJob &job : traces) {
            std::uint64_t start = PhaseTimer::nowNs();
            const Trace trace = generate(job, refs);
            gen_s += secondsSince(start);
            start = PhaseTimer::nowNs();
            writeBinaryTraceFile(trace, (dir / job.file).string());
            write_s += secondsSince(start);
            records += trace.size();
        }
        writer.beginObject();
        writer.key("gen_s").value(gen_s);
        writer.key("write_s").value(write_s);
        writer.endObject();
    }
    writer.endArray();
    writer.key("records").value(records);
    writer.key("files").beginArray();
    for (const TraceJob &job : traces)
        writer.value((dir / job.file).string());
    writer.endArray();
    writer.endObject();
    std::cout << '\n';
    return 0;
}

/** Lay a finished sweep's cells out as spans, one lane per worker. */
void
addCellSpans(SpanLog &log, const SweepOutcome &outcome,
             std::uint64_t lane_base)
{
    std::map<std::uint64_t, std::uint64_t> lanes;
    for (const CellTiming &timing : outcome.timings) {
        const auto it = lanes.try_emplace(timing.threadTag,
                                          lane_base + lanes.size()).first;
        SpanLog::Span span;
        span.name = "cell " + timing.traceName + " " + timing.scheme;
        span.layer = "sim";
        span.startNs = timing.startNs;
        span.endNs = timing.startNs +
            static_cast<std::uint64_t>(timing.wallSeconds * 1e9);
        span.tid = it->second;
        log.add(std::move(span));
    }
}

/**
 * The serial prefix of a sweep: from the runSweep() call to its first
 * cell start, the trace decode, checksum and planning no cell
 * overlaps. SweepOutcome::startNs is stamped after planning, so the
 * call time is the origin.
 */
double
serialPrefixSeconds(const SweepOutcome &outcome, std::uint64_t call_ns)
{
    std::uint64_t first = UINT64_MAX;
    for (const CellTiming &timing : outcome.timings)
        first = std::min(first, timing.startNs);
    if (first == UINT64_MAX || first < call_ns)
        return 0.0;
    return static_cast<double>(first - call_ns) * 1e-9;
}

bool
identical(const SimResult &a, const SimResult &b)
{
    return a.scheme == b.scheme && a.numCaches == b.numCaches &&
        a.totalRefs == b.totalRefs && a.events == b.events &&
        a.ops == b.ops && a.cleanWriteHolders == b.cleanWriteHolders;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int
layersCommand(const std::vector<std::string> &args)
{
    fatalIf(args.size() != 8,
            "layers needs <workload> <seed> <refs> <pool> <dir> "
            "<spec.json> <jobs> <out.json>");
    const std::string &workload = args[0];
    const std::uint64_t seed = std::stoull(args[1]);
    const std::uint64_t refs = std::stoull(args[2]);
    const unsigned pool = static_cast<unsigned>(std::stoul(args[3]));
    const fs::path dir = args[4];
    const std::string spec_path = args[5];
    const unsigned jobs = static_cast<unsigned>(std::stoul(args[6]));
    const std::string out_path = args[7];
    fs::create_directories(dir);

    SpanLog log;
    std::map<std::string, double> metrics;
    const std::uint64_t run_start = PhaseTimer::nowNs();
    log.begin("layers " + workload, "bench");

    // tracegen + trace: regenerate, write and read back every input.
    const std::vector<TraceJob> traces =
        workloadTraces(workload, seed, pool);
    double gen_s = 0.0;
    double write_s = 0.0;
    double read_s = 0.0;
    for (const TraceJob &job : traces) {
        const std::string path = (dir / job.file).string();
        log.begin("tracegen.generate " + job.file, "tracegen");
        const Trace trace = generate(job, refs);
        gen_s += log.end();
        log.begin("trace.write " + job.file, "trace");
        writeBinaryTraceFile(trace, path);
        write_s += log.end();
        log.begin("trace.read " + job.file, "trace");
        const Trace back = readBinaryTraceFile(path);
        read_s += log.end();
        fatalIf(back.size() != trace.size(), "trace ", path,
                " read back ", back.size(), " of ", trace.size(),
                " records");
    }
    metrics["tracegen.gen_s"] = gen_s;
    metrics["trace.write_s"] = write_s;
    metrics["trace.read_s"] = read_s;

    const SweepSpec spec = loadSweepSpec(spec_path);
    const SweepPlan plan = expandSweep(spec);

    // sim plan: decode and checksum each distinct (file, block)
    // input, then plan the whole grid (buildPlan decodes again, as
    // runSweep does).
    double decode_s = 0.0;
    double checksum_s = 0.0;
    std::map<std::pair<std::size_t, unsigned>, DecodedTrace> decoded;
    for (const SweepCell &cell : plan.cells) {
        const auto key = std::make_pair(cell.traceIndex, cell.blockBytes);
        if (decoded.count(key))
            continue;
        const std::string &path = plan.traces[cell.traceIndex].path;
        log.begin("sim.decode " + fs::path(path).filename().string(),
                  "sim");
        DecodedTrace stream =
            decodeTraceFile(path, cell.blockBytes, spec.sharing);
        decode_s += log.end();
        log.begin("sim.checksum", "sim");
        const std::uint64_t checksum = traceChecksumFnv64(stream);
        checksum_s += log.end();
        fatalIf(checksum == 0, "zero checksum for ", path);
        decoded.emplace(key, std::move(stream));
    }
    metrics["sim.decode_s"] = decode_s;
    metrics["sim.checksum_s"] = checksum_s;

    std::vector<SimJob> sim_jobs;
    for (const SweepCell &cell : plan.cells)
        sim_jobs.push_back(
            {TraceRef::file(plan.traces[cell.traceIndex].path),
             cell.scheme, cell.config(spec)});
    log.begin("sim.buildPlan", "sim");
    const SimPlan sim_plan = buildPlan(sim_jobs, JobOptions{});
    metrics["sim.plan_s"] = log.end();
    fatalIf(sim_plan.cells.size() != plan.cells.size(),
            "plan has ", sim_plan.cells.size(), " cells, expected ",
            plan.cells.size());

    // sim cells: the whole grid at jobs=1, then at the benchmark's
    // jobs, both through runSweep as dirsim_sweep runs them.
    SweepOptions options;
    options.jobs = 1;
    log.begin("sim.runSweep jobs=1", "sim");
    const SweepOutcome serial = runSweep(plan, options);
    addCellSpans(log, serial, 100);
    const double serial_wall = log.end();

    options.jobs = jobs;
    log.begin("sim.runSweep jobs=" + std::to_string(jobs), "sim");
    const std::uint64_t call_ns = PhaseTimer::nowNs();
    const SweepOutcome parallel = runSweep(plan, options);
    const double prefix_s = serialPrefixSeconds(parallel, call_ns);
    {
        SpanLog::Span prefix;
        prefix.name = "sim.serial_prefix";
        prefix.layer = "sim";
        prefix.startNs = call_ns;
        prefix.endNs = call_ns + static_cast<std::uint64_t>(prefix_s * 1e9);
        log.add(std::move(prefix));
    }
    addCellSpans(log, parallel, 1);
    const double parallel_wall = log.end();
    fatalIf(!serial.completed || !parallel.completed,
            "sweep did not complete");

    std::vector<double> cell_s;
    double cell_sum = 0.0;
    for (const CellTiming &timing : parallel.timings) {
        cell_s.push_back(timing.wallSeconds);
        cell_sum += timing.wallSeconds;
    }
    metrics["sim.serial_prefix_s"] = prefix_s;
    metrics["sim.cell_s_p50"] = median(cell_s);
    metrics["sim.cell_s_max"] =
        cell_s.empty() ? 0.0 : *std::max_element(cell_s.begin(),
                                                  cell_s.end());
    metrics["sim.busy_frac"] =
        cell_sum / (parallel_wall * static_cast<double>(jobs));
    const double refs_1t =
        static_cast<double>(serial.simulatedRefs) / serial_wall;
    const double refs_nt =
        static_cast<double>(parallel.simulatedRefs) / parallel_wall;
    metrics["sim.parallel_eff"] =
        refs_nt / (refs_1t * static_cast<double>(jobs));

    // cache: per-geometry throughput of the serial grid's cells.
    double inf_refs = 0.0, inf_s = 0.0, fin_refs = 0.0, fin_s = 0.0;
    std::size_t largest = SIZE_MAX;
    for (std::size_t i = 0; i < serial.timings.size(); ++i) {
        const CellTiming &timing = serial.timings[i];
        const SweepCell &cell = plan.cells[serial.cellIndices[i]];
        if (cell.geometry.infinite) {
            inf_refs += static_cast<double>(timing.refs);
            inf_s += timing.wallSeconds;
            if (largest == SIZE_MAX ||
                timing.wallSeconds > serial.timings[largest].wallSeconds)
                largest = i;
        } else {
            fin_refs += static_cast<double>(timing.refs);
            fin_s += timing.wallSeconds;
        }
    }
    fatalIf(largest == SIZE_MAX, "workload has no infinite-cache cell");
    metrics["cache.infinite.refs_per_s"] = inf_refs / inf_s;

    const SweepCell &big = plan.cells[serial.cellIndices[largest]];
    const DecodedTrace &big_stream =
        decoded.at({big.traceIndex, big.blockBytes});
    if (fin_s == 0.0) {
        // No finite cell in this workload: time its largest cell's
        // input under the paper grid's finite geometry instead.
        SimConfig config = big.config(spec);
        config.finiteCache = FiniteCacheConfig{65536, 2, big.blockBytes};
        log.begin("cache.finite probe", "cache");
        const SimResult probe =
            simulateTrace(big_stream, big.scheme, config);
        fin_s = log.end();
        fin_refs = static_cast<double>(probe.totalRefs);
    }
    metrics["cache.finite.refs_per_s"] = fin_refs / fin_s;

    // protocols + directory: sequential simulateTrace per scheme on
    // the largest cell's decoded stream.
    for (const std::string &name : ledgerSchemes()) {
        SimConfig config = big.config(spec);
        config.finiteCache.reset();
        log.begin("protocols." + name, "protocols");
        const SimResult result =
            simulateTrace(big_stream, parseScheme(name), config);
        const double seconds = log.end();
        metrics["protocols." + name + ".refs_per_s"] =
            static_cast<double>(result.totalRefs) / seconds;
    }

    // sim sharding: the largest infinite cell, sequential vs K=jobs.
    {
        const SimConfig config = big.config(spec);
        log.begin("sim.shard sequential", "sim");
        const SimResult sequential =
            simulateTrace(big_stream, big.scheme, config);
        const double seq_s = log.end();
        log.begin("sim.shard k=" + std::to_string(jobs), "sim");
        const SimResult sharded = simulateTraceSharded(
            big_stream, big.scheme, config, jobs);
        const double shard_s = log.end();
        fatalIf(!identical(sequential, sharded),
                "sharded cell ", big.label, " differs from sequential");
        metrics["sim.shard_speedup"] = seq_s / shard_s;
    }

    // obs: artifact write and the report's load + render.
    const std::string results = (dir / "layers-results.jsonl").string();
    log.begin("obs.writeSweepArtifacts", "obs");
    {
        JsonlSink sink(results);
        writeSweepArtifacts(parallel, sink);
    }
    metrics["obs.artifact_write_s"] = log.end();
    metrics["obs.artifact_bytes"] =
        static_cast<double>(fs::file_size(results));
    log.begin("obs.report", "obs");
    {
        const RunArtifacts artifacts = loadArtifacts(results);
        const std::vector<SchemeResults> grid =
            toSchemeResults(artifacts.cells);
        std::ostringstream rendered;
        eventFrequencyTable(grid, true).print(rendered);
        costBreakdownTable(grid, paperPipelinedCosts()).print(rendered);
        costBreakdownTable(grid, paperNonPipelinedCosts())
            .print(rendered);
        fatalIf(rendered.str().empty(), "empty report");
    }
    metrics["obs.report_s"] = log.end();
    log.end();

    std::ofstream out(out_path);
    fatalIf(!out, "cannot write ", out_path);
    JsonWriter writer(out);
    writer.beginObject();
    writer.key("wall_s").value(secondsSince(run_start));
    writer.key("metrics").beginObject();
    for (const auto &[name, value] : metrics)
        writer.key(name).value(value);
    writer.endObject();
    writer.key("spans");
    log.write(writer);
    writer.endObject();
    out << '\n';
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 1 && args[0] == "info")
            return infoCommand();
        if (!args.empty() && args[0] == "gen")
            return genCommand({args.begin() + 1, args.end()});
        if (!args.empty() && args[0] == "layers")
            return layersCommand({args.begin() + 1, args.end()});
        std::cerr << "usage: perfbench_layers info | gen ... | "
                     "layers ...\n";
        return 2;
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
}
