#include "sweep/run.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/logging.hh"
#include "obs/artifacts.hh"

namespace dirsim
{

namespace
{

/** Manifest with per-instance provenance (generated instances are
 *  "memory" sources named by their sweep label; files carry the
 *  whole-file checksum, computed on @p workers threads). */
RunManifest
captureSweepManifest(const SweepPlan &plan,
                     const std::vector<std::unique_ptr<Trace>> &traces,
                     unsigned workers)
{
    std::vector<std::string> files;
    for (const SweepTraceInstance &instance : plan.traces)
        files.push_back(instance.kind == SweepTraceEntry::Kind::File
                            ? instance.path
                            : std::string());
    const std::vector<std::uint64_t> checksums =
        fileChecksumsFnv64(files, workers);

    // The manifest's flattened SimConfig fields describe one config;
    // a sweep has one per cell. Record the first cell's (the spec's
    // first axis values) — per-cell truth lives in the cell labels.
    RunManifest manifest = RunManifest::capture(
        plan.schemes, plan.cells.front().config(plan.spec));
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        const SweepTraceInstance &instance = plan.traces[t];
        TraceProvenance provenance;
        provenance.name = instance.label;
        if (instance.kind == SweepTraceEntry::Kind::File) {
            provenance.path = instance.path;
            provenance.source = "file";
            provenance.checksum = checksums[t];
            provenance.hasChecksum = true;
        } else {
            provenance.source = "memory";
            provenance.records = traces[t]->size();
            provenance.caches =
                cachesNeeded(*traces[t], plan.spec.sharing);
        }
        manifest.traces.push_back(std::move(provenance));
    }
    return manifest;
}

} // namespace

SweepOutcome
runSweep(const SweepPlan &plan, const SweepOptions &options)
{
    fatalIf(plan.cells.empty(), "sweep '", plan.spec.name,
            "' expands to no cells");

    const std::vector<std::unique_ptr<Trace>> traces =
        materializeSweepTraces(plan);

    std::vector<SimJob> jobs;
    jobs.reserve(plan.cells.size());
    for (const SweepCell &cell : plan.cells) {
        const SweepTraceInstance &instance =
            plan.traces[cell.traceIndex];
        SimJob job;
        job.trace = instance.kind == SweepTraceEntry::Kind::File
            ? TraceRef::file(instance.path)
            : TraceRef::of(*traces[cell.traceIndex]);
        job.scheme = cell.scheme;
        job.config = cell.config(plan.spec);
        jobs.push_back(std::move(job));
    }

    // Resolve the worker count once: it is logged, recorded in the
    // manifest and the metrics, and used by the planning pass and the
    // executor.
    RunOptions run;
    run.jobs = options.jobs;
    run.jobs = run.resolvedJobs();

    JobOptions engine;
    engine.shards.shards = 1;
    engine.cache = options.cache;
    SimPlan sim_plan = buildPlan(jobs, engine, run.jobs);

    // Label each cell's timing and progress with its sweep label, and
    // apply the per-cell shard axis. buildPlan resolved everything to
    // one shard (the plan-wide default); a cell that can shard — one
    // with infinite caches — takes its axis value, capped by its
    // block count.
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const unsigned want = plan.cells[i].shards;
        PlannedCell &planned = sim_plan.cells[i];
        planned.traceName = plan.cells[i].label;
        if (want <= 1 || planned.config.finiteCache)
            continue;
        planned.shards = static_cast<unsigned>(
            std::min<std::uint64_t>(
                want,
                std::max<std::uint64_t>(
                    1, planned.stream->blockCount())));
    }

    SweepOutcome outcome;
    outcome.plan = sim_plan.timing;
    outcome.manifest = captureSweepManifest(plan, traces, run.jobs);
    outcome.manifest.stampStart();

    const std::string run_label = options.runLabel.empty()
        ? plan.spec.name
        : options.runLabel;
    run.cancel = options.cancel;
    run.maxSimulatedCells = options.maxSimulatedCells;
    run.onProgress = [&](const GridProgress &progress) {
        logEvent(LogLevel::Debug, "sweep.cell.finished")
            .field("run", run_label)
            .field("cell", progress.cell.traceName)
            .field("scheme", progress.cell.scheme)
            .field("refs", progress.cell.refs)
            .field("cache_hit", progress.cell.cacheHit)
            .field("wall_seconds", progress.cell.wallSeconds);
        if (options.onProgress)
            options.onProgress(progress);
    };
    outcome.manifest.jobs = run.jobs;
    logEvent(LogLevel::Info, "sweep.run.start")
        .field("run", run_label)
        .field("name", plan.spec.name)
        .field("cells", static_cast<std::uint64_t>(plan.cells.size()))
        .field("jobs", run.jobs);

    PlanRun ran = runPlan(sim_plan, run);
    outcome.startNs = ran.startNs;
    outcome.wallSeconds = ran.wallSeconds;
    outcome.manifest.stampFinish();
    outcome.completed = ran.completed();

    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        if (!ran.cells[i])
            continue;
        const CellOutcome &cell = *ran.cells[i];
        const SweepTraceInstance &instance =
            plan.traces[plan.cells[i].traceIndex];
        CellRecord record = CellRecord::fromCell(
            cell.result, cell.timing,
            instance.kind == SweepTraceEntry::Kind::File
                ? instance.path
                : std::string());
        // The sweep label is the cell's identity: a plain trace name
        // would collide across block/geometry/shard axis values.
        record.trace = plan.cells[i].label;
        outcome.records.push_back(std::move(record));
        outcome.cellIndices.push_back(i);
        outcome.timings.push_back(cell.timing);
        if (cell.timing.cacheHit)
            ++outcome.cacheHits;
        else
            ++outcome.cacheMisses;
        outcome.simulatedRefs += cell.timing.simulatedRefs;
    }

    addRunMetrics(outcome.metrics, outcome.timings, outcome.plan,
                  outcome.wallSeconds, run.jobs,
                  options.cache != nullptr);
    outcome.metrics.add("sweep.cells.total", plan.cells.size());
    outcome.metrics.add("sweep.cells.executed",
                        outcome.records.size());
    outcome.metrics.add("sweep.cells.skipped",
                        plan.cells.size() - outcome.records.size());
    outcome.metrics.add("sweep.traces", plan.traces.size());
    logEvent(LogLevel::Info, "sweep.run.finished")
        .field("run", run_label)
        .field("completed", outcome.completed)
        .field("cells",
               static_cast<std::uint64_t>(outcome.records.size()))
        .field("cache_hits", outcome.cacheHits)
        .field("simulated_refs", outcome.simulatedRefs)
        .field("wall_seconds", outcome.wallSeconds);
    return outcome;
}

void
writeSweepArtifacts(const SweepOutcome &outcome, ResultsSink &sink)
{
    sink.writeManifest(outcome.manifest);
    for (const CellRecord &record : outcome.records)
        sink.writeCell(record);
    sink.writeMetrics(outcome.metrics);
    sink.finish();
}

} // namespace dirsim
