/** @file Unit tests for runGrid() (sim/experiment.hh) and the
 *  runPlan() executor under it (sim/job.hh). */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/artifacts.hh"
#include "obs/cell_cache.hh"
#include "sim/experiment.hh"
#include "sim/suite.hh"
#include "sweep/run.hh"
#include "test_util.hh"
#include "trace/writer.hh"

namespace dirsim
{
namespace
{

std::vector<Trace>
smallSuite()
{
    SuiteParams params;
    params.refsPerTrace = 40'000;
    params.seed = 5;
    return standardSuite(params);
}

/** Every field a simulation produces, compared exactly. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.traceName, b.traceName);
    EXPECT_EQ(a.numCaches, b.numCaches);
    EXPECT_EQ(a.totalRefs, b.totalRefs);
    EXPECT_TRUE(a.events == b.events) << a.scheme << "/" << a.traceName;
    EXPECT_TRUE(a.ops == b.ops) << a.scheme << "/" << a.traceName;
    EXPECT_TRUE(a.cleanWriteHolders == b.cleanWriteHolders)
        << a.scheme << "/" << a.traceName;
}

/** A grid of named schemes over in-memory traces on @p jobs workers. */
GridResult
grid(const std::vector<std::string> &schemes,
     const std::vector<Trace> &traces, unsigned jobs,
     ProgressCallback on_progress = {}, const SimConfig &sim = {})
{
    RunOptions run;
    run.jobs = jobs;
    run.onProgress = std::move(on_progress);
    return runGrid(parseSchemes(schemes), TraceRef::of(traces), sim,
                   JobOptions{}, run);
}

TEST(RunnerTest, ParallelGridIsBitIdenticalToSequential)
{
    const auto traces = smallSuite();

    // The sequential reference: plain per-cell simulation, no grid.
    std::vector<std::vector<SimResult>> reference;
    for (const auto &name : paperSchemes()) {
        std::vector<SimResult> row;
        for (const auto &trace : traces)
            row.push_back(simulateTrace(trace, parseScheme(name)));
        reference.push_back(std::move(row));
    }

    for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
        const GridResult result = grid(paperSchemes(), traces, jobs);
        EXPECT_EQ(result.jobs, jobs);
        ASSERT_EQ(result.schemes.size(), paperSchemes().size());
        for (std::size_t s = 0; s < result.schemes.size(); ++s) {
            EXPECT_EQ(result.schemes[s].scheme, paperSchemes()[s]);
            ASSERT_EQ(result.schemes[s].perTrace.size(), traces.size());
            for (std::size_t t = 0; t < traces.size(); ++t) {
                expectIdentical(result.schemes[s].perTrace[t],
                                reference[s][t]);
            }
        }
    }
}

TEST(RunnerTest, CellTimingsCoverTheGridInOrder)
{
    const auto traces = smallSuite();
    const GridResult result = grid({"Dir0B", "Dragon"}, traces, 2);
    ASSERT_EQ(result.cells.size(), 2 * traces.size());
    for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const CellTiming &cell = result.cells[s * traces.size() + t];
            EXPECT_EQ(cell.scheme, s == 0 ? "Dir0B" : "Dragon");
            EXPECT_EQ(cell.traceName, traces[t].name());
            EXPECT_EQ(cell.refs, traces[t].size());
            EXPECT_GE(cell.wallSeconds, 0.0);
        }
    }
    EXPECT_EQ(result.totalRefs(),
              2 * (traces[0].size() + traces[1].size()
                   + traces[2].size()));
    EXPECT_GT(result.wallSeconds, 0.0);
    EXPECT_GT(result.refsPerSecond(), 0.0);
}

TEST(RunnerTest, ProgressCallbackFiresOncePerCell)
{
    const auto traces = smallSuite();
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> max_completed{0};
    grid({"Dir0B", "WTI"}, traces, 3, [&](const GridProgress &progress) {
        calls.fetch_add(1);
        EXPECT_EQ(progress.totalCells, 2 * traces.size());
        EXPECT_GE(progress.completedCells, 1u);
        EXPECT_LE(progress.completedCells, progress.totalCells);
        EXPECT_FALSE(progress.cell.scheme.empty());
        max_completed.store(
            std::max(max_completed.load(), progress.completedCells));
    });
    EXPECT_EQ(calls.load(), 2 * traces.size());
    EXPECT_EQ(max_completed.load(), 2 * traces.size());
}

TEST(RunnerTest, ProgressCarriesThroughputTelemetry)
{
    const auto traces = smallSuite();
    std::uint64_t trace_refs = 0;
    for (const Trace &trace : traces)
        trace_refs += trace.size();
    // plannedRefs is exact: the plan counts records while decoding —
    // records × schemes, not an estimate.
    const std::uint64_t planned = 2 * trace_refs;

    std::mutex mutex;
    std::uint64_t last_completed_refs = 0;
    std::size_t calls = 0;
    bool final_seen = false;
    grid({"Dir0B", "WTI"}, traces, 2, [&](const GridProgress &progress) {
        std::lock_guard<std::mutex> lock(mutex);
        ++calls;
        EXPECT_EQ(progress.plannedRefs, planned);
        // completedRefs accumulates monotonically (calls are
        // serialized) and always includes the finished cell.
        EXPECT_GT(progress.completedRefs, last_completed_refs);
        EXPECT_GE(progress.completedRefs, progress.cell.refs);
        EXPECT_LE(progress.completedRefs, planned);
        last_completed_refs = progress.completedRefs;
        EXPECT_GE(progress.elapsedSeconds, 0.0);
        if (progress.elapsedSeconds > 0.0) {
            EXPECT_GT(progress.refsPerSecond(), 0.0);
        }
        if (progress.completedCells == progress.totalCells) {
            final_seen = true;
            // Everything planned was simulated; nothing remains.
            EXPECT_EQ(progress.completedRefs, planned);
            EXPECT_DOUBLE_EQ(progress.etaSeconds(), 0.0);
        } else if (progress.refsPerSecond() > 0.0) {
            EXPECT_GT(progress.etaSeconds(), 0.0);
        }
    });
    EXPECT_EQ(calls, 2 * traces.size());
    EXPECT_TRUE(final_seen);
}

TEST(RunnerTest, CellTimingsCarryTimelineCoordinates)
{
    const auto traces = smallSuite();
    const GridResult result = grid({"Dir0B"}, traces, 1);
    EXPECT_GT(result.startNs, 0u);
    for (const CellTiming &cell : result.cells) {
        EXPECT_GE(cell.startNs, result.startNs);
        // Sequential run: every cell on the calling thread's lane.
        EXPECT_EQ(cell.threadTag, result.cells[0].threadTag);
    }
}

TEST(RunnerTest, CellErrorsPropagateFromWorkers)
{
    const auto traces = smallSuite();
    SimConfig sim;
    sim.warmupRefs = traces[0].size() + 1; // consumes every trace
    EXPECT_THROW(grid({"Dir0B", "WTI"}, traces, 2, {}, sim),
                 UsageError);
}

TEST(RunnerTest, EmptyInputsRejected)
{
    const auto traces = smallSuite();
    EXPECT_THROW(runGrid({}, TraceRef::of(traces)), UsageError);
    EXPECT_THROW(runGrid({parseScheme("Dir0B")}, {}), UsageError);
}

TEST(RunnerTest, JobsResolveFromEnvironment)
{
    unsetenv("DIRSIM_JOBS");
    EXPECT_EQ(RunOptions{}.jobs, 0u);
    EXPECT_EQ(defaultJobs(), ThreadPool::hardwareThreads());

    setenv("DIRSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    EXPECT_EQ(RunOptions{}.resolvedJobs(), 3u);
    const auto traces = smallSuite();
    EXPECT_EQ(runGrid({parseScheme("Dir0B")}, TraceRef::of(traces)).jobs,
              3u);

    setenv("DIRSIM_JOBS", "nope", 1);
    EXPECT_THROW(defaultJobs(), UsageError);
    unsetenv("DIRSIM_JOBS");

    RunOptions fixed;
    fixed.jobs = 5;
    EXPECT_EQ(fixed.resolvedJobs(), 5u);
}

TEST(RunnerTest, SimConfigFromEnvironment)
{
    unsetenv("DIRSIM_BLOCK_BYTES");
    unsetenv("DIRSIM_WARMUP_REFS");
    unsetenv("DIRSIM_SHARING");
    const SimConfig defaults = SimConfig::fromEnvironment();
    EXPECT_EQ(defaults.blockBytes, SimConfig{}.blockBytes);
    EXPECT_EQ(defaults.warmupRefs, 0u);
    EXPECT_EQ(defaults.sharing, SharingModel::ByProcess);

    setenv("DIRSIM_BLOCK_BYTES", "32", 1);
    setenv("DIRSIM_WARMUP_REFS", "1000", 1);
    setenv("DIRSIM_SHARING", "processor", 1);
    const SimConfig tuned = SimConfig::fromEnvironment();
    EXPECT_EQ(tuned.blockBytes, 32u);
    EXPECT_EQ(tuned.warmupRefs, 1000u);
    EXPECT_EQ(tuned.sharing, SharingModel::ByProcessor);

    setenv("DIRSIM_SHARING", "both", 1);
    EXPECT_THROW(SimConfig::fromEnvironment(), UsageError);
    unsetenv("DIRSIM_BLOCK_BYTES");
    unsetenv("DIRSIM_WARMUP_REFS");
    unsetenv("DIRSIM_SHARING");
}

/** Names of the run-level runner.grid/cache/plan/build metrics. */
std::set<std::string>
runMetricNames(const MetricRegistry &metrics)
{
    std::set<std::string> names;
    for (const auto &[name, metric] : metrics)
        for (const char *prefix :
             {"runner.grid.", "runner.cache.", "runner.plan.",
              "runner.build."})
            if (name.rfind(prefix, 0) == 0)
                names.insert(name);
    return names;
}

TEST(ExecutorParityTest, GridAndSweepAgreeOnTraceFiles)
{
    // The same scheme x trace-file cells through runGrid() and through
    // runSweep() on a spec over the same files: one executor, so the
    // results and the run-level metric names must agree.
    const auto traces = smallSuite();
    const std::string dir = testing::TempDir() + "/executor_parity_"
        + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    std::vector<std::string> paths;
    std::string spec = R"({"name":"parity","schemes":["Dir0B","WTI"],)"
                       R"("traces":[)";
    for (const Trace &trace : traces) {
        paths.push_back(dir + "/" + trace.name() + ".trace");
        writeBinaryTraceFile(trace, paths.back());
        spec += std::string(paths.size() > 1 ? "," : "")
            + R"({"file":")" + paths.back() + R"("})";
    }
    spec += "]}";
    const SweepPlan plan = expandSweep(parseSweepSpec(spec));
    ASSERT_EQ(plan.cells.size(), 2 * traces.size());

    for (const unsigned jobs : {1u, 4u}) {
        JobOptions options;
        options.cache = std::make_shared<FileCellCache>(
            dir + "/grid_cache_" + std::to_string(jobs));
        const GridResult grid =
            test::gridOnJobs(jobs, {"Dir0B", "WTI"},
                             TraceRef::files(paths), {}, options);

        SweepOptions sweep_options;
        sweep_options.jobs = jobs;
        sweep_options.cache = std::make_shared<FileCellCache>(
            dir + "/sweep_cache_" + std::to_string(jobs));
        const SweepOutcome sweep = runSweep(plan, sweep_options);
        ASSERT_TRUE(sweep.completed);

        for (std::size_t i = 0; i < sweep.records.size(); ++i) {
            const SweepCell &cell = plan.cells[sweep.cellIndices[i]];
            const std::size_t s = cell.scheme.name() == "Dir0B" ? 0 : 1;
            const SimResult &live =
                grid.schemes[s].perTrace[cell.traceIndex];
            const CellRecord &record = sweep.records[i];
            EXPECT_EQ(record.scheme, live.scheme);
            EXPECT_EQ(record.numCaches, live.numCaches);
            EXPECT_EQ(record.totalRefs, live.totalRefs);
            EXPECT_TRUE(record.events == live.events) << cell.label;
            EXPECT_TRUE(record.ops == live.ops) << cell.label;
            EXPECT_TRUE(record.cleanWriteHolders
                        == live.cleanWriteHolders)
                << cell.label;
        }

        const MetricRegistry grid_metrics = gridMetrics(grid);
        EXPECT_EQ(runMetricNames(grid_metrics),
                  runMetricNames(sweep.metrics));
        EXPECT_TRUE(grid_metrics.has("runner.plan.decode_seconds"));
        EXPECT_TRUE(grid_metrics.has("runner.plan.wall_seconds"));
        for (const char *name :
             {"runner.grid.jobs", "runner.grid.cells",
              "runner.grid.hardware_threads", "runner.build.optimized"})
            EXPECT_EQ(grid_metrics.gauge(name), sweep.metrics.gauge(name))
                << name;
        for (const char *name :
             {"runner.cache.hits", "runner.cache.misses",
              "runner.grid.simulated_refs"})
            EXPECT_EQ(grid_metrics.counter(name),
                      sweep.metrics.counter(name))
                << name;
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace dirsim
