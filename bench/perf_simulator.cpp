/**
 * @file
 * google-benchmark microbenchmarks: trace-generation and simulation
 * throughput (references per second) for every scheme, the trace
 * decode pass (BM_Decode), single-cell simulation of a decoded stream
 * (BM_SimulateDecoded), plus the parallel experiment runner at
 * several job counts (BM_RunGrid/1 is the sequential baseline; the
 * default-jobs run should approach a jobs-fold speedup on an idle
 * multi-core host).
 *
 * The sharded-cell engine (sim/job.hh) gets its own coverage:
 * BM_SimulateSharded (one large cell at several shard counts) and
 * BM_RunGridSharded (the paper grid with intra-cell sharding).
 *
 * The machine-size axis gets BM_ScalingGrid: the 8-scheme scaling
 * grid (sim/scaling.hh) over one N-cache trace at N in
 * {64, 256, 1024}, exercising the flat SharerStore arenas that keep
 * large-N throughput off the per-block-allocation cliff.
 *
 * After the microbenchmarks, two timed grids are recorded as
 * structured artifacts (manifest + per-cell throughput metrics,
 * obs/sink.hh) to BENCH_9.json — the repo's perf trajectory file —
 * compared record-by-record by bench/compare_bench.py:
 *
 *  - the paper grid, along with two engine measurements: the
 *    sequential-vs-8-shard throughput of the largest suite trace
 *    under Dir4NB (perf.shard.*, bit-identity asserted) and a
 *    cold-then-warm cell-cache grid replay (perf.cache.*, zero
 *    simulated references asserted);
 *
 *  - the N=1024 scaling grid (the BENCH_7 workload: 8 schemes x
 *    600k refs), along with its shard-scaling curve at 1, 4, and 16
 *    shards (perf.scaling.shard<K>.*, bit-identity asserted).
 *
 * DIRSIM_BENCH_JSON overrides the destination; set it to an empty
 * string to skip the grids entirely.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include <benchmark/benchmark.h>

#include "dirsim/dirsim.hh"

namespace
{

using namespace dirsim;

const Trace &
benchTrace()
{
    static const Trace trace = generateTrace("pops", 200'000, 12345);
    return trace;
}

void
BM_GenerateTrace(benchmark::State &state)
{
    const auto refs = static_cast<std::uint64_t>(state.range(0));
    std::uint64_t seed = 1;
    for (auto _ : state) {
        const Trace trace = generateTrace("pops", refs, seed++);
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(refs));
}
BENCHMARK(BM_GenerateTrace)->Arg(50'000)->Arg(200'000);

void
BM_Decode(benchmark::State &state)
{
    const Trace &trace = benchTrace();
    for (auto _ : state) {
        const DecodedTrace decoded = decodeTrace(
            trace, defaultBlockBytes, SharingModel::ByProcess);
        benchmark::DoNotOptimize(decoded.numRecords());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_Decode);

void
BM_SimulateDecoded(benchmark::State &state, const char *scheme)
{
    const Trace &trace = benchTrace();
    const DecodedTrace decoded = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);
    for (auto _ : state) {
        const SimResult result = simulateTrace(decoded, parseScheme(scheme));
        benchmark::DoNotOptimize(result.totalRefs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK_CAPTURE(BM_SimulateDecoded, dir1nb, "Dir1NB");
BENCHMARK_CAPTURE(BM_SimulateDecoded, dir0b, "Dir0B");
BENCHMARK_CAPTURE(BM_SimulateDecoded, dragon, "Dragon");
BENCHMARK_CAPTURE(BM_SimulateDecoded, dirnnb, "DirNNB");

const std::vector<Trace> &
gridSuite()
{
    static const std::vector<Trace> traces = [] {
        SuiteParams params;
        params.refsPerTrace = 150'000;
        params.seed = 88;
        return standardSuite(params);
    }();
    return traces;
}

/** The paper grid through runGrid() (Arg = jobs; 0 = default
 *  concurrency, DIRSIM_JOBS / hardware threads). */
void
BM_RunGrid(benchmark::State &state)
{
    RunOptions run;
    run.jobs = static_cast<unsigned>(state.range(0));
    const auto schemes = parseSchemes(paperSchemes());
    const auto inputs = TraceRef::of(gridSuite());
    std::uint64_t grid_refs = 0;
    for (auto _ : state) {
        const GridResult grid =
            runGrid(schemes, inputs, {}, JobOptions{}, run);
        grid_refs = grid.totalRefs();
        benchmark::DoNotOptimize(grid.schemes.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(grid_refs));
}

BENCHMARK(BM_RunGrid)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** One large decoded cell at several shard counts (Arg = shards). */
void
BM_SimulateSharded(benchmark::State &state)
{
    const Trace &trace = benchTrace();
    const DecodedTrace decoded = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);
    const SchemeSpec scheme = parseScheme("Dir4NB");
    const auto shards = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const SimResult result =
            simulateTraceSharded(decoded, scheme, {}, shards);
        benchmark::DoNotOptimize(result.totalRefs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_SimulateSharded)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

/** The paper grid with intra-cell block sharding (Arg = shards). */
void
BM_RunGridSharded(benchmark::State &state)
{
    JobOptions options;
    options.shards.shards = static_cast<unsigned>(state.range(0));
    RunOptions run;
    run.jobs = 1;
    const auto schemes = parseSchemes(paperSchemes());
    const auto inputs = TraceRef::of(gridSuite());
    std::uint64_t grid_refs = 0;
    for (auto _ : state) {
        const GridResult grid =
            runGrid(schemes, inputs, {}, options, run);
        grid_refs = grid.totalRefs();
        benchmark::DoNotOptimize(grid.schemes.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(grid_refs));
}
BENCHMARK(BM_RunGridSharded)
    ->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * The N=1024 workload of the committed BENCH_7 grid: one scale-N
 * trace (600k refs, default scaling seed), run below against
 * scalingSchemes() and recorded as the trajectory file's second
 * metrics record.
 */
const std::vector<Trace> &
scalingGridSuite()
{
    static const std::vector<Trace> traces = [] {
        std::vector<Trace> out;
        out.push_back(scalingTrace(1024, ScalingParams{}));
        return out;
    }();
    return traces;
}

/**
 * The 8-scheme scaling grid over one N-cache trace (Arg = N). The
 * large-N points stress the sharer storage itself: with per-block
 * heap sharer sets the N=1024 grid ran ~22x slower per reference
 * than the paper grid; the flat SharerStore arena is what this
 * benchmark watches.
 */
void
BM_ScalingGrid(benchmark::State &state)
{
    const auto n = static_cast<unsigned>(state.range(0));
    ScalingParams params;
    std::vector<Trace> traces;
    traces.push_back(scalingTrace(n, params));
    RunOptions run;
    run.jobs = 1;
    const auto inputs = TraceRef::of(traces);
    std::uint64_t grid_refs = 0;
    for (auto _ : state) {
        const GridResult grid =
            runGrid(scalingSchemes(), inputs, {}, JobOptions{}, run);
        grid_refs = grid.totalRefs();
        benchmark::DoNotOptimize(grid.schemes.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(grid_refs));
}
BENCHMARK(BM_ScalingGrid)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_TraceStats(benchmark::State &state)
{
    const Trace &trace = benchTrace();
    for (auto _ : state) {
        const TraceStats stats = computeTraceStats(trace);
        benchmark::DoNotOptimize(stats.refs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_TraceStats);

double
secondsOf(const std::function<void()> &work)
{
    const auto start = std::chrono::steady_clock::now();
    work();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Sequential-vs-sharded throughput of one large cell: the largest
 * suite trace under Dir4NB, 1 shard vs 8 shards. Bit-identity is
 * asserted; the measured ratio lands in the trajectory file as
 * perf.shard.speedup. The ratio scales with free cores — every shard
 * scans the full record stream, so a loaded or single-core host
 * reports the scan overhead rather than the parallel win (see
 * docs/performance.md).
 */
void
measureShardSpeedup(MetricRegistry &metrics)
{
    SuiteParams params;
    params.refsPerTrace = 1'000'000;
    params.seed = 88;
    const std::vector<Trace> traces = standardSuite(params);
    const Trace *largest = &traces[0];
    for (const Trace &trace : traces)
        if (trace.size() > largest->size())
            largest = &trace;

    const DecodedTrace decoded = decodeTrace(
        *largest, defaultBlockBytes, SharingModel::ByProcess);
    const SchemeSpec scheme = parseScheme("Dir4NB");

    SimResult sequential, sharded;
    const double seq_seconds = secondsOf([&] {
        sequential = simulateTrace(decoded, scheme);
    });
    const double shard_seconds = secondsOf([&] {
        sharded = simulateTraceSharded(decoded, scheme, {}, 8);
    });
    fatalIf(!(sequential.events == sharded.events)
                || !(sequential.ops == sharded.ops)
                || !(sequential.cleanWriteHolders
                     == sharded.cleanWriteHolders),
            "sharded ", largest->name(),
            "/Dir4NB diverged from the sequential cell");

    const double refs = static_cast<double>(largest->size());
    metrics.set("perf.shard.refs_per_second.seq",
                seq_seconds > 0.0 ? refs / seq_seconds : 0.0);
    metrics.set("perf.shard.refs_per_second.shard8",
                shard_seconds > 0.0 ? refs / shard_seconds : 0.0);
    const double speedup =
        shard_seconds > 0.0 ? seq_seconds / shard_seconds : 0.0;
    metrics.set("perf.shard.speedup", speedup);
    std::cerr << "shard scaling: " << largest->name()
              << "/Dir4NB x8 shards = " << speedup
              << "x sequential (" << ThreadPool::hardwareThreads()
              << " hardware threads)\n";
}

/**
 * The N=1024 grid driven through intra-cell block sharding at 1, 4,
 * and 16 shards (the DIRSIM_SHARDS axis). Every shard count must
 * reproduce the sequential grid's deterministic results exactly; the
 * throughput of each point lands in the trajectory file as
 * perf.scaling.shard<K>.refs_per_second, with the 16-shard speedup
 * over sequential as perf.scaling.shard16.speedup. Like
 * perf.shard.*, the measured ratio scales with free cores.
 */
void
measureScalingShardCurve(MetricRegistry &metrics)
{
    const std::vector<Trace> &traces = scalingGridSuite();
    const std::vector<SchemeSpec> schemes = scalingSchemes();

    GridResult sequential;
    double seq_seconds = 0.0;
    for (const unsigned shards : {1u, 4u, 16u}) {
        JobOptions options;
        options.shards.shards = shards;
        RunOptions run;
        run.jobs = 1;
        GridResult grid;
        const double seconds = secondsOf([&] {
            grid = runGrid(schemes, TraceRef::of(traces), {}, options,
                           run);
        });
        if (shards == 1) {
            sequential = grid;
            seq_seconds = seconds;
        } else {
            for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
                const SimResult &a = sequential.schemes[s].perTrace[0];
                const SimResult &b = grid.schemes[s].perTrace[0];
                fatalIf(!(a.events == b.events) || !(a.ops == b.ops)
                            || !(a.cleanWriteHolders
                                 == b.cleanWriteHolders),
                        "scale1024/", sequential.schemes[s].scheme,
                        " diverged at ", shards, " shards");
            }
        }
        const double refs = static_cast<double>(grid.totalRefs());
        metrics.set("perf.scaling.shard"
                        + std::to_string(shards)
                        + ".refs_per_second",
                    seconds > 0.0 ? refs / seconds : 0.0);
        if (shards == 16) {
            metrics.set("perf.scaling.shard16.speedup",
                        seconds > 0.0 ? seq_seconds / seconds : 0.0);
        }
        std::cerr << "scaling grid: N=1024 x " << shards
                  << " shard(s) = " << refs / seconds
                  << " refs/s\n";
    }
}

/**
 * Cold-then-warm cell-cache replay of the paper grid. The warm run
 * must simulate nothing; its wall time and hit counts land in the
 * trajectory file as perf.cache.*.
 */
void
measureWarmCacheReplay(MetricRegistry &metrics)
{
    const auto cache_dir = std::filesystem::temp_directory_path()
        / "dirsim_perf_cell_cache";
    std::filesystem::remove_all(cache_dir);
    JobOptions options;
    options.cache = std::make_shared<FileCellCache>(cache_dir.string());
    const auto schemes = parseSchemes(paperSchemes());
    const auto inputs = TraceRef::of(gridSuite());

    GridResult cold, warm;
    const double cold_seconds = secondsOf([&] {
        cold = runGrid(schemes, inputs, {}, options);
    });
    const double warm_seconds = secondsOf([&] {
        warm = runGrid(schemes, inputs, {}, options);
    });
    fatalIf(warm.cacheHits() != warm.cells.size()
                || warm.simulatedRefs() != 0,
            "warm cell-cache grid simulated ", warm.simulatedRefs(),
            " refs across ", warm.cacheMisses(),
            " misses; expected a full replay");

    metrics.set("perf.cache.cold_wall_seconds", cold_seconds);
    metrics.set("perf.cache.warm_wall_seconds", warm_seconds);
    metrics.add("perf.cache.warm_hits", warm.cacheHits());
    metrics.add("perf.cache.warm_simulated_refs",
                warm.simulatedRefs());
    std::cerr << "warm cell cache: " << warm.cacheHits() << "/"
              << warm.cells.size() << " cells replayed in "
              << warm_seconds << "s (cold " << cold_seconds
              << "s)\n";
    std::filesystem::remove_all(cache_dir);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const char *override_path = std::getenv("DIRSIM_BENCH_JSON");
    const std::string out =
        override_path ? override_path : "BENCH_9.json";
    if (out.empty())
        return 0;
    try {
        // One stream, two artifact records (paper grid, then the
        // N=1024 scaling grid) — compare_bench.py diffs them in file
        // order against the committed baseline.
        std::ofstream stream(out, std::ios::trunc);
        fatalIf(!stream, "cannot write ", out);

        MetricRegistry engine_metrics;
        measureShardSpeedup(engine_metrics);
        measureWarmCacheReplay(engine_metrics);
        {
            JsonlSink sink(stream);
            runWithArtifacts(
                parseSchemes(paperSchemes()), TraceRef::of(gridSuite()),
                {}, JobOptions::fromEnvironment(), {}, sink,
                [&engine_metrics](MetricRegistry &metrics) {
                    metrics.merge(engine_metrics);
                });
        }

        MetricRegistry scaling_metrics;
        measureScalingShardCurve(scaling_metrics);
        {
            JsonlSink sink(stream);
            runWithArtifacts(
                scalingSchemes(), TraceRef::of(scalingGridSuite()), {},
                JobOptions::fromEnvironment(), {}, sink,
                [&scaling_metrics](MetricRegistry &metrics) {
                    metrics.merge(scaling_metrics);
                });
        }
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
    std::cerr << "perf trajectory written to " << out << '\n';
    return 0;
}
