/**
 * @file
 * Block-sharding equality suite: a cell split into K shards
 * (sim/job.hh simulateTraceSharded and the ShardPlan-driven runner
 * path) must produce bit-identical SimResults — and identical tracer
 * distributions — to the sequential cell, across every paper scheme
 * and suite trace, shard counts beyond the block count, parallel
 * grids, warm-up windows, and traced runs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/tracer.hh"
#include "sim/decoded.hh"
#include "sim/experiment.hh"
#include "sim/job.hh"
#include "sim/suite.hh"
#include "test_util.hh"

namespace dirsim
{
namespace
{

std::vector<Trace>
smallSuite()
{
    SuiteParams params;
    params.refsPerTrace = 30'000;
    params.seed = 11;
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

TEST(ShardTest, BitIdenticalAcrossSchemesTracesAndShardCounts)
{
    const auto traces = smallSuite();
    for (const Trace &trace : traces) {
        const DecodedTrace decoded = decodeTrace(
            trace, defaultBlockBytes, SharingModel::ByProcess);
        for (const auto &scheme : paperSchemes()) {
            const SchemeSpec spec = parseScheme(scheme);
            const SimResult reference = simulateTrace(trace, spec);
            // 64 shards exceeds the suite traces' hardware threads
            // and, combined with the clamp test below, exercises the
            // tail where shards own very few blocks.
            for (const unsigned shards : {1u, 2u, 7u, 64u}) {
                expectIdentical(
                    simulateTraceSharded(decoded, spec, {}, shards),
                    reference);
            }
        }
    }
}

TEST(ShardTest, ShardCountClampsToBlockCount)
{
    const auto traces = smallSuite();
    const DecodedTrace decoded = decodeTrace(
        traces[0], defaultBlockBytes, SharingModel::ByProcess);
    const SimResult reference =
        simulateTrace(traces[0], parseScheme("Dir1NB"));
    // More shards than blocks: every block still lands in exactly
    // one shard and the result is unchanged.
    expectIdentical(simulateTraceSharded(decoded, parseScheme("Dir1NB"),
                                         {}, decoded.blockCount() + 13),
                    reference);
}

TEST(ShardTest, WarmupAndInvariantChecksMatchSharded)
{
    const auto traces = smallSuite();
    SimConfig config;
    config.warmupRefs = 7'000;
    // Also turns on the cross-shard disjointness audit in the merge.
    config.invariantCheckPeriod = 2'048;
    const DecodedTrace decoded = decodeTrace(
        traces[2], config.blockBytes, config.sharing);
    for (const std::string scheme : {"Dir0B", "DirNNB", "DirCV"}) {
        const SimResult reference =
            simulateTrace(traces[2], parseScheme(scheme), config);
        for (const unsigned shards : {2u, 7u}) {
            expectIdentical(
                simulateTraceSharded(decoded, parseScheme(scheme),
                                     config, shards),
                reference);
        }
    }
}

TEST(ShardTest, TracedShardsMergeIdenticalDistributions)
{
    const auto traces = smallSuite();
    const Trace &trace = traces[1];
    const DecodedTrace decoded = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);
    const SchemeSpec scheme = parseScheme("Dir1NB");
    const SimResult untraced = simulateTrace(trace, scheme);

    // Reference distributions from an unsharded traced run.
    TracerConfig tracer_config;
    tracer_config.samplePeriod = 64;
    EventTracer sequential(tracer_config);
    {
        const ShardSinkFactory make_sink = [&](unsigned) {
            return sequential.session(scheme.name(), trace.name());
        };
        expectIdentical(
            simulateTraceSharded(decoded, scheme, {}, 1, make_sink),
            untraced);
    }

    // A sharded traced run: one session per shard, merged on close.
    // The write-run and sharer-set tracking is per-block, so the
    // merged histograms are exact, not approximate.
    for (const unsigned shards : {2u, 7u}) {
        EventTracer tracer(tracer_config);
        {
            const ShardSinkFactory make_sink = [&](unsigned) {
                return tracer.session(scheme.name(), trace.name());
            };
            expectIdentical(simulateTraceSharded(decoded, scheme, {},
                                                 shards, make_sink),
                            untraced);
        }
        EXPECT_TRUE(tracer.invalidations()
                    == sequential.invalidations())
            << shards << " shards";
        EXPECT_TRUE(tracer.sharerSetSizes()
                    == sequential.sharerSetSizes())
            << shards << " shards";
        EXPECT_TRUE(tracer.writeRunLengths()
                    == sequential.writeRunLengths())
            << shards << " shards";
    }
}

TEST(ShardTest, ShardedCellsRejectUnshardableConfigs)
{
    const auto traces = smallSuite();
    SimConfig finite;
    FiniteCacheConfig geometry;
    geometry.capacityBytes = 4 * 1024;
    geometry.ways = 2;
    geometry.blockBytes = finite.blockBytes;
    finite.finiteCache = geometry;
    const DecodedTrace decoded = decodeTrace(
        traces[0], defaultBlockBytes, SharingModel::ByProcess);
    // Direct calls with K > 1 refuse finite caches (set replacement
    // couples co-resident blocks); the planner instead resolves such
    // cells to one shard — see ShardPlanResolvesPolicy below.
    EXPECT_THROW(simulateTraceSharded(decoded, parseScheme("Dir0B"),
                                      finite, 2),
                 UsageError);
}

TEST(ShardTest, ShardPlanResolvesPolicy)
{
    ShardPlan plan;

    // Default: sequential everywhere.
    EXPECT_EQ(plan.resolve(1'000'000, 4'096, false), 1u);

    // Forced K clamps to the block count and to >= 1.
    plan.shards = 8;
    EXPECT_EQ(plan.resolve(1'000'000, 4'096, false), 8u);
    EXPECT_EQ(plan.resolve(1'000'000, 3, false), 3u);

    // Finite caches always run one shard.
    EXPECT_EQ(plan.resolve(1'000'000, 4'096, true), 1u);

    // Auto sizing: refs / minRefsPerShard, capped by maxShards.
    plan.shards = 0;
    plan.minRefsPerShard = 100'000;
    plan.maxShards = 4;
    EXPECT_EQ(plan.resolve(250'000, 4'096, false), 2u);
    EXPECT_EQ(plan.resolve(10'000'000, 4'096, false), 4u);
    EXPECT_EQ(plan.resolve(50'000, 4'096, false), 1u);
}

TEST(ShardTest, RunnerGridsWithShardsMatchLegacyAcrossJobCounts)
{
    const auto traces = smallSuite();
    const auto &schemes = paperSchemes();

    const GridResult reference =
        test::gridOnJobs(1, schemes, TraceRef::of(traces));

    for (const unsigned jobs : {1u, 4u}) {
        for (const unsigned shards : {2u, 7u}) {
            JobOptions options;
            options.shards.shards = shards;
            const GridResult grid = test::gridOnJobs(
                jobs, schemes, TraceRef::of(traces), {}, options);
            ASSERT_EQ(grid.schemes.size(), reference.schemes.size());
            for (std::size_t s = 0; s < grid.schemes.size(); ++s)
                for (std::size_t t = 0;
                     t < grid.schemes[s].perTrace.size(); ++t)
                    expectIdentical(grid.schemes[s].perTrace[t],
                                    reference.schemes[s].perTrace[t]);
            for (const CellTiming &cell : grid.cells)
                EXPECT_EQ(cell.shards, shards) << cell.scheme;
        }
    }
}

TEST(ShardTest, RunJobMatchesLegacyEntryPoints)
{
    const auto traces = smallSuite();
    const Trace &trace = traces[0];
    const SchemeSpec scheme = parseScheme("Dir4NB");
    const SimResult reference = simulateTrace(trace, scheme);

    // Memory job, default options.
    JobOptions options;
    const CellOutcome memory =
        runJob({TraceRef::of(trace), scheme, {}}, options);
    expectIdentical(memory.result, reference);
    EXPECT_FALSE(memory.timing.cacheHit);
    EXPECT_EQ(memory.timing.refs, trace.size());

    // Decoded job with sharding.
    const DecodedTrace decoded = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);
    JobOptions sharded;
    sharded.shards.shards = 4;
    const CellOutcome via_decoded =
        runJob({TraceRef::of(decoded), scheme, {}}, sharded);
    expectIdentical(via_decoded.result, reference);
    EXPECT_EQ(via_decoded.timing.shards, 4u);

    // A batch over every paper scheme, parallel workers, job order.
    std::vector<SimJob> jobs;
    for (const std::string &name : paperSchemes())
        jobs.push_back({TraceRef::of(trace), parseScheme(name), {}});
    const std::vector<CellOutcome> outcomes =
        runJobs(jobs, options, /* workers */ 4);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        expectIdentical(outcomes[j].result,
                        simulateTrace(trace, jobs[j].scheme));
    }
}

} // namespace
} // namespace dirsim
