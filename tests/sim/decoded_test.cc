/**
 * @file
 * Decode-once suite: the DecodedTrace stream (data refs plus
 * instruction run lengths) expands back into its source records, and every entry point — a decoded stream, an in-memory
 * Trace, a trace file, sequential and parallel grids, traced and
 * untraced runs, infinite and finite caches — produces bit-identical
 * SimResults. The engine's absolute results are pinned by the golden
 * cell records (tests/golden/).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"
#include "sim/decoded.hh"
#include "sim/job.hh"
#include "sim/experiment.hh"
#include "sim/suite.hh"
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

void
expectIdenticalGrids(const GridResult &a, const GridResult &b)
{
    ASSERT_EQ(a.schemes.size(), b.schemes.size());
    for (std::size_t s = 0; s < a.schemes.size(); ++s) {
        EXPECT_EQ(a.schemes[s].scheme, b.schemes[s].scheme);
        ASSERT_EQ(a.schemes[s].perTrace.size(),
                  b.schemes[s].perTrace.size());
        for (std::size_t t = 0; t < a.schemes[s].perTrace.size(); ++t)
            expectIdentical(a.schemes[s].perTrace[t],
                            b.schemes[s].perTrace[t]);
    }
}

/** Record kinds, 'I'/'R'/'W', in order. */
std::string
kindsOf(const Trace &trace)
{
    std::string kinds;
    for (const TraceRecord &record : trace)
        kinds += record.isInstr() ? 'I' : record.isRead() ? 'R' : 'W';
    return kinds;
}

/** The record kinds @p decoded's run lengths expand back into. */
std::string
kindsOf(const DecodedTrace &decoded)
{
    std::string kinds;
    for (std::uint64_t i = 0; i < decoded.dataRefs; ++i) {
        kinds.append(decoded.instrsBefore(i), 'I');
        kinds += (decoded.ops[i] & decodedOpKindMask) == decodedOpRead
            ? 'R'
            : 'W';
    }
    kinds.append(decoded.trailingInstrs, 'I');
    return kinds;
}

TEST(DecodedTraceTest, DecodeReportsExactShape)
{
    const auto traces = smallSuite();
    for (const Trace &trace : traces) {
        const DecodedTrace decoded =
            decodeTrace(trace, defaultBlockBytes,
                        SharingModel::ByProcess);
        EXPECT_EQ(decoded.name, trace.name());
        EXPECT_EQ(decoded.numRecords(), trace.size());
        EXPECT_EQ(decoded.cachesNeeded,
                  cachesNeeded(trace, SharingModel::ByProcess));
        EXPECT_LE(decoded.cachesUsed, decoded.cachesNeeded);
        EXPECT_GT(decoded.blockCount(), 0u);
        EXPECT_EQ(decoded.ops.size(), decoded.dataRefs);
        EXPECT_EQ(decoded.blocks.size(), decoded.dataRefs);
        EXPECT_EQ(decoded.caches.size(), decoded.dataRefs);
        EXPECT_EQ(decoded.instrRuns.size(), decoded.dataRefs);
        EXPECT_GT(decoded.memoryBytes(), 0u);

        // Replay the stream by hand: data ref j carries the
        // instructions just before it, its kind and flags mirror the
        // raw record, each dense index labels the real block, and
        // the first-ref flag fires exactly once per block.
        std::vector<bool> seen(decoded.blockCount(), false);
        std::uint64_t j = 0;
        std::uint64_t run = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const TraceRecord &record = trace[i];
            if (record.isInstr()) {
                ++run;
                continue;
            }
            ASSERT_LT(j, decoded.dataRefs);
            EXPECT_EQ(decoded.instrsBefore(j), run) << "data ref " << j;
            run = 0;
            const std::uint8_t op = decoded.ops[j];
            EXPECT_EQ(op & decodedOpKindMask,
                      record.isRead() ? decodedOpRead : decodedOpWrite);
            const std::uint32_t index = decoded.blocks[j];
            ASSERT_LT(index, decoded.blockCount());
            EXPECT_EQ(decoded.denseToBlock[index],
                      blockNumber(record.addr, defaultBlockBytes));
            EXPECT_EQ((op & decodedOpFirstRef) != 0, !seen[index]);
            seen[index] = true;
            EXPECT_LT(decoded.caches[j], decoded.cachesUsed);
            ++j;
        }
        EXPECT_EQ(decoded.dataRefs, j);
        EXPECT_EQ(decoded.trailingInstrs, run);
        EXPECT_EQ(kindsOf(decoded), kindsOf(trace));
    }
}

/**
 * A hand-built trace: runs[k] instructions, then data ref k, ...,
 * then @p trailing instructions. Data refs cycle over three
 * processes and five blocks (writes every third); process 9 issues
 * only instructions.
 */
Trace
runTrace(const std::vector<std::uint64_t> &runs, std::uint64_t trailing)
{
    Trace trace("runs", 4);
    const auto instructions = [&](std::uint64_t count) {
        for (std::uint64_t n = 0; n < count; ++n)
            trace.append({0x100000 + 4 * (n % 256), n % 7 == 0 ? 9u : 1u,
                          3, RefType::Instr, flagNone});
    };
    for (std::size_t k = 0; k < runs.size(); ++k) {
        instructions(runs[k]);
        const auto pid = static_cast<ProcId>(k % 3);
        trace.append({0x8000 + 16 * ((k * 7) % 5), pid,
                      static_cast<CpuId>(pid),
                      k % 3 == 0 ? RefType::Write : RefType::Read,
                      flagNone});
    }
    instructions(trailing);
    return trace;
}

/** Every timeline event's reference ordinal (sample period 1). */
class OrdinalSink : public ProtocolTraceSink
{
  public:
    unsigned samplePeriod() const override { return 1; }
    void emit(const ProtocolTraceEvent &event) override
    {
        refs.push_back(event.ref);
    }
    void cleanWriteSample(unsigned) override {}
    void dataRef(BlockNum, CacheId, bool) override {}

    std::vector<std::uint64_t> refs;
};

/**
 * The record-at-a-time loop the run-length stream replaced, over the
 * source Trace: its own first-appearance block and cache numbering,
 * one instruction counted per instruction record, and the warm-up
 * snapshot taken just before record config.warmupRefs.
 */
SimResult
referenceRun(const Trace &trace, const DecodedTrace &decoded,
             const std::string &scheme, const SimConfig &config)
{
    const auto protocol = makeProtocol(
        parseScheme(scheme), decoded.cachesNeeded,
        cacheFactoryFor(config));
    if (config.traceSink != nullptr)
        protocol->attachTracer(config.traceSink);
    protocol->reserveBlocks(decoded.blockCount(),
                            decoded.denseToBlock.data());

    std::unordered_map<BlockNum, std::uint32_t> dense_blocks;
    std::unordered_map<std::uint64_t, CacheId> dense_caches;
    EventCounts warm_events;
    OpCounts warm_ops;
    Histogram warm_holders;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (config.warmupRefs != 0 && i == config.warmupRefs) {
            warm_events = protocol->events();
            warm_ops = protocol->ops();
            warm_holders = protocol->cleanWriteHolders();
        }
        const TraceRecord &record = trace[i];
        if (record.isInstr()) {
            protocol->instructions(1);
            continue;
        }
        const BlockNum block =
            blockNumber(record.addr, config.blockBytes);
        const auto [it, first_ref] = dense_blocks.emplace(
            block, static_cast<std::uint32_t>(dense_blocks.size()));
        EXPECT_EQ(decoded.denseToBlock[it->second], block);
        const std::uint64_t key =
            config.sharing == SharingModel::ByProcess ? record.pid
                                                      : record.cpu;
        const CacheId cache =
            dense_caches
                .emplace(key, static_cast<CacheId>(dense_caches.size()))
                .first->second;
        if (record.isRead())
            protocol->read(cache, it->second, first_ref);
        else
            protocol->write(cache, it->second, first_ref);
    }

    SimResult result;
    result.scheme = protocol->name();
    result.traceName = trace.name();
    result.numCaches = protocol->numCaches();
    result.events = protocol->events();
    result.events.subtract(warm_events);
    result.ops = protocol->ops();
    result.ops.subtract(warm_ops);
    result.cleanWriteHolders = protocol->cleanWriteHolders();
    result.cleanWriteHolders.subtract(warm_holders);
    result.totalRefs = result.events.totalRefs();
    return result;
}

TEST(DecodedTraceTest, LongInstructionRunsTakeTheEscape)
{
    // Runs just under, at, and over the u16 escape, plus a long
    // trailing run: each must expand back exactly.
    const std::vector<std::uint64_t> runs = {0, 65'534, 3, 65'535,
                                             70'000, 1, 0};
    const Trace trace = runTrace(runs, 66'000);
    const DecodedTrace decoded = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);

    ASSERT_EQ(decoded.dataRefs, runs.size());
    EXPECT_EQ(decoded.numRecords(), trace.size());
    EXPECT_EQ(decoded.instrRuns[1], 65'534);
    EXPECT_EQ(decoded.instrRuns[3], instrRunEscape);
    EXPECT_EQ(decoded.instrRuns[4], instrRunEscape);
    ASSERT_EQ(decoded.longInstrRuns.size(), 2u);
    EXPECT_EQ(decoded.longInstrRuns[0].ref, 3u);
    EXPECT_EQ(decoded.longInstrRuns[1].instrs, 70'000u);
    for (std::size_t k = 0; k < runs.size(); ++k)
        EXPECT_EQ(decoded.instrsBefore(k), runs[k]) << "data ref " << k;
    EXPECT_EQ(decoded.trailingInstrs, 66'000u);
    EXPECT_EQ(kindsOf(decoded), kindsOf(trace));

    for (const std::string scheme : {"Dir1NB", "Dragon"}) {
        const SimConfig config;
        expectIdentical(simulateTrace(decoded, parseScheme(scheme)),
                        referenceRun(trace, decoded, scheme, config));
    }
}

TEST(DecodedTraceTest, SizingCountsInstructionOnlyProcesses)
{
    // Process 9 issues only instructions: it sizes the domain but
    // never gets a cache id.
    const Trace trace = runTrace({5, 0, 9, 2, 14}, 8);
    const DecodedTrace by_process = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);
    EXPECT_EQ(by_process.cachesNeeded,
              cachesNeeded(trace, SharingModel::ByProcess));
    EXPECT_EQ(by_process.cachesNeeded, 4u); // pids 0, 1, 2 and 9
    EXPECT_EQ(by_process.cachesUsed, 3u);

    const DecodedTrace by_cpu = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcessor);
    EXPECT_EQ(by_cpu.cachesNeeded,
              cachesNeeded(trace, SharingModel::ByProcessor));
    EXPECT_EQ(by_cpu.cachesUsed, 3u);
}

TEST(DecodedTraceTest, WarmupBoundariesMatchTheRecordLoop)
{
    // Data refs sit at records 4, 5, 9, 10, 11, 19; 3 trailing
    // instructions end at record 22.
    const std::vector<std::uint64_t> runs = {4, 0, 3, 0, 0, 7};
    const Trace trace = runTrace(runs, 3);
    const DecodedTrace decoded = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);
    ASSERT_EQ(decoded.numRecords(), 23u);

    FiniteCacheConfig geometry;
    geometry.capacityBytes = 32; // two 16-byte lines: evictions
    geometry.ways = 1;
    geometry.blockBytes = defaultBlockBytes;
    for (const std::uint64_t warmup :
         {0ull, 2ull, 4ull, 5ull, 9ull, 14ull, 19ull, 20ull, 22ull}) {
        // 2, 14: inside an instruction run; 4, 5, 9, 19: exactly at
        // a data ref; 20, 22: inside the trailing run.
        for (const bool finite : {false, true}) {
            SimConfig config;
            config.warmupRefs = warmup;
            if (finite)
                config.finiteCache = geometry;
            for (const std::string scheme : {"Dir0B", "DirNNB"}) {
                const SimResult reference =
                    referenceRun(trace, decoded, scheme, config);
                expectIdentical(
                    simulateTrace(decoded, parseScheme(scheme), config),
                    reference);
                if (!finite)
                    expectIdentical(
                        simulateTraceSharded(decoded,
                                             parseScheme(scheme), config,
                                             3),
                        reference);
                EXPECT_EQ(reference.totalRefs,
                          decoded.numRecords() - warmup)
                    << "warm-up " << warmup;
            }
        }
    }

    // A warm-up of every record still fails with the record loop's
    // message, sequential and sharded alike.
    SimConfig config;
    config.warmupRefs = decoded.numRecords();
    const std::string message =
        "warm-up of 23 references consumed the whole trace "
        "(23 references)";
    try {
        simulateTrace(decoded, parseScheme("Dir0B"), config);
        ADD_FAILURE() << "whole-trace warm-up accepted";
    } catch (const UsageError &error) {
        EXPECT_EQ(std::string(error.what()), message);
    }
    try {
        simulateTraceSharded(decoded, parseScheme("Dir0B"), config, 3);
        ADD_FAILURE() << "whole-trace warm-up accepted (sharded)";
    } catch (const UsageError &error) {
        EXPECT_EQ(std::string(error.what()), message);
    }
}

TEST(DecodedTraceTest, TracedOrdinalsCountEveryRecord)
{
    // Sample period 1: every data ref emits an event whose ordinal is
    // its 1-based record index in the source, instructions included.
    const auto traces = smallSuite();
    const Trace &trace = traces[0];
    const DecodedTrace decoded = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);
    std::vector<std::uint64_t> expected;
    for (std::size_t i = 0; i < trace.size(); ++i)
        if (trace[i].isData())
            expected.push_back(i + 1);

    for (const std::uint64_t warmup : {0ull, 1'001ull}) {
        OrdinalSink sink;
        SimConfig config;
        config.warmupRefs = warmup;
        config.traceSink = &sink;
        OrdinalSink reference_sink;
        SimConfig reference_config = config;
        reference_config.traceSink = &reference_sink;
        expectIdentical(
            simulateTrace(decoded, parseScheme("Dir1NB"), config),
            referenceRun(trace, decoded, "Dir1NB", reference_config));
        EXPECT_EQ(sink.refs, expected);
        EXPECT_EQ(reference_sink.refs, expected);
    }
}

TEST(DecodedTraceTest, BitIdenticalAcrossPaperSchemes)
{
    const auto traces = smallSuite();
    for (const Trace &trace : traces) {
        const DecodedTrace decoded =
            decodeTrace(trace, defaultBlockBytes,
                        SharingModel::ByProcess);
        for (const auto &scheme : paperSchemes()) {
            expectIdentical(simulateTrace(decoded, parseScheme(scheme)),
                            simulateTrace(trace, parseScheme(scheme)));
        }
    }
}

TEST(DecodedTraceTest, FiniteCachesRunDenseUnderInvariantChecks)
{
    // Finite caches run on the dense arenas too: their evictions
    // reach the holder oracle and the directories by block index, and
    // the invariant checker sweeps every arena as the cells run.
    const auto traces = smallSuite();
    SimConfig config;
    FiniteCacheConfig geometry;
    geometry.capacityBytes = 4 * 1024; // tiny: plenty of evictions
    geometry.ways = 2;
    geometry.blockBytes = config.blockBytes;
    config.finiteCache = geometry;
    config.invariantCheckPeriod = 1'024;

    const DecodedTrace decoded = decodeTrace(
        traces[0], config.blockBytes, config.sharing);
    for (const std::string scheme : {"Dir0B", "Dir2NB", "YenFu"}) {
        const SimResult finite =
            simulateTrace(decoded, parseScheme(scheme), config);
        expectIdentical(finite,
                        simulateTrace(traces[0], parseScheme(scheme), config));
        const SimResult infinite = simulateTrace(decoded, parseScheme(scheme));
        EXPECT_GT(finite.events.count(EventType::RdMiss),
                  infinite.events.count(EventType::RdMiss))
            << scheme;
    }
}

TEST(DecodedTraceTest, TracedRunsStayIdenticalAndLabelRealBlocks)
{
    const auto traces = smallSuite();
    const Trace &trace = traces[1];
    const DecodedTrace decoded = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);
    const SimResult untraced = simulateTrace(trace, parseScheme("Dir1NB"));

    TracerConfig tracer_config;
    tracer_config.samplePeriod = 64;
    EventTracer tracer(tracer_config);
    {
        SimConfig config;
        auto session = tracer.session("Dir1NB", trace.name());
        config.traceSink = session.get();
        expectIdentical(simulateTrace(decoded, parseScheme("Dir1NB"), config),
                        untraced);
    }

    // Dense runs key blocks by densified index internally; the sink
    // must still see original block numbers.
    bool any_event = false;
    for (const auto &timeline : tracer.timelines()) {
        for (const auto &event : timeline.events) {
            any_event = true;
            const auto &labels = decoded.denseToBlock;
            EXPECT_NE(std::find(labels.begin(), labels.end(),
                                event.block),
                      labels.end())
                << "event block " << event.block
                << " is not an original block number";
        }
    }
    EXPECT_TRUE(any_event);
}

TEST(DecodedTraceTest, WarmupAndInvariantChecksMatch)
{
    const auto traces = smallSuite();
    SimConfig config;
    config.warmupRefs = 7'000;
    config.invariantCheckPeriod = 2'048;
    const DecodedTrace decoded = decodeTrace(
        traces[2], config.blockBytes, config.sharing);
    for (const std::string scheme : {"Dir0B", "DirNNB", "DirCV"}) {
        expectIdentical(simulateTrace(decoded, parseScheme(scheme), config),
                        simulateTrace(traces[2], parseScheme(scheme), config));
    }
}

TEST(DecodedTraceTest, RunnerGridsMatchLegacyAcrossJobCounts)
{
    const auto traces = smallSuite();
    const auto &schemes = paperSchemes();

    for (const unsigned jobs : {1u, 4u}) {
        const GridResult grid =
            test::gridOnJobs(jobs, schemes, TraceRef::of(traces));
        // Every cell equals the single-cell entry point's result.
        ASSERT_EQ(grid.schemes.size(), schemes.size());
        for (std::size_t s = 0; s < schemes.size(); ++s)
            for (std::size_t t = 0; t < traces.size(); ++t)
                expectIdentical(
                    grid.schemes[s].perTrace[t],
                    simulateTrace(traces[t], parseScheme(schemes[s])));
        for (std::size_t c = 0; c < grid.cells.size(); ++c)
            EXPECT_EQ(grid.cells[c].refs,
                      traces[c % traces.size()].size());
    }
}

TEST(DecodedTraceTest, RunFilesReadsOnceAndMatchesLegacy)
{
    const auto traces = smallSuite();
    std::vector<std::string> paths;
    for (const auto &trace : traces) {
        const std::string path = testing::TempDir() + "/decoded_"
            + std::to_string(::getpid()) + "_" + trace.name()
            + ".trace";
        writeBinaryTraceFile(trace, path);
        paths.push_back(path);
    }
    const auto &schemes = paperSchemes();

    const GridResult reference =
        test::gridOnJobs(1, schemes, TraceRef::of(traces));

    for (const unsigned jobs : {1u, 4u}) {
        const GridResult grid =
            test::gridOnJobs(jobs, schemes, TraceRef::files(paths));
        expectIdenticalGrids(grid, reference);
    }

    // The single-file API matches too.
    const SimResult in_memory = [&] {
        const DecodedTrace decoded = decodeTraceFile(
            paths[0], defaultBlockBytes, SharingModel::ByProcess);
        return simulateTrace(decoded, parseScheme("Dir4NB"));
    }();
    expectIdentical(runJob({TraceRef::file(paths[0]),
                            parseScheme("Dir4NB"), {}},
                           JobOptions{})
                        .result,
                    in_memory);
}

TEST(DecodedTraceTest, MismatchedGeometryIsRejected)
{
    const auto traces = smallSuite();
    const DecodedTrace decoded = decodeTrace(
        traces[0], defaultBlockBytes, SharingModel::ByProcess);

    SimConfig wrong_block;
    wrong_block.blockBytes = defaultBlockBytes * 2;
    EXPECT_THROW(simulateTrace(decoded, parseScheme("Dir0B"), wrong_block),
                 UsageError);

    SimConfig wrong_sharing;
    wrong_sharing.sharing = SharingModel::ByProcessor;
    EXPECT_THROW(simulateTrace(decoded, parseScheme("Dir0B"), wrong_sharing),
                 UsageError);

    // A protocol domain smaller than the stream's cache ids fails.
    const auto small = makeProtocol("Dir0B", 1);
    if (decoded.cachesUsed > 1) {
        EXPECT_THROW(simulateTrace(decoded, *small), UsageError);
    }
}

TEST(DecodedTraceTest, EmptyTraceFailsLikeTheLegacyPath)
{
    Trace empty("empty", 4);
    const DecodedTrace decoded = decodeTrace(
        empty, defaultBlockBytes, SharingModel::ByProcess);
    EXPECT_EQ(decoded.numRecords(), 0u);
    EXPECT_THROW(simulateTrace(decoded, parseScheme("Dir0B")), UsageError);
    EXPECT_THROW(simulateTrace(empty, parseScheme("Dir0B")), UsageError);
}

} // namespace
} // namespace dirsim
