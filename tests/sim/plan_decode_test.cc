/** @file The planning pass of sim/job.hh buildPlan(): per-stream
 *  decode tasks on the run's workers, per-stream checksums and cache
 *  keys, deterministic errors, and the decode timeline. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/chrome_trace.hh"
#include "sim/experiment.hh"
#include "sim/suite.hh"
#include "sweep/run.hh"
#include "test_util.hh"
#include "trace/writer.hh"

namespace dirsim
{
namespace
{

namespace fs = std::filesystem;

/** A CellCache held in memory, for key-level assertions. */
class MemoryCellCache : public CellCache
{
  public:
    bool
    lookup(std::uint64_t key, SimResult &out) override
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = entries.find(key);
        if (it == entries.end())
            return false;
        out = it->second;
        return true;
    }

    void
    store(std::uint64_t key, const SimResult &result, double) override
    {
        std::lock_guard<std::mutex> lock(mutex);
        entries[key] = result;
    }

  private:
    std::mutex mutex;
    std::map<std::uint64_t, SimResult> entries;
};

/** A scratch directory removed with the fixture. */
class PlanDecodeTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::path(testing::TempDir())
            / ("plan_decode_" + std::to_string(::getpid()));
        fs::create_directories(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    /** The standard suite (pops, thor, pero) written as v2 files. */
    std::vector<std::string>
    suiteFiles()
    {
        SuiteParams params;
        params.refsPerTrace = 20'000;
        params.seed = 11;
        std::vector<std::string> paths;
        for (const Trace &trace : standardSuite(params)) {
            paths.push_back((dir / (trace.name() + ".trace")).string());
            writeBinaryTraceFile(trace, paths.back());
        }
        return paths;
    }

    std::string
    writeFile(const std::string &name, const std::string &bytes)
    {
        const std::string path = (dir / name).string();
        std::ofstream(path, std::ios::binary) << bytes;
        return path;
    }

    fs::path dir;
};

/** Every (file, block, sharing) stream under two schemes. */
std::vector<SimJob>
gridJobs(const std::vector<std::string> &paths,
         const std::vector<unsigned> &blocks)
{
    std::vector<SimJob> jobs;
    for (const SharingModel sharing :
         {SharingModel::ByProcess, SharingModel::ByProcessor}) {
        for (const unsigned block : blocks) {
            for (const std::string &path : paths) {
                for (const char *scheme : {"Dir0B", "WTI"}) {
                    SimConfig config;
                    config.blockBytes = block;
                    config.sharing = sharing;
                    jobs.push_back({TraceRef::file(path),
                                    parseScheme(scheme), config});
                }
            }
        }
    }
    return jobs;
}

void
expectSameStream(const DecodedTrace &a, const DecodedTrace &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.blockBytes, b.blockBytes);
    EXPECT_EQ(a.sharing, b.sharing);
    EXPECT_EQ(a.cachesNeeded, b.cachesNeeded);
    EXPECT_EQ(a.cachesUsed, b.cachesUsed);
    EXPECT_EQ(a.dataRefs, b.dataRefs);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.caches, b.caches);
    EXPECT_EQ(a.denseToBlock, b.denseToBlock);
}

/** A record's deterministic content: timings zeroed. */
std::string
deterministicJson(CellRecord record)
{
    record.wallSeconds = 0.0;
    record.phases = PhaseBreakdown{};
    std::ostringstream os;
    JsonWriter writer(os);
    record.writeJson(writer);
    return os.str();
}

TEST_F(PlanDecodeTest, PlanDoesNotDependOnWorkers)
{
    const std::vector<std::string> paths = suiteFiles();
    const std::vector<SimJob> jobs = gridJobs(paths, {16, 64});
    JobOptions options;
    options.cache = std::make_shared<MemoryCellCache>();

    const SimPlan serial = buildPlan(jobs, options, 1);
    // 3 files x 2 blocks x 2 sharing models, each decoded once.
    ASSERT_EQ(serial.streams.size(), 12u);
    ASSERT_EQ(serial.timing.decodes.size(), 12u);
    ASSERT_EQ(serial.cells.size(), jobs.size());
    std::set<std::uint64_t> stream_checksums;
    for (const auto &stream : serial.streams)
        stream_checksums.insert(traceChecksumFnv64(*stream));
    EXPECT_EQ(stream_checksums.size(), 12u);

    for (const unsigned workers : {2u, 4u}) {
        const SimPlan parallel = buildPlan(jobs, options, workers);
        ASSERT_EQ(parallel.streams.size(), serial.streams.size());
        for (std::size_t s = 0; s < serial.streams.size(); ++s) {
            expectSameStream(*serial.streams[s], *parallel.streams[s]);
            EXPECT_EQ(traceChecksumFnv64(*serial.streams[s]),
                      traceChecksumFnv64(*parallel.streams[s]));
            EXPECT_EQ(serial.timing.decodes[s].traceName,
                      parallel.timing.decodes[s].traceName);
            EXPECT_EQ(serial.timing.decodes[s].blockBytes,
                      parallel.timing.decodes[s].blockBytes);
        }
        ASSERT_EQ(parallel.cells.size(), serial.cells.size());
        for (std::size_t c = 0; c < serial.cells.size(); ++c) {
            const PlannedCell &a = serial.cells[c];
            const PlannedCell &b = parallel.cells[c];
            EXPECT_TRUE(a.cacheable);
            EXPECT_EQ(a.cacheKey, b.cacheKey) << c;
            EXPECT_EQ(a.records, b.records);
            EXPECT_EQ(a.traceName, b.traceName);
            expectSameStream(*a.stream, *b.stream);
        }
    }
}

TEST_F(PlanDecodeTest, SweepRecordsDoNotDependOnWorkers)
{
    const std::vector<std::string> paths = suiteFiles();
    for (const char *sharing : {"process", "processor"}) {
        std::string spec = std::string(R"({"name":"decode",)")
            + R"("schemes":["Dir0B","WTI"],"block_bytes":[16,64],)"
            + R"("sharing":")" + sharing + R"(","traces":[)";
        for (std::size_t i = 0; i < paths.size(); ++i)
            spec += std::string(i > 0 ? "," : "") + R"({"file":")"
                + paths[i] + R"("})";
        spec += "]}";
        const SweepPlan plan = expandSweep(parseSweepSpec(spec));

        std::vector<std::string> reference;
        for (const unsigned jobs : {1u, 2u, 4u}) {
            SweepOptions options;
            options.jobs = jobs;
            const SweepOutcome outcome = runSweep(plan, options);
            ASSERT_TRUE(outcome.completed);
            EXPECT_EQ(outcome.plan.decodes.size(), 6u);
            std::vector<std::string> records;
            for (const CellRecord &record : outcome.records)
                records.push_back(deterministicJson(record));
            if (reference.empty())
                reference = records;
            else
                EXPECT_EQ(records, reference) << sharing << " " << jobs;
            // The manifest's whole-file checksums, too.
            ASSERT_EQ(outcome.manifest.traces.size(), paths.size());
            for (std::size_t t = 0; t < paths.size(); ++t)
                EXPECT_EQ(outcome.manifest.traces[t].checksum,
                          fileChecksumFnv64(paths[t]));
        }
    }
}

TEST_F(PlanDecodeTest, CacheKeysDoNotDependOnPlanOrder)
{
    const std::vector<std::string> paths = suiteFiles();
    JobOptions options;
    options.cache = std::make_shared<MemoryCellCache>();
    const auto keys = [&](const std::vector<unsigned> &blocks) {
        std::map<std::string, std::uint64_t> by_cell;
        const std::vector<SimJob> jobs = gridJobs(paths, blocks);
        const SimPlan plan = buildPlan(jobs, options, 2);
        for (std::size_t c = 0; c < jobs.size(); ++c) {
            by_cell[jobs[c].trace.path + "|" + jobs[c].scheme.name()
                    + "|" + std::to_string(jobs[c].config.blockBytes)
                    + "|"
                    + std::to_string(static_cast<int>(
                        jobs[c].config.sharing))] =
                plan.cells[c].cacheKey;
        }
        return by_cell;
    };
    EXPECT_EQ(keys({16, 64}), keys({64, 16}));
}

TEST_F(PlanDecodeTest, EveryStreamOfASourceHasItsOwnCacheKey)
{
    // Two traces with one name that decode identically at 64-byte
    // blocks (addresses 0 and 16 share a block) but not at 16 bytes,
    // where only B's second reader shares the written block.
    const Trace a = test::makeTrace(
        {test::read(0, 0), test::read(1, 16), test::write(0, 0)},
        "same");
    const Trace b = test::makeTrace(
        {test::read(0, 0), test::read(1, 0), test::write(0, 0)},
        "same");
    const auto jobs_of = [](const Trace &trace) {
        std::vector<SimJob> jobs;
        for (const unsigned block : {64u, 16u}) {
            SimConfig config;
            config.blockBytes = block;
            jobs.push_back(
                {TraceRef::of(trace), parseScheme("Dir0B"), config});
        }
        return jobs;
    };

    JobOptions options;
    options.cache = std::make_shared<MemoryCellCache>();
    const std::vector<CellOutcome> first =
        runJobs(jobs_of(a), options, 1);
    const std::vector<CellOutcome> second =
        runJobs(jobs_of(b), options, 1);
    ASSERT_EQ(second.size(), 2u);

    // Identical 64-byte streams may share a result; the 16-byte
    // streams differ, so B's cell must simulate.
    EXPECT_TRUE(second[0].timing.cacheHit);
    EXPECT_FALSE(second[1].timing.cacheHit);
    const SimResult fresh = runJob(jobs_of(b)[1], JobOptions{}).result;
    EXPECT_TRUE(second[1].result.events == fresh.events);
    EXPECT_FALSE(first[1].result.events == fresh.events);
}

TEST_F(PlanDecodeTest, FirstFailingStreamWinsAtAnyWorkerCount)
{
    const std::vector<std::string> paths = suiteFiles();
    const std::string garbage =
        writeFile("garbage.trace", std::string(64, '\x7f'));
    const std::string truncated = writeFile("truncated.trace", "DSTR");
    std::vector<SimJob> jobs;
    for (const std::string &path :
         {paths[0], garbage, paths[1], truncated, paths[2]})
        jobs.push_back({TraceRef::file(path), parseScheme("Dir0B"), {}});

    const auto error_at = [&](unsigned workers) {
        try {
            buildPlan(jobs, JobOptions{}, workers);
        } catch (const UsageError &error) {
            return std::string(error.what());
        }
        return std::string("no error");
    };
    const std::string serial = error_at(1);
    EXPECT_NE(serial.find("bad magic"), std::string::npos) << serial;
    EXPECT_NE(serial.find("trace file '" + garbage + "': "),
              std::string::npos)
        << serial;
    // The later corrupt file fails differently, so the check below
    // tells the two apart.
    jobs.erase(jobs.begin() + 1);
    const std::string later = error_at(1);
    EXPECT_NE(later, serial);
    EXPECT_NE(later, "no error");
    jobs.insert(jobs.begin() + 1,
                {TraceRef::file(garbage), parseScheme("Dir0B"), {}});
    for (int repeat = 0; repeat < 5; ++repeat)
        EXPECT_EQ(error_at(4), serial);

    // A missing file is named once, ahead of the reader's diagnosis.
    const std::string missing = (dir / "missing.trace").string();
    jobs.insert(jobs.begin(),
                {TraceRef::file(missing), parseScheme("Dir0B"), {}});
    for (const unsigned workers : {1u, 4u})
        EXPECT_EQ(error_at(workers),
                  "trace file '" + missing + "': cannot open for reading");
}

TEST_F(PlanDecodeTest, DecodesRenderOnWorkerLanes)
{
    const std::vector<std::string> paths = suiteFiles();
    for (const unsigned jobs : {1u, 2u}) {
        const GridResult grid = test::gridOnJobs(
            jobs, {"Dir0B", "WTI"}, TraceRef::files(paths));
        ASSERT_EQ(grid.plan.decodes.size(), paths.size());
        EXPECT_GT(grid.plan.wallSeconds, 0.0);
        EXPECT_GT(grid.plan.decodeSeconds(), 0.0);

        std::ostringstream out;
        writeChromeTrace(out, grid);
        const JsonValue json = JsonValue::parse(out.str());
        std::set<std::uint64_t> decode_lanes;
        std::set<std::string> decoded_traces;
        std::size_t plan_slices = 0;
        double last_decode_end = 0.0;
        double first_cell = 1e300;
        for (const JsonValue &event :
             json.at("traceEvents").elements()) {
            if (event.at("ph").asString() != "X")
                continue;
            const std::string &cat = event.at("cat").asString();
            const double ts = event.at("ts").asDouble();
            if (cat == "decode") {
                EXPECT_EQ(event.at("name").asString(), "decode");
                decode_lanes.insert(event.at("tid").asU64());
                decoded_traces.insert(
                    event.at("args").at("trace").asString());
                last_decode_end = std::max(
                    last_decode_end, ts + event.at("dur").asDouble());
            } else if (cat == "plan") {
                ++plan_slices;
                EXPECT_EQ(event.at("tid").asU64(), 0u);
            } else if (cat == "cell") {
                first_cell = std::min(first_cell, ts);
            }
        }
        EXPECT_EQ(plan_slices, 1u);
        EXPECT_EQ(decoded_traces,
                  (std::set<std::string>{"pops", "thor", "pero"}));
        EXPECT_FALSE(decode_lanes.contains(0));
        EXPECT_LE(decode_lanes.size(), jobs);
        EXPECT_LE(last_decode_end, first_cell);
    }
}

} // namespace
} // namespace dirsim
