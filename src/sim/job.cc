#include "sim/job.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/bitops.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "directory/sharer_set.hh"
#include "sim/engine_parts.hh"
#include "trace/format.hh"

namespace dirsim
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Opaque identity of the calling thread for timeline lanes. */
std::uint64_t
currentThreadTag()
{
    return static_cast<std::uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

const char *
toString(SharingModel sharing)
{
    return sharing == SharingModel::ByProcess ? "process" : "processor";
}

} // namespace

TraceRef
TraceRef::of(const Trace &trace)
{
    TraceRef ref;
    ref.kind = Kind::Memory;
    ref.memory = &trace;
    return ref;
}

TraceRef
TraceRef::of(const DecodedTrace &decoded)
{
    TraceRef ref;
    ref.kind = Kind::Decoded;
    ref.decoded = &decoded;
    return ref;
}

TraceRef
TraceRef::file(std::string path)
{
    TraceRef ref;
    ref.kind = Kind::File;
    ref.path = std::move(path);
    return ref;
}

std::vector<TraceRef>
TraceRef::of(const std::vector<Trace> &traces)
{
    std::vector<TraceRef> refs;
    refs.reserve(traces.size());
    for (const Trace &trace : traces)
        refs.push_back(of(trace));
    return refs;
}

std::vector<TraceRef>
TraceRef::files(const std::vector<std::string> &paths)
{
    std::vector<TraceRef> refs;
    refs.reserve(paths.size());
    for (const std::string &path : paths)
        refs.push_back(file(path));
    return refs;
}

ShardPlan
ShardPlan::fromEnvironment()
{
    ShardPlan plan;
    const auto setting = envString("DIRSIM_SHARDS");
    if (!setting || setting->empty())
        return plan;
    if (*setting == "auto") {
        plan.shards = 0;
        return plan;
    }
    plan.shards = envUnsigned("DIRSIM_SHARDS", 1);
    return plan;
}

unsigned
ShardPlan::resolve(std::uint64_t data_refs, std::uint64_t block_count,
                   bool finite_caches) const
{
    if (finite_caches)
        return 1;
    std::uint64_t k = shards;
    if (k == 0) {
        // Auto: one shard per minRefsPerShard data refs, capped by
        // the worker budget — small cells stay sequential.
        const std::uint64_t cap =
            maxShards > 0 ? maxShards : ThreadPool::hardwareThreads();
        const std::uint64_t per_shard =
            std::max<std::uint64_t>(minRefsPerShard, 1);
        k = std::min(data_refs / per_shard, cap);
    }
    // Never more shards than blocks to put in them.
    k = std::min(k, std::max<std::uint64_t>(block_count, 1));
    return static_cast<unsigned>(std::max<std::uint64_t>(k, 1));
}

std::uint64_t
traceChecksumFnv64(const Trace &trace)
{
    traceformat::Fnv64 fnv;
    const std::string &name = trace.name();
    fnv.update(name.data(), name.size());
    const std::uint64_t shape[2] = {trace.numCpus(), trace.size()};
    fnv.update(shape, sizeof(shape));
    // TraceRecord packs into exactly 16 bytes (static_assert in
    // trace/record.hh), so the raw array is padding-free.
    fnv.update(trace.data().data(),
               trace.size() * sizeof(TraceRecord));
    return fnv.value();
}

namespace
{

/**
 * Fold @p size bytes into @p state in 8-byte host-order words (a
 * trailing partial word is zero-padded): the FNV-1a xor-multiply step
 * plus a high-to-low fold. A multiply only carries differences
 * upward, so without the fold a change confined to a word's top byte
 * would stay in the hash's top byte.
 */
void
foldWords(std::uint64_t &state, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; i += sizeof(std::uint64_t)) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes + i,
                    std::min(sizeof(word), size - i));
        state ^= word;
        state *= 0x100000001b3ull;
        state ^= state >> 32;
    }
}

template <typename T>
void
foldArray(std::uint64_t &state, const std::vector<T> &array)
{
    foldWords(state, array.data(), array.size() * sizeof(T));
}

} // namespace

std::uint64_t
traceChecksumFnv64(const DecodedTrace &decoded)
{
    traceformat::Fnv64 fnv;
    fnv.update(decoded.name.data(), decoded.name.size());
    std::uint64_t state = fnv.value();
    const std::uint64_t shape[7] = {
        decoded.blockBytes,
        decoded.sharing == SharingModel::ByProcess ? 0u : 1u,
        decoded.cachesNeeded, decoded.cachesUsed, decoded.dataRefs,
        decoded.numRecords(), decoded.blockCount()};
    foldWords(state, shape, sizeof(shape));
    foldArray(state, decoded.ops);
    foldArray(state, decoded.blocks);
    foldArray(state, decoded.caches);
    foldArray(state, decoded.instrRuns);
    for (const DecodedTrace::LongInstrRun &run : decoded.longInstrRuns) {
        const std::uint64_t words[2] = {run.ref, run.instrs};
        foldWords(state, words, sizeof(words));
    }
    const std::uint64_t trailing = decoded.trailingInstrs;
    foldWords(state, &trailing, sizeof(trailing));
    foldArray(state, decoded.denseToBlock);
    return state;
}

std::uint64_t
fileChecksumFnv64(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open '", path, "' for checksumming");
    traceformat::Fnv64 fnv;
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
        fnv.update(buf, static_cast<std::size_t>(in.gcount()));
        if (in.eof())
            break;
    }
    fatalIf(in.bad(), "I/O error while checksumming '", path, "'");
    return fnv.value();
}

std::vector<std::uint64_t>
fileChecksumsFnv64(const std::vector<std::string> &paths, unsigned workers)
{
    std::vector<std::size_t> files;
    for (std::size_t i = 0; i < paths.size(); ++i)
        if (!paths[i].empty())
            files.push_back(i);
    std::vector<std::uint64_t> checksums(paths.size());
    runIndexed(files.size(), workers, [&](std::size_t i) {
        checksums[files[i]] = fileChecksumFnv64(paths[files[i]]);
    });
    return checksums;
}

std::uint64_t
cellCacheKey(std::uint64_t trace_checksum, const SchemeSpec &scheme,
             const SimConfig &config)
{
    // Canonical text, then FNV-1a 64. Observation-only fields
    // (traceSink, invariantCheckPeriod) do not change the result and
    // are deliberately absent, so an instrumented run and a plain run
    // of the same cell share one entry.
    std::ostringstream key;
    key << "v" << engineSchemaVersion << "|trace:" << std::hex
        << trace_checksum << std::dec << "|scheme:" << scheme.name()
        << "|block:" << config.blockBytes
        << "|sharing:" << toString(config.sharing)
        << "|warmup:" << config.warmupRefs;
    if (config.finiteCache) {
        key << "|finite:" << config.finiteCache->capacityBytes << ":"
            << config.finiteCache->ways << ":"
            << config.finiteCache->blockBytes;
    }
    const std::string text = key.str();
    traceformat::Fnv64 fnv;
    fnv.update(text.data(), text.size());
    return fnv.value();
}

JobOptions
JobOptions::fromEnvironment()
{
    JobOptions options;
    options.shards = ShardPlan::fromEnvironment();
    return options;
}

std::uint64_t
SimPlan::plannedRefs() const
{
    std::uint64_t refs = 0;
    for (const PlannedCell &cell : cells)
        refs += cell.records;
    return refs;
}

double
PlanTiming::decodeSeconds() const
{
    std::uint64_t ns = 0;
    for (const DecodeTiming &decode : decodes)
        ns += decode.durationNs;
    return static_cast<double>(ns) / 1e9;
}

namespace
{

/** The identity of the stream a job replays: its source plus, unless
 *  the caller decoded it already, the decode geometry. */
std::string
streamKey(const SimJob &job)
{
    const TraceRef &ref = job.trace;
    std::ostringstream key;
    switch (ref.kind) {
      case TraceRef::Kind::Memory:
        fatalIf(ref.memory == nullptr, "SimJob references a null Trace");
        key << "mem:" << static_cast<const void *>(ref.memory);
        break;
      case TraceRef::Kind::Decoded:
        fatalIf(ref.decoded == nullptr,
                "SimJob references a null DecodedTrace");
        key << "dec:" << static_cast<const void *>(ref.decoded);
        return key.str();
      case TraceRef::Kind::File:
        fatalIf(ref.path.empty(),
                "SimJob references an empty trace path");
        key << "file:" << ref.path;
        break;
    }
    key << "|" << job.config.blockBytes << "|"
        << toString(job.config.sharing);
    return key.str();
}

/** One distinct stream of a plan: decoded (unless caller-owned) and,
 *  when a cacheable cell replays it, checksummed by one task. */
struct StreamTask
{
    const SimJob *first = nullptr; ///< the first job replaying it
    bool checksum = false;
    std::unique_ptr<DecodedTrace> owned;
    const DecodedTrace *stream = nullptr;
    std::uint64_t checksumValue = 0;
    DecodeTiming timing;

    void
    run()
    {
        timing.startNs = PhaseTimer::nowNs();
        timing.threadTag = currentThreadTag();
        const TraceRef &ref = first->trace;
        const SimConfig &config = first->config;
        if (ref.kind == TraceRef::Kind::Decoded) {
            stream = ref.decoded;
        } else {
            owned = std::make_unique<DecodedTrace>(
                ref.kind == TraceRef::Kind::Memory
                    ? decodeTrace(*ref.memory, config.blockBytes,
                                  config.sharing)
                    : decodeTraceFile(ref.path, config.blockBytes,
                                      config.sharing));
            stream = owned.get();
        }
        // The stream checksum is canonical across file and in-memory
        // inputs (decoding is deterministic).
        if (checksum)
            checksumValue = traceChecksumFnv64(*stream);
        timing.traceName = stream->name;
        timing.blockBytes = stream->blockBytes;
        timing.durationNs = PhaseTimer::nowNs() - timing.startNs;
    }
};

} // namespace

SimPlan
buildPlan(const std::vector<SimJob> &jobs, const JobOptions &options,
          unsigned workers)
{
    SimPlan plan;
    plan.cache = options.cache;
    plan.timing.startNs = PhaseTimer::nowNs();

    // A raw single sink cannot be split across shard workers and
    // cannot be replayed from the cache; such cells run sequentially
    // and uncached.
    const auto cacheable = [&](const SimJob &job) {
        return options.cache && job.config.traceSink == nullptr;
    };

    // One task per distinct stream, in order of first use.
    std::vector<StreamTask> tasks;
    std::vector<std::size_t> task_of;
    task_of.reserve(jobs.size());
    std::map<std::string, std::size_t> task_index;
    for (const SimJob &job : jobs) {
        const auto [it, added] =
            task_index.try_emplace(streamKey(job), tasks.size());
        if (added)
            tasks.emplace_back().first = &job;
        tasks[it->second].checksum |= cacheable(job);
        task_of.push_back(it->second);
    }

    runIndexed(tasks.size(), workers,
               [&tasks](std::size_t i) { tasks[i].run(); });

    plan.cells.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const SimJob &job = jobs[j];
        const StreamTask &task = tasks[task_of[j]];
        PlannedCell cell;
        cell.scheme = job.scheme;
        cell.config = job.config;
        cell.stream = task.stream;
        cell.traceName = cell.stream->name;
        cell.records = cell.stream->numRecords();
        cell.shards = job.config.traceSink != nullptr
            ? 1
            : options.shards.resolve(cell.stream->dataRefs,
                                     cell.stream->blockCount(),
                                     job.config.finiteCache.has_value());
        if (cacheable(job)) {
            cell.cacheKey =
                cellCacheKey(task.checksumValue, job.scheme, job.config);
            cell.cacheable = true;
        }
        plan.cells.push_back(std::move(cell));
    }
    for (StreamTask &task : tasks) {
        // A caller-decoded stream nobody checksums cost nothing.
        if (task.owned || task.checksum)
            plan.timing.decodes.push_back(std::move(task.timing));
        if (task.owned)
            plan.streams.push_back(std::move(task.owned));
    }
    plan.timing.wallSeconds =
        static_cast<double>(PhaseTimer::nowNs() - plan.timing.startNs)
        / 1e9;
    return plan;
}

namespace
{

/** One shard's simulation output plus its live protocol arena (kept
 *  for the cross-shard disjointness check). */
struct ShardPart
{
    SimResult result;
    std::unique_ptr<CoherenceProtocol> protocol;
};

/**
 * Replay the whole stream against a per-shard protocol arena,
 * skipping blocks owned by other shards. The loop is the dense
 * simulateTrace() statement sequence with one added membership test;
 * every shard gets the same global warm-up point @p warm, so each
 * takes its snapshot at the same record index, which is what makes
 * per-shard (total - warmup) subtraction sum to the sequential
 * cell's exactly. Instruction runs touch no block; shard 0 owns them
 * so the merged Instr count matches the sequential cell.
 */
ShardPart
runShard(const DecodedTrace &decoded, const SchemeSpec &scheme,
         const SimConfig &config, const WarmupPoint &warm,
         const std::vector<std::uint32_t> &shard_of, unsigned shard,
         const ShardSinkFactory &make_sink)
{
    ShardPart part;
    part.protocol = makeProtocol(scheme, decoded.cachesNeeded);
    CoherenceProtocol &protocol = *part.protocol;

    std::unique_ptr<ProtocolTraceSink> sink;
    if (make_sink) {
        sink = make_sink(shard);
        if (sink)
            protocol.attachTracer(sink.get());
    }
    protocol.reserveBlocks(decoded.blockCount(),
                           decoded.denseToBlock.data());

    const bool counts_instrs = shard == 0;
    WarmupSnapshot warmup;
    // Count @p instrs instructions, snapshotting warm.instrs into
    // them when the warm-up ends in this run.
    const auto run_instrs = [&](std::uint64_t instrs, bool warm_here) {
        if (warm_here) {
            if (counts_instrs)
                protocol.instructions(warm.instrs);
            warmup.take(protocol);
            instrs -= warm.instrs;
        }
        if (counts_instrs)
            protocol.instructions(instrs);
    };

    std::uint64_t data_refs = 0;
    const std::uint64_t num_refs = decoded.dataRefs;
    for (std::uint64_t i = 0; i < num_refs; ++i) {
        run_instrs(decoded.instrsBefore(i), i == warm.ref);
        const std::uint32_t index = decoded.blocks[i];
        if (shard_of[index] != shard)
            continue;
        const std::uint8_t op = decoded.ops[i];
        const CacheId cache = decoded.caches[i];
        const bool first_ref = (op & decodedOpFirstRef) != 0;
        if ((op & decodedOpKindMask) == decodedOpRead)
            protocol.read(cache, static_cast<BlockNum>(index),
                          first_ref);
        else
            protocol.write(cache, static_cast<BlockNum>(index),
                           first_ref);
        ++data_refs;
        if (config.invariantCheckPeriod != 0
            && data_refs % config.invariantCheckPeriod == 0) {
            protocol.checkAllInvariants();
        }
    }
    run_instrs(decoded.trailingInstrs, warm.ref == num_refs);
    if (config.invariantCheckPeriod != 0)
        protocol.checkAllInvariants();

    part.result = measuredResult(decoded, protocol, warmup);
    return part;
}

/** Attach a single sink (shard 0) for a sequential cell. */
std::unique_ptr<ProtocolTraceSink>
attachSingleSink(const ShardSinkFactory &make_sink, SimConfig &config)
{
    if (!make_sink)
        return nullptr;
    std::unique_ptr<ProtocolTraceSink> sink = make_sink(0);
    if (sink)
        config.traceSink = sink.get();
    return sink;
}

} // namespace

SimResult
simulateTraceSharded(const DecodedTrace &decoded,
                     const SchemeSpec &scheme, const SimConfig &config,
                     unsigned shards, const ShardSinkFactory &make_sink)
{
    const std::uint64_t block_count = decoded.blockCount();
    const unsigned k = static_cast<unsigned>(std::min<std::uint64_t>(
        std::max(shards, 1u), std::max<std::uint64_t>(block_count, 1)));
    if (k <= 1) {
        SimConfig sequential = config;
        const auto sink = attachSingleSink(make_sink, sequential);
        return simulateTrace(decoded, scheme, sequential);
    }
    fatalIf(config.finiteCache.has_value(),
            "sharded simulation requires infinite caches (finite-cache "
            "replacement couples co-resident blocks); run one shard");
    fatalIf(config.traceSink != nullptr,
            "a sharded cell cannot share one SimConfig::traceSink "
            "across shards; pass a ShardSinkFactory instead");
    checkDecodedGeometry(decoded, config);
    const unsigned caches = decoded.cachesNeeded;
    fatalIf(caches == 0, "trace '", decoded.name,
            "' has no references");
    fatalIf(decoded.numRecords() == 0,
            "cannot simulate an empty trace");
    const WarmupPoint warm = locateWarmup(decoded, config.warmupRefs);

    // Round-robin block ownership: balanced for free, and stable so
    // a run is reproducible for a given K.
    std::vector<std::uint32_t> shard_of(block_count);
    for (std::uint64_t b = 0; b < block_count; ++b)
        shard_of[b] = static_cast<std::uint32_t>(b % k);

    std::vector<ShardPart> parts(k);
    const std::uint64_t parallel_start = PhaseTimer::nowNs();
    runIndexed(k, ThreadPool::hardwareThreads(), [&](std::size_t shard) {
        parts[shard] = runShard(decoded, scheme, config, warm, shard_of,
                                static_cast<unsigned>(shard), make_sink);
    });
    const std::uint64_t parallel_ns =
        PhaseTimer::nowNs() - parallel_start;

    const std::uint64_t merge_start = PhaseTimer::nowNs();
    SimResult result = std::move(parts[0].result);
    for (unsigned shard = 1; shard < k; ++shard) {
        result.events.merge(parts[shard].result.events);
        result.ops.merge(parts[shard].result.ops);
        result.cleanWriteHolders.merge(
            parts[shard].result.cleanWriteHolders);
    }
    result.totalRefs = result.events.totalRefs();

    if (config.invariantCheckPeriod != 0) {
        // Cross-shard disjointness: round-robin ownership must leave
        // every block's sharers in exactly one shard's arena.
        for (std::uint64_t b = 0; b < block_count; ++b) {
            SharerSet all(caches);
            for (unsigned shard = 0; shard < k; ++shard) {
                const SharerSet holders =
                    parts[shard].protocol->holders(b);
                panicIfNot(!all.intersects(holders),
                           "block ", decoded.denseToBlock[b],
                           " is held in multiple shard arenas");
                all.unionWith(holders);
            }
        }
    }

    PhaseBreakdown phases;
    phases.add(Phase::Simulate, parallel_ns);
    phases.add(Phase::Reduce, PhaseTimer::nowNs() - merge_start);
    result.phases = phases;
    return result;
}

namespace
{

/** Execute one cell of a plan and stamp its timing. Safe to call for
 *  different indices from concurrent workers. */
CellOutcome
runPlannedCell(const SimPlan &plan, std::size_t index,
               const RunOptions::CellSinkFactory &make_cell_sink)
{
    const PlannedCell &cell = plan.cells[index];
    CellOutcome out;
    CellTiming &timing = out.timing;
    timing.scheme = cell.scheme.name();
    timing.traceName = cell.traceName;
    timing.refs = cell.records;
    timing.startNs = PhaseTimer::nowNs();
    timing.threadTag = currentThreadTag();
    const auto start = Clock::now();

    ShardSinkFactory make_sink;
    if (make_cell_sink) {
        make_sink = [&make_cell_sink, &timing](unsigned) {
            return make_cell_sink(timing.scheme, timing.traceName);
        };
    }

    // Traced cells skip the lookup (a replayed result cannot feed the
    // sinks) but still store: the result is identical either way.
    if (cell.cacheable && plan.cache && !make_sink
        && plan.cache->lookup(cell.cacheKey, out.result)) {
        timing.cacheHit = true;
        timing.wallSeconds = secondsSince(start);
        return out;
    }

    if (cell.shards > 1) {
        out.result = simulateTraceSharded(*cell.stream, cell.scheme,
                                          cell.config, cell.shards,
                                          make_sink);
    } else {
        SimConfig config = cell.config;
        const auto sink = attachSingleSink(make_sink, config);
        out.result = simulateTrace(*cell.stream, cell.scheme, config);
    }
    timing.simulatedRefs = cell.stream->numRecords();
    timing.shards = cell.shards;
    timing.wallSeconds = secondsSince(start);
    if (cell.cacheable && plan.cache)
        plan.cache->store(cell.cacheKey, out.result,
                          timing.wallSeconds);
    return out;
}

} // namespace

unsigned
defaultJobs()
{
    const unsigned jobs = envUnsigned("DIRSIM_JOBS", 0);
    return jobs > 0 ? jobs : ThreadPool::hardwareThreads();
}

unsigned
RunOptions::resolvedJobs() const
{
    return jobs > 0 ? jobs : defaultJobs();
}

bool
PlanRun::completed() const
{
    return std::all_of(cells.begin(), cells.end(),
                       [](const auto &cell) { return cell.has_value(); });
}

PlanRun
runPlan(const SimPlan &plan, const RunOptions &options)
{
    const std::size_t num_cells = plan.cells.size();
    const std::uint64_t planned_refs = plan.plannedRefs();
    PlanRun run;
    run.cells.resize(num_cells);
    run.jobs = options.resolvedJobs();
    const auto start = Clock::now();
    run.startNs = PhaseTimer::nowNs();

    std::mutex mutex;
    std::size_t completed = 0;
    std::size_t cache_hits = 0;
    std::uint64_t simulated_cells = 0;
    std::uint64_t completed_refs = 0;
    bool stopped = false;

    const auto dispatch = [&](std::size_t index) {
        {
            // Pre-dispatch gate: budget and cancellation stop
            // dispatching; in-flight cells always finish.
            std::lock_guard<std::mutex> lock(mutex);
            stopped = stopped
                || (options.cancel
                    && options.cancel->load(std::memory_order_relaxed))
                || (options.maxSimulatedCells != 0
                    && simulated_cells >= options.maxSimulatedCells);
            if (stopped)
                return;
        }
        CellOutcome outcome =
            runPlannedCell(plan, index, options.makeCellTraceSink);
        std::lock_guard<std::mutex> lock(mutex);
        ++completed;
        completed_refs += outcome.timing.refs;
        if (outcome.timing.cacheHit)
            ++cache_hits;
        else
            ++simulated_cells;
        if (options.onProgress) {
            options.onProgress(GridProgress{
                completed, num_cells, outcome.timing,
                secondsSince(start), completed_refs, planned_refs,
                cache_hits});
        }
        run.cells[index] = std::move(outcome);
    };

    runIndexed(num_cells, run.jobs, dispatch);
    run.wallSeconds = secondsSince(start);
    return run;
}

CellOutcome
runJob(const SimJob &job, const JobOptions &options)
{
    RunOptions sequential;
    sequential.jobs = 1;
    return std::move(*runPlan(buildPlan({job}, options), sequential)
                          .cells[0]);
}

std::vector<CellOutcome>
runJobs(const std::vector<SimJob> &jobs, const JobOptions &options,
        unsigned workers)
{
    RunOptions run;
    run.jobs = workers;
    run.jobs = run.resolvedJobs();
    PlanRun ran = runPlan(buildPlan(jobs, options, run.jobs), run);
    std::vector<CellOutcome> outcomes;
    outcomes.reserve(ran.cells.size());
    for (auto &cell : ran.cells)
        outcomes.push_back(std::move(*cell));
    return outcomes;
}

} // namespace dirsim
