/**
 * @file
 * The composable simulation entry point.
 *
 * Every way of running a simulation — an in-memory Trace, a decoded
 * stream, a trace file; one scheme or a whole grid — is one shape
 * here: a SimJob (trace reference + scheme + SimConfig) expanded by
 * buildPlan() into a SimPlan of executable cells, each run by
 * runPlannedCell(). buildPlan() decodes every distinct input once
 * (sim/decoded.hh) and every cell replays the shared decoded stream.
 * The other entry points (the scheme-building simulateTrace()
 * overloads, runGrid(), ExperimentRunner::run()/runFiles()) are thin
 * wrappers over this engine, so they stay bit-identical to each other
 * by construction.
 *
 * The engine adds two capabilities the legacy names expose through
 * options:
 *
 *  - **Block-sharded cells** (ShardPlan): a decoded cell's dense
 *    block indices are partitioned into K shards simulated on
 *    separate workers against per-shard protocol arenas, then merged.
 *    Per-block directory state never crosses blocks and every counter
 *    is additive, so the merged SimResult is bit-identical to the
 *    sequential cell (asserted by tests/sim/shard_test.cc).
 *    Finite-cache cells fall back to one shard: set replacement
 *    couples co-resident blocks.
 *
 *  - **A content-addressed cell cache** (CellCache): results keyed by
 *    FNV-1a 64 over (trace checksum, canonical scheme name, SimConfig,
 *    engine schema version). A warm cache replays a whole grid with
 *    zero simulated references. The file-backed implementation lives
 *    in obs/cell_cache.hh (DIRSIM_CACHE_DIR).
 */

#ifndef DIRSIM_SIM_JOB_HH
#define DIRSIM_SIM_JOB_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/decoded.hh"
#include "sim/simulator.hh"

namespace dirsim
{

/**
 * A lightweight, non-owning reference to a simulation input. The
 * referenced Trace/DecodedTrace must outlive any plan built from it.
 */
struct TraceRef
{
    enum class Kind
    {
        Memory,  ///< an in-memory Trace
        Decoded, ///< an already-decoded stream
        File,    ///< a trace file on disk
    };

    Kind kind = Kind::Memory;
    const Trace *memory = nullptr;
    const DecodedTrace *decoded = nullptr;
    std::string path;

    static TraceRef of(const Trace &trace);
    static TraceRef of(const DecodedTrace &decoded);
    static TraceRef file(std::string path);
};

/** One simulation request: what to run, under which scheme, how. */
struct SimJob
{
    TraceRef trace;
    SchemeSpec scheme;
    SimConfig config;
};

/** How to split one cell's blocks across workers. */
struct ShardPlan
{
    /**
     * Shards per cell: 1 = sequential (the default); 0 = auto (size
     * from refs and hardware); K > 1 = exactly K shards. Cells that
     * cannot shard — finite caches, a raw SimConfig::traceSink —
     * always run with one shard regardless.
     */
    unsigned shards = 1;

    /** Auto sizing: aim for at least this many data refs per shard. */
    std::uint64_t minRefsPerShard = 250'000;

    /** Auto sizing cap; 0 = the hardware thread count. */
    unsigned maxShards = 0;

    /** The DIRSIM_SHARDS override: unset keeps the sequential
     *  default, "auto" (or 0) enables auto sizing, K forces K. */
    static ShardPlan fromEnvironment();

    /** Shards a cell with these properties will actually use. */
    unsigned resolve(std::uint64_t data_refs, std::uint64_t block_count,
                     bool finite_caches) const;
};

/**
 * A content-addressed store of finished cell results.
 *
 * Keys are cellCacheKey() values; a key fully determines the
 * SimResult, so lookup() either misses or returns a result
 * bit-identical to re-simulating. Implementations must be safe for
 * concurrent lookup/store from grid workers. The file-backed
 * implementation is obs' FileCellCache (this library cannot depend
 * on obs, which links against it).
 */
class CellCache
{
  public:
    virtual ~CellCache() = default;

    /** @return true and fill @p out on a hit; false on a miss. */
    virtual bool lookup(std::uint64_t key, SimResult &out) = 0;

    /** Persist @p result under @p key. @p wall_seconds is the time
     *  the cell took to simulate (metadata only). */
    virtual void store(std::uint64_t key, const SimResult &result,
                       double wall_seconds) = 0;
};

/**
 * Version of the engine's observable semantics, folded into every
 * cache key. Bump on any change that alters what a (trace, scheme,
 * config) triple produces, so stale entries miss instead of lying.
 */
inline constexpr std::uint32_t engineSchemaVersion = 1;

/** FNV-1a 64 over a trace's name, shape, and every record. */
std::uint64_t traceChecksumFnv64(const Trace &trace);

/** FNV-1a 64 over a decoded stream's name, geometry, and arrays.
 *  Decoding is deterministic, so a file and the in-memory trace read
 *  from it produce the same decoded checksum. */
std::uint64_t traceChecksumFnv64(const DecodedTrace &decoded);

/**
 * FNV-1a 64 over a file's raw bytes (the trace-format-v2 hash, also
 * used by RunManifest provenance).
 */
std::uint64_t fileChecksumFnv64(const std::string &path);

/** The content-addressed key of one (trace, scheme, config) cell. */
std::uint64_t cellCacheKey(std::uint64_t trace_checksum,
                           const SchemeSpec &scheme,
                           const SimConfig &config);

/**
 * Builds the trace sink for one shard of a cell (obs/tracer.hh
 * sessions are single-threaded, so a sharded cell needs one per
 * shard; their distributions merge additively). Shard indices are
 * 0..K-1; an unsharded cell asks for shard 0 only. Returning nullptr
 * leaves the shard untraced.
 */
using ShardSinkFactory =
    std::function<std::unique_ptr<ProtocolTraceSink>(unsigned shard)>;

/** Engine options shared by every cell of a plan. */
struct JobOptions
{
    ShardPlan shards;

    /** Cell result cache; nullptr = always simulate. */
    std::shared_ptr<CellCache> cache;

    /** DIRSIM_SHARDS; no cache (wire one from obs'
     *  FileCellCache::fromEnvironment()). */
    static JobOptions fromEnvironment();
};

/** One executable cell of a SimPlan. */
struct PlannedCell
{
    SchemeSpec scheme;
    SimConfig config;
    /** Shared decoded stream (plan-owned or caller-owned). */
    const DecodedTrace *stream = nullptr;
    /** Workload name. */
    std::string traceName;
    /** Records this cell will process. */
    std::uint64_t records = 0;
    /** Shards the cell will use (resolved; >= 1). */
    unsigned shards = 1;
    std::uint64_t cacheKey = 0;
    bool cacheable = false;
};

/** A fully-resolved execution plan: cells plus shared streams. */
struct SimPlan
{
    std::vector<PlannedCell> cells;
    /** Streams decoded by buildPlan(), shared across its cells. */
    std::vector<std::unique_ptr<DecodedTrace>> streams;
    std::shared_ptr<CellCache> cache;

    /** Sum of every cell's known record count. */
    std::uint64_t plannedRefs() const;
};

/** What executing one cell produced. */
struct CellOutcome
{
    SimResult result;
    /** True when the result came from the cache, not simulation. */
    bool cacheHit = false;
    /** Shards the simulation used (1 for cached cells). */
    unsigned shardsUsed = 1;
    /** Records actually simulated: 0 on a cache hit. */
    std::uint64_t simulatedRefs = 0;
    /** Records the cell covers, simulated or replayed. */
    std::uint64_t records = 0;
    double wallSeconds = 0.0;
};

/**
 * Expand jobs into an executable plan: decode each distinct trace
 * once (shared by every cell that references it), resolve shard
 * counts, and compute cache keys. Pure planning — no simulation.
 */
SimPlan buildPlan(const std::vector<SimJob> &jobs,
                  const JobOptions &options = JobOptions::fromEnvironment());

/**
 * Execute one cell of a plan: cache lookup, sharded or sequential
 * simulation, cache store. Safe to call for different indices from
 * concurrent workers. @p make_sink builds per-shard trace sinks for
 * this cell (tracing disables the cache *lookup* — a replayed result
 * cannot feed a tracer — but the result is still stored).
 */
CellOutcome runPlannedCell(const SimPlan &plan, std::size_t index,
                           const ShardSinkFactory &make_sink = {});

/** Plan and run a single job. */
CellOutcome runJob(const SimJob &job,
                   const JobOptions &options = JobOptions::fromEnvironment());

/**
 * Plan and run a batch of jobs on @p workers threads (0 = the
 * DIRSIM_JOBS/hardware default; 1 = sequential on this thread).
 * Outcomes are returned in job order regardless of scheduling. For
 * scheme x trace grids with progress callbacks and timing telemetry,
 * use ExperimentRunner (a wrapper over the same engine).
 */
std::vector<CellOutcome> runJobs(
    const std::vector<SimJob> &jobs,
    const JobOptions &options = JobOptions::fromEnvironment(),
    unsigned workers = 1);

/**
 * The sharded cell executor: partition @p decoded's dense blocks
 * into @p shards shards, simulate each on its own worker against a
 * per-shard protocol arena, and merge. Bit-identical to the
 * sequential cell by construction; requires infinite caches.
 * With SimConfig::invariantCheckPeriod set, additionally checks that
 * the per-shard sharer sets partition cleanly (no block is held in
 * two shards' arenas).
 */
SimResult simulateTraceSharded(const DecodedTrace &decoded,
                               const SchemeSpec &scheme,
                               const SimConfig &config, unsigned shards,
                               const ShardSinkFactory &make_sink = {});

} // namespace dirsim

#endif // DIRSIM_SIM_JOB_HH
