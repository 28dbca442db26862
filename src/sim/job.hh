/**
 * @file
 * The composable simulation entry point and the one cell executor.
 *
 * Every way of running a simulation — an in-memory Trace, a decoded
 * stream, a trace file; one scheme, a scheme x trace grid, or a sweep
 * — is one shape here: SimJobs (trace reference + scheme + SimConfig)
 * expanded by buildPlan() into a SimPlan of executable cells, which
 * runPlan() dispatches. buildPlan() decodes every distinct input once
 * (sim/decoded.hh) and every cell replays the shared decoded stream.
 * runPlan() is the only code that runs cells: runJob()/runJobs(),
 * runGrid() (sim/experiment.hh), runSweep() (sweep/run.hh) and the
 * scheme-building simulateTrace() overloads all call it, so they stay
 * bit-identical to each other by construction. Both passes — the
 * decodes and the cells — go through runIndexed()
 * (common/thread_pool.hh) at the run's worker count.
 *
 * The engine adds two capabilities through JobOptions:
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

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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

    /** One reference per trace, in order (a grid's inputs). */
    static std::vector<TraceRef> of(const std::vector<Trace> &traces);
    static std::vector<TraceRef> files(
        const std::vector<std::string> &paths);
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
inline constexpr std::uint32_t engineSchemaVersion = 2;

/** FNV-1a 64 over a trace's name, shape, and every record. */
std::uint64_t traceChecksumFnv64(const Trace &trace);

/**
 * 64-bit checksum of a decoded stream's name, geometry, and arrays:
 * FNV-1a over the name bytes, then the FNV xor-multiply step over the
 * shape and the arrays — instruction run lengths included — in
 * 8-byte host-order words (with a high-to-low fold per word), an
 * eighth of the bytewise multiplies.
 * Decoding is deterministic, so a file and the in-memory trace read
 * from it produce the same decoded checksum.
 */
std::uint64_t traceChecksumFnv64(const DecodedTrace &decoded);

/**
 * FNV-1a 64 over a file's raw bytes (the trace-format-v2 hash, also
 * used by RunManifest provenance).
 */
std::uint64_t fileChecksumFnv64(const std::string &path);

/**
 * fileChecksumFnv64() of every non-empty path (0 for an empty one),
 * one task per file through runIndexed() on @p workers threads.
 */
std::vector<std::uint64_t> fileChecksumsFnv64(
    const std::vector<std::string> &paths, unsigned workers);

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
    /** Workload name; labels the cell's CellTiming (a sweep puts the
     *  cell's sweep label here). */
    std::string traceName;
    /** Records this cell will process. */
    std::uint64_t records = 0;
    /** Shards the cell will use (resolved; >= 1). */
    unsigned shards = 1;
    std::uint64_t cacheKey = 0;
    bool cacheable = false;
};

/**
 * One buildPlan() stream task — a decode plus its checksum, or only
 * the checksum of a caller-decoded stream — laid out like a cell
 * (CellTiming) so a timeline can put it on a worker lane.
 */
struct DecodeTiming
{
    /** The stream's workload name and block size. */
    std::string traceName;
    unsigned blockBytes = 0;
    /** Task start on the PhaseTimer::nowNs() clock, its length, and
     *  an opaque tag of the thread that ran it. */
    std::uint64_t startNs = 0;
    std::uint64_t durationNs = 0;
    std::uint64_t threadTag = 0;
};

/** Where buildPlan()'s time went. */
struct PlanTiming
{
    /** One entry per stream task, in plan order. */
    std::vector<DecodeTiming> decodes;
    /** buildPlan() start on the PhaseTimer::nowNs() clock. */
    std::uint64_t startNs = 0;
    /** buildPlan() wall time, decodes included. */
    double wallSeconds = 0.0;

    /** Sum of the stream tasks' durations (work, not wall time). */
    double decodeSeconds() const;
};

/** A fully-resolved execution plan: cells plus shared streams. */
struct SimPlan
{
    std::vector<PlannedCell> cells;
    /** Streams decoded by buildPlan(), shared across its cells, in
     *  order of first use. */
    std::vector<std::unique_ptr<DecodedTrace>> streams;
    std::shared_ptr<CellCache> cache;
    PlanTiming timing;

    /** Sum of every cell's known record count. */
    std::uint64_t plannedRefs() const;
};

/** Execution metrics of one cell, stamped by runPlan(). */
struct CellTiming
{
    std::string scheme;
    std::string traceName;
    /** References the cell covers (trace records incl. fetches),
     *  simulated or replayed from the cell cache. */
    std::uint64_t refs = 0;
    double wallSeconds = 0.0;
    /**
     * Cell start on the PhaseTimer::nowNs() clock and an opaque tag
     * of the worker thread that ran it — enough to lay the run out
     * on a per-worker timeline (obs/chrome_trace.hh).
     */
    std::uint64_t startNs = 0;
    std::uint64_t threadTag = 0;
    /** True when the result came from the cell cache. */
    bool cacheHit = false;
    /** Shards the cell's simulation used (1 = sequential). */
    unsigned shards = 1;
    /** Records actually simulated: 0 for cache hits. */
    std::uint64_t simulatedRefs = 0;

    /** Simulation throughput; 0 when the cell ran too fast to time. */
    double refsPerSecond() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(refs) / wallSeconds
            : 0.0;
    }
};

/** Snapshot handed to the progress callback after each cell. */
struct GridProgress
{
    /** Cells finished so far (including this one). */
    std::size_t completedCells = 0;
    std::size_t totalCells = 0;
    /** The cell that just finished. */
    const CellTiming &cell;
    /** Wall time since the run started. */
    double elapsedSeconds = 0.0;
    /** References covered by the cells finished so far. */
    std::uint64_t completedRefs = 0;
    /** References the whole plan covers (known up front). */
    std::uint64_t plannedRefs = 0;
    /** Cells served from the cell cache so far. */
    std::size_t cacheHits = 0;

    /** Aggregate throughput so far; 0 until measurable. */
    double refsPerSecond() const
    {
        return elapsedSeconds > 0.0
            ? static_cast<double>(completedRefs) / elapsedSeconds
            : 0.0;
    }

    /** Remaining-work estimate from the throughput so far; 0 when
     *  unknown or done. */
    double etaSeconds() const
    {
        const double rate = refsPerSecond();
        if (rate <= 0.0 || plannedRefs <= completedRefs)
            return 0.0;
        return static_cast<double>(plannedRefs - completedRefs)
            / rate;
    }
};

/**
 * Invoked after every finished cell. Calls are serialized (never
 * concurrent) but, with jobs > 1, arrive in completion order, not
 * plan order.
 */
using ProgressCallback = std::function<void(const GridProgress &)>;

/**
 * The DIRSIM_JOBS environment override when set and non-zero,
 * otherwise the hardware thread count.
 *
 * @throws UsageError when DIRSIM_JOBS is not a number
 */
unsigned defaultJobs();

/** How runPlan() dispatches a plan's cells. */
struct RunOptions
{
    /**
     * Worker threads; 0 resolves to defaultJobs(). 1 (or a
     * single-cell plan) runs every cell in plan order on the calling
     * thread — no pool, no worker threads.
     */
    unsigned jobs = 0;

    /** Optional per-cell completion hook (see ProgressCallback). */
    ProgressCallback onProgress;

    /**
     * Builds one trace sink (obs/tracer.hh sessions) per cell shard,
     * keyed by (scheme, trace). Called on the worker thread that runs
     * the shard; the sink is attached for that shard only and
     * destroyed (merging its data) when the shard finishes. Returning
     * nullptr leaves the cell untraced.
     */
    using CellSinkFactory =
        std::function<std::unique_ptr<ProtocolTraceSink>(
            const std::string &scheme, const std::string &trace)>;

    /** Optional per-cell tracer-session factory (empty = no tracing). */
    CellSinkFactory makeCellTraceSink;

    /** Cooperative cancellation: once it reads true, no further cells
     *  are dispatched. */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Simulation budget: stop dispatching cells once this many have
     * been *simulated* (cache hits are free and do not count). 0 =
     * unlimited. Deterministic with jobs = 1; with more workers,
     * in-flight cells still finish.
     */
    std::uint64_t maxSimulatedCells = 0;

    /** jobs, with 0 resolved through defaultJobs(). */
    unsigned resolvedJobs() const;
};

/** What executing one cell produced. */
struct CellOutcome
{
    SimResult result;
    CellTiming timing;
};

/** Everything one runPlan() call produces. */
struct PlanRun
{
    /**
     * One slot per plan cell, in plan order regardless of
     * scheduling; empty for cells the dispatch gate (cancel,
     * maxSimulatedCells) never started.
     */
    std::vector<std::optional<CellOutcome>> cells;
    /** Run start on the PhaseTimer::nowNs() clock (timeline zero). */
    std::uint64_t startNs = 0;
    double wallSeconds = 0.0;
    /** The resolved worker count. */
    unsigned jobs = 1;

    /** True when every cell ran. */
    bool completed() const;
};

/**
 * Expand jobs into an executable plan: decode each distinct (trace,
 * block size, sharing) stream once (shared by every cell that
 * references it), resolve shard counts, and compute cache keys. Pure
 * planning — no simulation.
 *
 * Each distinct stream is one task that decodes it and, with a cell
 * cache, checksums it for the cells' keys. The tasks run through
 * runIndexed() on @p workers threads: 1 (or a single stream) decodes
 * on the calling thread in plan order. The plan does not depend on
 * @p workers, and a failing decode reports the error of the first
 * failing stream in plan order.
 *
 * @throws UsageError on null/empty trace references and unreadable
 *         or malformed inputs
 */
SimPlan buildPlan(const std::vector<SimJob> &jobs,
                  const JobOptions &options = JobOptions::fromEnvironment(),
                  unsigned workers = 1);

/**
 * Execute a plan: per cell, a cache lookup, sharded or sequential
 * simulation, and a cache store, with the cell's CellTiming stamped
 * around it. With jobs == 1 or a single cell, the cells run in plan
 * order on the calling thread; otherwise on a pool of
 * min(jobs, cells) workers. Results do not depend on scheduling.
 *
 * Cancellation and the simulation budget only stop *dispatching*:
 * in-flight cells always finish and are recorded (and cached), which
 * is what makes a cut run resumable. A traced cell skips the cache
 * lookup (a replayed result cannot feed a tracer) but still stores.
 *
 * @throws whatever a cell threw (UsageError for unrunnable cells);
 *         with a pool, the lowest-index failure, after the remaining
 *         cells finish
 */
PlanRun runPlan(const SimPlan &plan, const RunOptions &options = {});

/** Plan and run a single job on the calling thread. */
CellOutcome runJob(const SimJob &job,
                   const JobOptions &options = JobOptions::fromEnvironment());

/**
 * buildPlan() then runPlan() a batch of jobs, both on @p workers
 * threads (0 = defaultJobs(); 1 = sequential on this thread).
 * Outcomes are returned in job order regardless of scheduling.
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
