/**
 * @file
 * Sweep execution: run an expanded SweepPlan on the SimJob engine.
 *
 * runSweep() materializes the plan's generated traces, expands every
 * cell into a SimJob, and executes the resulting SimPlan through
 * runPlan() (sim/job.hh) — each distinct (trace, block size, sharing)
 * input is decoded once and shared read-only by all cells that
 * replay it. The decodes, their checksums and the manifest's
 * whole-file checksums run on the sweep's workers too.
 * With a CellCache wired in, finished cells persist as they complete,
 * so an interrupted sweep resumes incrementally: re-running the same
 * spec replays the finished cells from the cache and only simulates
 * the remainder (docs/sweep.md, "Resume semantics").
 *
 * The outcome carries one CellRecord per executed cell — with the
 * cell's unique sweep label as its trace name, so multi-axis cells
 * never collide — plus the run manifest and a MetricRegistry with
 * the same runner.grid.* / runner.cache.* metrics a grid records
 * (obs/artifacts.hh addRunMetrics()).
 */

#ifndef DIRSIM_SWEEP_RUN_HH
#define DIRSIM_SWEEP_RUN_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hh"
#include "obs/record.hh"
#include "obs/sink.hh"
#include "sim/job.hh"
#include "sweep/expand.hh"

namespace dirsim
{

/** runSweep() knobs. */
struct SweepOptions
{
    /** Worker threads; 0 = defaultJobs(), 1 = sequential on the
     *  calling thread (deterministic cell order). */
    unsigned jobs = 0;

    /** Cell result cache; nullptr = always simulate. */
    std::shared_ptr<CellCache> cache;

    /**
     * Simulation budget: stop dispatching cells once this many have
     * been *simulated* (cache hits are free and do not count). 0 =
     * unlimited. An exhausted budget leaves the outcome incomplete —
     * the simulated cells are already in the cache, so re-running the
     * spec resumes where the budget cut it off. Deterministic with
     * jobs = 1; with more workers in-flight cells still finish.
     */
    std::uint64_t maxSimulatedCells = 0;

    /** Cooperative cancellation (the daemon's per-run cancel): when
     *  it reads true, no further cells are dispatched. */
    const std::atomic<bool> *cancel = nullptr;

    /** Per-finished-cell hook (sim/job.hh semantics: serialized,
     *  completion order); the cell's traceName is its sweep label. */
    ProgressCallback onProgress;

    /**
     * Caller-scoped run identity ("run 3" in the daemon, a campaign
     * name in a CLI) threaded into every structured log line this
     * run emits, so one journal/log stream interleaving many runs
     * stays attributable. Empty = the spec's name.
     */
    std::string runLabel;
};

/** Everything one sweep run produces. */
struct SweepOutcome
{
    /** False when the budget ran out or the run was cancelled; the
     *  executed cells are still recorded (and cached). */
    bool completed = false;

    /** One record per *executed* cell, in plan (cell) order; each
     *  record's trace field is the cell's unique sweep label. */
    std::vector<CellRecord> records;

    /** Plan indices of the executed cells (parallel to records). */
    std::vector<std::size_t> cellIndices;

    /**
     * Wall-clock layout of the executed cells (parallel to records):
     * start stamps on the PhaseTimer::nowNs() clock plus worker
     * tags, enough for a Chrome timeline of the run
     * (obs/chrome_trace.hh writeChromeSpans) without a GridResult.
     */
    std::vector<CellTiming> timings;

    /** PhaseTimer::nowNs() at run start (the trace origin). */
    std::uint64_t startNs = 0;

    /** The planning pass: per-stream decode timings (worker-lane
     *  slices before the first cell) and its wall time. */
    PlanTiming plan;

    RunManifest manifest;
    MetricRegistry metrics;

    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** References actually simulated (cache hits contribute 0). */
    std::uint64_t simulatedRefs = 0;
    double wallSeconds = 0.0;
};

/**
 * Execute a plan.
 *
 * @throws UsageError on unrunnable cells (unreadable trace files,
 *         invalid geometry/block combinations)
 */
SweepOutcome runSweep(const SweepPlan &plan,
                      const SweepOptions &options = {});

/**
 * Write a finished sweep's artifacts: the manifest, every cell
 * record in plan order, and the metrics snapshot. The stream is
 * loadArtifacts()-compatible, so dirsim_report renders and diffs
 * sweep results exactly like experiment results.
 */
void writeSweepArtifacts(const SweepOutcome &outcome,
                         ResultsSink &sink);

} // namespace dirsim

#endif // DIRSIM_SWEEP_RUN_HH
