/**
 * @file
 * Experiment orchestration: run scheme x trace grids and aggregate
 * the results the way the paper does (event frequencies averaged
 * across traces, cost models applied afterwards).
 *
 * runGrid() expands the grid into scheme-major SimJobs, plans them
 * once (each distinct trace decoded and checksummed once, on the
 * grid's workers) and hands the plan to runPlan() (sim/job.hh), the
 * one cell executor. Results
 * do not depend on the worker count: each cell builds its own
 * protocol and replays a shared immutable stream, and the output
 * order is fixed by the input order.
 */

#ifndef DIRSIM_SIM_EXPERIMENT_HH
#define DIRSIM_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bus/cost_model.hh"
#include "sim/job.hh"
#include "sim/simulator.hh"

namespace dirsim
{

/** All per-trace results for one scheme. */
struct SchemeResults
{
    std::string scheme;
    std::vector<SimResult> perTrace;

    /** Table 4 style: event frequencies averaged across traces. */
    EventFreqs averagedFreqs() const;

    /** Figure 1 histogram merged over all traces. */
    Histogram mergedCleanWriteHolders() const;

    /** CleanWriteProfile of the merged histogram. */
    CleanWriteProfile mergedProfile() const;

    /** Operation counts and references summed over all traces. */
    OpCounts mergedOps() const;
    std::uint64_t mergedRefs() const;

    /**
     * Cross-trace average cost on a bus: per-trace ops-based
     * breakdowns averaged component-wise, mirroring the frequency
     * averaging of Table 4/5.
     */
    CycleBreakdown averagedCost(const BusCosts &costs,
                                const CostOptions &options = {}) const;

    /**
     * The paper's cost path: averaged frequencies + merged Figure 1
     * profile through the closed-form scheme model. Falls back to
     * averagedCost() for schemes without a closed form (Dir_i
     * families).
     */
    CycleBreakdown paperCost(const BusCosts &costs,
                             const CostOptions &options = {}) const;
};

/** Everything one grid run produces. */
struct GridResult
{
    /** Per-scheme results, schemes and traces in input order. */
    std::vector<SchemeResults> schemes;
    /** Per-cell metrics in grid (scheme-major) order. */
    std::vector<CellTiming> cells;
    /** End-to-end wall time of the cells (planning excluded). */
    double wallSeconds = 0.0;
    /** Grid start on the PhaseTimer::nowNs() clock (timeline zero). */
    std::uint64_t startNs = 0;
    /** Worker threads the grid was given (RunOptions resolved). */
    unsigned jobs = 1;
    /**
     * Grid-level work outside any cell: the planning pass (decoding
     * and checksumming each stream), per stream and in total.
     * Per-cell phase splits live in each SimResult::phases.
     */
    PlanTiming plan;
    /** True when the grid ran with a cell cache configured. */
    bool cacheEnabled = false;

    /** Aggregate throughput: every covered ref (simulated or
     *  replayed from the cell cache) over the wall time. */
    double refsPerSecond() const;
    /** Sum of every cell's covered references (cached or not). */
    std::uint64_t totalRefs() const;
    /** Cells served from the cell cache. */
    std::uint64_t cacheHits() const;
    /** Cells that actually simulated. */
    std::uint64_t cacheMisses() const;
    /** References actually simulated (0 for a fully warm cache). */
    std::uint64_t simulatedRefs() const;
};

/**
 * Run every scheme on every input.
 *
 * @param schemes scheme specs (protocols/registry.hh parseSchemes())
 * @param inputs in-memory traces, decoded streams or trace files
 *        (TraceRef); each is decoded once per (block size, sharing)
 *        stream, on the run's workers
 * @param sim simulation parameters applied to every cell
 * @param options sharding and the cell cache
 * @param run workers, progress and tracing (RunOptions)
 * @throws UsageError on empty inputs; any cell's exception is
 *         rethrown after the remaining cells finish
 */
GridResult runGrid(const std::vector<SchemeSpec> &schemes,
                   const std::vector<TraceRef> &inputs,
                   const SimConfig &sim = {},
                   const JobOptions &options = JobOptions::fromEnvironment(),
                   const RunOptions &run = {});

/** Component-wise arithmetic mean of breakdowns. */
CycleBreakdown averageBreakdowns(
    const std::vector<CycleBreakdown> &breakdowns);

/**
 * Estimate the number of processors a shared bus can sustain, the
 * paper's Section 5 back-of-envelope: a processor issuing one data
 * reference per instruction at @p mips needs total() bus cycles per
 * reference, and the bus delivers 1e9/@p bus_cycle_ns cycles/second.
 */
double effectiveProcessorLimit(const CycleBreakdown &cost, double mips,
                               double bus_cycle_ns);

} // namespace dirsim

#endif // DIRSIM_SIM_EXPERIMENT_HH
