/**
 * @file
 * Observed experiment runs: execute a grid and persist its structured
 * artifacts (manifest + per-cell records + metrics) to a ResultsSink,
 * and load such artifacts back for reporting, diffing, and
 * regression checks.
 *
 * Records are written after the grid completes, in grid
 * (scheme-major) order, so two runs of the same experiment produce
 * byte-comparable files apart from wall-clock fields. All
 * deterministic metrics (event/op counters, histograms, derived
 * costs) are guaranteed identical run-to-run; diffArtifacts()
 * compares exactly those.
 */

#ifndef DIRSIM_OBS_ARTIFACTS_HH
#define DIRSIM_OBS_ARTIFACTS_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/sink.hh"
#include "sim/experiment.hh"

namespace dirsim
{

/**
 * Hook to contribute extra metrics (e.g. an EventTracer's trace.dist
 * histograms) to the run's metrics record. Invoked once, after the
 * grid completes and its own gridMetrics() are in the registry,
 * right before the registry is written to the sink.
 */
using ExtraMetricsFn = std::function<void(MetricRegistry &)>;

/**
 * runGrid() (sim/experiment.hh), then write the run's artifacts to
 * @p sink: a manifest with per-input provenance (name, record and
 * cache counts; trace files also carry their path and whole-file
 * FNV-1a checksum, computed on the grid's workers; in-memory inputs
 * are recorded with source "memory"), one record per cell in grid
 * order, and a
 * MetricRegistry snapshot.
 */
GridResult runWithArtifacts(const std::vector<SchemeSpec> &schemes,
                            const std::vector<TraceRef> &inputs,
                            const SimConfig &sim,
                            const JobOptions &options,
                            const RunOptions &run, ResultsSink &sink,
                            const ExtraMetricsFn &extraMetrics = {});

/** A results file, loaded. */
struct RunArtifacts
{
    RunManifest manifest;
    bool hasManifest = false;
    std::vector<CellRecord> cells;
    MetricRegistry metrics;
    bool hasMetrics = false;
};

/**
 * Parse a JSONL results stream: "manifest", "cell", and "metrics"
 * lines in any order (unknown kinds are skipped so the schema can
 * grow). The first manifest/metrics line wins; every cell line is
 * kept.
 *
 * @throws UsageError on malformed JSON or records (message carries
 *         the line number)
 */
RunArtifacts loadArtifacts(std::istream &in);

/** loadArtifacts() from a file. @throws UsageError when unreadable */
RunArtifacts loadArtifacts(const std::string &path);

/**
 * Record the run-level metrics every grid and sweep carries, from its
 * cell timings and its planning pass:
 *   runner.cell.wall_ms                                     timer
 *   runner.grid.{wall_seconds,refs_per_second,jobs,
 *                hardware_threads,cells}                    gauges
 *   runner.plan.{decode_seconds,wall_seconds}               gauges
 *   runner.build.optimized   1 for an optimized build, else 0 (gauge)
 *   runner.cache.{hits,misses}, runner.grid.simulated_refs  counters
 *                                      (only with a cell cache)
 */
void addRunMetrics(MetricRegistry &metrics,
                   const std::vector<CellTiming> &cells,
                   const PlanTiming &plan, double wallSeconds,
                   unsigned jobs, bool cacheEnabled);

/**
 * Build the unified metric view of a finished grid: addRunMetrics()
 * plus
 *   sim.<trace>.<scheme>.refs / .events.<event> / .ops.<op>  counters
 *   runner.cell.phase.<phase>_ns                             timers
 */
MetricRegistry gridMetrics(const GridResult &grid);

/** One deterministic-metric difference between two runs' cells. */
struct MetricDelta
{
    std::string cell;   ///< "<scheme>/<trace>", or "" for run-level
    std::string metric; ///< field name, e.g. "events.wm_blk_cln"
    std::string a;      ///< value in the first run ("-" if absent)
    std::string b;      ///< value in the second run ("-" if absent)
};

/**
 * Cell-by-cell comparison of two runs over their deterministic
 * metrics: cell presence, refs, cache counts, every event and op
 * counter, the Figure 1 histogram, and the derived costs under both
 * paper bus models. Wall-clock fields are ignored — two identical
 * runs always diff clean.
 */
std::vector<MetricDelta> diffArtifacts(const RunArtifacts &a,
                                       const RunArtifacts &b);

} // namespace dirsim

#endif // DIRSIM_OBS_ARTIFACTS_HH
