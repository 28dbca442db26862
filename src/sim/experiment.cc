#include "sim/experiment.hh"

#include "common/logging.hh"
#include "common/log.hh"

namespace dirsim
{

EventFreqs
SchemeResults::averagedFreqs() const
{
    fatalIf(perTrace.empty(), "no results to average");
    std::vector<EventFreqs> sets;
    sets.reserve(perTrace.size());
    for (const auto &result : perTrace)
        sets.push_back(result.freqs());
    return EventFreqs::average(sets);
}

Histogram
SchemeResults::mergedCleanWriteHolders() const
{
    Histogram merged;
    for (const auto &result : perTrace)
        merged.merge(result.cleanWriteHolders);
    return merged;
}

CleanWriteProfile
SchemeResults::mergedProfile() const
{
    return CleanWriteProfile::fromHistogram(mergedCleanWriteHolders());
}

OpCounts
SchemeResults::mergedOps() const
{
    OpCounts merged;
    for (const auto &result : perTrace)
        merged.merge(result.ops);
    return merged;
}

std::uint64_t
SchemeResults::mergedRefs() const
{
    std::uint64_t refs = 0;
    for (const auto &result : perTrace)
        refs += result.totalRefs;
    return refs;
}

CycleBreakdown
SchemeResults::averagedCost(const BusCosts &costs,
                            const CostOptions &options) const
{
    std::vector<CycleBreakdown> breakdowns;
    breakdowns.reserve(perTrace.size());
    for (const auto &result : perTrace)
        breakdowns.push_back(result.cost(costs, options));
    return averageBreakdowns(breakdowns);
}

CycleBreakdown
SchemeResults::paperCost(const BusCosts &costs,
                         const CostOptions &options) const
{
    const auto kind = schemeKindFromName(scheme);
    if (!kind)
        return averagedCost(costs, options);
    return costFromFreqs(*kind, averagedFreqs(), costs,
                         mergedProfile(), options);
}

std::uint64_t
GridResult::totalRefs() const
{
    std::uint64_t refs = 0;
    for (const auto &cell : cells)
        refs += cell.refs;
    return refs;
}

double
GridResult::refsPerSecond() const
{
    return wallSeconds > 0.0
        ? static_cast<double>(totalRefs()) / wallSeconds
        : 0.0;
}

std::uint64_t
GridResult::cacheHits() const
{
    std::uint64_t hits = 0;
    for (const auto &cell : cells)
        hits += cell.cacheHit ? 1 : 0;
    return hits;
}

std::uint64_t
GridResult::cacheMisses() const
{
    return cells.size() - cacheHits();
}

std::uint64_t
GridResult::simulatedRefs() const
{
    std::uint64_t refs = 0;
    for (const auto &cell : cells)
        refs += cell.simulatedRefs;
    return refs;
}

GridResult
runGrid(const std::vector<SchemeSpec> &schemes,
        const std::vector<TraceRef> &inputs, const SimConfig &sim,
        const JobOptions &options, const RunOptions &run)
{
    fatalIf(schemes.empty(), "experiment grid with no schemes");
    fatalIf(inputs.empty(), "experiment grid with no traces");

    std::vector<SimJob> jobs;
    jobs.reserve(schemes.size() * inputs.size());
    for (const SchemeSpec &scheme : schemes)
        for (const TraceRef &input : inputs)
            jobs.push_back({input, scheme, sim});

    // Planning (decode + checksum each distinct input once, on the
    // grid's workers) is grid setup recorded in GridResult::plan; it
    // makes plannedRefs exact by construction.
    RunOptions resolved = run;
    resolved.jobs = run.resolvedJobs();
    const SimPlan plan = buildPlan(jobs, options, resolved.jobs);
    logEvent(LogLevel::Debug, "runner.grid.start")
        .field("schemes", static_cast<std::uint64_t>(schemes.size()))
        .field("traces", static_cast<std::uint64_t>(inputs.size()))
        .field("planned_refs", plan.plannedRefs());

    PlanRun ran = runPlan(plan, resolved);
    GridResult grid;
    grid.schemes.resize(schemes.size());
    for (std::size_t s = 0; s < schemes.size(); ++s)
        grid.schemes[s].scheme = schemes[s].name();
    for (std::size_t i = 0; i < ran.cells.size(); ++i) {
        CellOutcome &cell = *ran.cells[i];
        grid.schemes[i / inputs.size()].perTrace.push_back(
            std::move(cell.result));
        grid.cells.push_back(std::move(cell.timing));
    }
    grid.wallSeconds = ran.wallSeconds;
    grid.startNs = ran.startNs;
    grid.jobs = ran.jobs;
    grid.plan = plan.timing;
    grid.cacheEnabled = options.cache != nullptr;
    logEvent(LogLevel::Debug, "runner.grid.finished")
        .field("cells", static_cast<std::uint64_t>(grid.cells.size()))
        .field("jobs", grid.jobs)
        .field("cache_hits",
               static_cast<std::uint64_t>(grid.cacheHits()))
        .field("wall_seconds", grid.wallSeconds);
    return grid;
}

CycleBreakdown
averageBreakdowns(const std::vector<CycleBreakdown> &breakdowns)
{
    fatalIf(breakdowns.empty(), "no breakdowns to average");
    CycleBreakdown avg;
    for (const auto &breakdown : breakdowns) {
        avg.dirAccess += breakdown.dirAccess;
        avg.invalidate += breakdown.invalidate;
        avg.writeBack += breakdown.writeBack;
        avg.memAccess += breakdown.memAccess;
        avg.writeThroughOrUpdate += breakdown.writeThroughOrUpdate;
        avg.transactions += breakdown.transactions;
    }
    const double n = static_cast<double>(breakdowns.size());
    avg.dirAccess /= n;
    avg.invalidate /= n;
    avg.writeBack /= n;
    avg.memAccess /= n;
    avg.writeThroughOrUpdate /= n;
    avg.transactions /= n;
    return avg;
}

double
effectiveProcessorLimit(const CycleBreakdown &cost, double mips,
                        double bus_cycle_ns)
{
    fatalIf(mips <= 0.0 || bus_cycle_ns <= 0.0,
            "effectiveProcessorLimit needs positive rates");
    // "On average each instruction in the traces makes one data
    // reference" (Section 5): a processor at `mips` issues 2*mips
    // million memory references per second, each consuming
    // cost.total() bus cycles.
    const double cycles_per_second_per_cpu =
        2.0 * mips * 1e6 * cost.total();
    const double bus_cycles_per_second = 1e9 / bus_cycle_ns;
    if (cycles_per_second_per_cpu == 0.0)
        return 0.0;
    return bus_cycles_per_second / cycles_per_second_per_cpu;
}

} // namespace dirsim
