#include "sim/decoded.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/dense_id_map.hh"
#include "common/logging.hh"
#include "protocols/registry.hh"
#include "sim/engine_parts.hh"
#include "trace/reader.hh"

namespace dirsim
{

std::uint64_t
DecodedTrace::memoryBytes() const
{
    return ops.size() * sizeof(std::uint8_t)
        + blocks.size() * sizeof(std::uint32_t)
        + caches.size() * sizeof(CacheId)
        + instrRuns.size() * sizeof(std::uint16_t)
        + longInstrRuns.size() * sizeof(LongInstrRun)
        + denseToBlock.size() * sizeof(BlockNum);
}

std::uint64_t
DecodedTrace::longInstrRun(std::uint64_t ref) const
{
    const auto it = std::lower_bound(
        longInstrRuns.begin(), longInstrRuns.end(), ref,
        [](const LongInstrRun &run, std::uint64_t key) {
            return run.ref < key;
        });
    panicIfNot(it != longInstrRuns.end() && it->ref == ref,
               "decoded trace: data ref ", ref,
               " has an escaped instruction run but no long run");
    return it->instrs;
}

DecodedTrace
decodeTrace(TraceSource &source, unsigned block_bytes,
            SharingModel sharing)
{
    checkBlockSize(block_bytes);

    DecodedTrace out;
    out.blockBytes = block_bytes;
    out.sharing = sharing;

    if (const auto hint = source.sizeHint()) {
        // An upper bound (instructions take no row); the pages a
        // shorter stream never fills are never touched.
        out.ops.reserve(*hint);
        out.blocks.reserve(*hint);
        out.caches.reserve(*hint);
        out.instrRuns.reserve(*hint);
    }

    // Sizing state follows cachesNeeded(Trace, ...): distinct pids
    // over *all* records / the maximum CPU index. The mapping state
    // mirrors the simulation loop: dense ids handed out in order of
    // first appearance over *data* records only. DenseIdMap rather than
    // std::unordered_map: these insert-or-finds per record are the
    // whole decode pass, and the flat table halves its cost. A data
    // record hashes its pid once, into cache_ids; sizing_pids hears of
    // it only on the pid's first data sighting.
    DenseIdMap sizing_pids;
    unsigned max_cpu = 0;
    DenseIdMap cache_ids;
    DenseIdMap block_ids;
    std::uint64_t run = 0; // instructions since the last data ref

    TraceRecord record;
    while (source.next(record)) {
        if (sharing == SharingModel::ByProcessor && record.cpu > max_cpu)
            max_cpu = record.cpu;

        if (record.isInstr()) {
            if (sharing == SharingModel::ByProcess)
                sizing_pids.idFor(record.pid);
            ++run;
            continue;
        }

        const std::uint64_t key = sharing == SharingModel::ByProcess
            ? static_cast<std::uint64_t>(record.pid)
            : static_cast<std::uint64_t>(record.cpu);
        const auto [cache, first_cache_ref] = cache_ids.idFor(key);
        if (first_cache_ref && sharing == SharingModel::ByProcess)
            sizing_pids.idFor(record.pid);

        const BlockNum block =
            blockNumber(record.addr, block_bytes);
        const auto [dense_block, first_ref] = block_ids.idFor(block);
        if (first_ref)
            out.denseToBlock.push_back(block);

        std::uint8_t op = record.isRead() ? decodedOpRead
                                          : decodedOpWrite;
        if (first_ref)
            op |= decodedOpFirstRef;
        if (run >= instrRunEscape) {
            out.longInstrRuns.push_back({out.dataRefs, run});
            out.instrRuns.push_back(instrRunEscape);
        } else {
            out.instrRuns.push_back(static_cast<std::uint16_t>(run));
        }
        out.instrs += run;
        run = 0;
        out.ops.push_back(op);
        out.blocks.push_back(dense_block);
        out.caches.push_back(cache);
        ++out.dataRefs;
    }
    out.trailingInstrs = run;
    out.instrs += run;

    out.name = source.name();
    out.cachesUsed = static_cast<unsigned>(cache_ids.size());
    if (sharing == SharingModel::ByProcess) {
        out.cachesNeeded = static_cast<unsigned>(sizing_pids.size());
    } else {
        const unsigned observed =
            out.numRecords() > 0 ? max_cpu + 1 : 0;
        out.cachesNeeded = observed > 0 ? observed : source.numCpus();
    }
    return out;
}

DecodedTrace
decodeTrace(const Trace &trace, unsigned block_bytes,
            SharingModel sharing)
{
    MemoryTraceSource source(trace);
    return decodeTrace(source, block_bytes, sharing);
}

DecodedTrace
decodeTraceFile(const std::string &path, unsigned block_bytes,
                SharingModel sharing)
{
    // The reader names the file in every error it raises.
    const auto source = openTraceSource(path);
    return decodeTrace(*source, block_bytes, sharing);
}

void
checkDecodedGeometry(const DecodedTrace &decoded,
                     const SimConfig &config)
{
    checkBlockSize(config.blockBytes);
    fatalIf(config.blockBytes != decoded.blockBytes,
            "trace was decoded with ", decoded.blockBytes,
            "-byte blocks but the simulation uses ", config.blockBytes,
            "-byte blocks; decode it again");
    fatalIf(config.sharing != decoded.sharing,
            "trace was decoded under a different sharing model than "
            "the simulation requests; decode it again");
}

SimResult
measuredResult(const DecodedTrace &decoded,
               const CoherenceProtocol &protocol,
               const WarmupSnapshot &warmup)
{
    SimResult result;
    result.scheme = protocol.name();
    result.traceName = decoded.name;
    result.numCaches = protocol.numCaches();
    result.events = protocol.events();
    result.events.subtract(warmup.events);
    result.ops = protocol.ops();
    result.ops.subtract(warmup.ops);
    result.cleanWriteHolders = protocol.cleanWriteHolders();
    result.cleanWriteHolders.subtract(warmup.cleanWriteHolders);
    result.totalRefs = result.events.totalRefs();
    return result;
}

WarmupPoint
locateWarmup(const DecodedTrace &decoded, std::uint64_t warmup_refs)
{
    WarmupPoint point;
    if (warmup_refs == 0)
        return point;
    fatalIf(warmup_refs >= decoded.numRecords(),
            "warm-up of ", warmup_refs,
            " references consumed the whole trace (",
            decoded.numRecords(), " references)");
    // Walk the runs: data ref i sits at global record index
    // before + instrsBefore(i), where before counts every record of
    // the refs ahead of it.
    std::uint64_t before = 0;
    for (std::uint64_t i = 0; i < decoded.dataRefs; ++i) {
        const std::uint64_t run = decoded.instrsBefore(i);
        if (warmup_refs <= before + run) {
            point.ref = i;
            point.instrs = warmup_refs - before;
            return point;
        }
        before += run + 1;
    }
    point.ref = decoded.dataRefs;
    point.instrs = warmup_refs - before;
    return point;
}

SimResult
simulateTrace(const DecodedTrace &decoded,
              CoherenceProtocol &protocol, const SimConfig &config)
{
    checkDecodedGeometry(decoded, config);
    fatalIf(config.finiteCache && !protocol.finiteCaches(),
            "SimConfig::finiteCache is set but the supplied protocol "
            "was built with infinite caches; build it with a "
            "FiniteCache factory or use a scheme-building "
            "simulateTrace overload");
    fatalIf(decoded.cachesUsed > protocol.numCaches(),
            "trace needs more than ", protocol.numCaches(),
            " caches; build the protocol with a larger domain");
    fatalIf(decoded.numRecords() == 0, "cannot simulate an empty trace");
    const WarmupPoint warm = locateWarmup(decoded, config.warmupRefs);

    if (config.traceSink != nullptr)
        protocol.attachTracer(config.traceSink);

    protocol.reserveBlocks(decoded.blockCount(),
                           decoded.denseToBlock.data());

    WarmupSnapshot warmup;
    PhaseBreakdown phases;
    const std::uint64_t loop_start = PhaseTimer::nowNs();
    std::uint64_t measure_start = loop_start;
    // The warm-up ends warm.instrs into a run of @p instrs: count
    // those, snapshot, and return the rest of the run.
    const auto warm_up = [&](std::uint64_t instrs) {
        protocol.instructions(warm.instrs);
        warmup.take(protocol);
        measure_start = PhaseTimer::nowNs();
        phases.add(Phase::Warmup, measure_start - loop_start);
        return instrs - warm.instrs;
    };

    const std::uint64_t data_refs = decoded.dataRefs;
    for (std::uint64_t i = 0; i < data_refs; ++i) {
        std::uint64_t instrs = decoded.instrsBefore(i);
        if (i == warm.ref) [[unlikely]]
            instrs = warm_up(instrs);
        protocol.instructions(instrs);
        const std::uint8_t op = decoded.ops[i];
        const CacheId cache = decoded.caches[i];
        const BlockNum block = decoded.blocks[i];
        const bool first_ref = (op & decodedOpFirstRef) != 0;
        if ((op & decodedOpKindMask) == decodedOpRead)
            protocol.read(cache, block, first_ref);
        else
            protocol.write(cache, block, first_ref);
        if (config.invariantCheckPeriod != 0
            && (i + 1) % config.invariantCheckPeriod == 0) {
            protocol.checkAllInvariants();
        }
    }
    std::uint64_t trailing = decoded.trailingInstrs;
    if (warm.ref == data_refs)
        trailing = warm_up(trailing);
    protocol.instructions(trailing);
    if (config.invariantCheckPeriod != 0)
        protocol.checkAllInvariants();
    const std::uint64_t loop_end = PhaseTimer::nowNs();
    phases.add(Phase::Simulate, loop_end - measure_start);

    SimResult result = measuredResult(decoded, protocol, warmup);
    phases.add(Phase::Reduce, PhaseTimer::nowNs() - loop_end);
    result.phases = phases;
    return result;
}

SimResult
simulateTrace(const DecodedTrace &decoded, const SchemeSpec &scheme,
              const SimConfig &config)
{
    const unsigned caches = decoded.cachesNeeded;
    fatalIf(caches == 0, "trace '", decoded.name,
            "' has no references");
    const auto protocol =
        makeProtocol(scheme, caches, cacheFactoryFor(config));
    return simulateTrace(decoded, *protocol, config);
}

} // namespace dirsim
