#include "protocols/protocol.hh"

#include "cache/infinite_cache.hh"
#include "common/logging.hh"

namespace dirsim
{

CoherenceProtocol::CoherenceProtocol(unsigned num_caches_arg,
                                     const CacheFactory &factory)
    : finiteMode(static_cast<bool>(factory))
{
    fatalIf(num_caches_arg == 0,
            "a coherence domain needs at least one cache");
    caches.reserve(num_caches_arg);
    for (CacheId cache = 0; cache < num_caches_arg; ++cache) {
        if (factory)
            caches.push_back(factory());
        else
            caches.push_back(std::make_unique<InfiniteCache>());
        fatalIf(caches.back() == nullptr,
                "the cache factory returned a null cache");
    }
}

void
CoherenceProtocol::reserveBlocks(std::uint32_t block_count,
                                 const BlockNum *block_labels)
{
    panicIfNot(!reserved, name(), ": reserveBlocks called twice");
    holderSets.reset(numCaches(), block_count);
    dirtyOwner.assign(block_count, invalidCacheId);
    blockLabels = block_labels;
    reserved = true;
    const auto states = oracleStates();
    if (states && !finiteMode) {
        // Two-state scheme: cache state is derived from the oracle
        // from here on, so no per-cache arena is ever allocated (see
        // oracleStates() in the header).
        oracleMode = true;
        oracleClean = states->clean;
        oracleDirty = states->dirty;
    } else {
        for (const auto &cache : caches)
            cache->reserveBlocks(block_count, block_labels);
    }
    onReserveBlocks(block_count);
}

void
CoherenceProtocol::onReserveBlocks(std::uint32_t)
{
}

void
CoherenceProtocol::handleEviction(CacheId cache, BlockNum block,
                                  CacheBlockState state)
{
    // The cache already dropped the line; mirror that in the oracle.
    dropHolder(cache, block);
    // A modified victim must be written back to memory. This is
    // replacement (capacity/conflict) traffic, accounted in its own
    // operation counter so the coherence costs stay separable.
    if (isDirtyState(state)) {
        ++opCounts.evictionWriteBacks;
        ++opCounts.busTransactions;
    }
    onEviction(cache, block, state);
}

void
CoherenceProtocol::onEviction(CacheId, BlockNum, CacheBlockState)
{
}

void
CoherenceProtocol::refOutOfRange(CacheId cache, BlockNum block) const
{
    panicIfNot(cache < caches.size(), name(), ": cache id ", cache,
               " out of range");
    panic(name(), ": block ", block, " outside the ",
          holderSets.blockCount(), " reserved blocks",
          reserved ? "" : " (call reserveBlocks before the first "
                          "reference)");
}

void
CoherenceProtocol::attachTracer(ProtocolTraceSink *sink)
{
    traceSink = sink;
    tracePeriod = sink != nullptr ? sink->samplePeriod() : 0;
    traceCountdown = tracePeriod;
}

void
CoherenceProtocol::read(CacheId cache, BlockNum block, bool first_ref)
{
#ifndef DIRSIM_NO_TRACER
    if (traceSink != nullptr) {
        tracedRef(cache, block, first_ref, false);
        return;
    }
#endif
    processRead(cache, block, first_ref);
}

void
CoherenceProtocol::write(CacheId cache, BlockNum block, bool first_ref)
{
#ifndef DIRSIM_NO_TRACER
    if (traceSink != nullptr) {
        tracedRef(cache, block, first_ref, true);
        return;
    }
#endif
    processWrite(cache, block, first_ref);
}

#ifndef DIRSIM_NO_TRACER

void
CoherenceProtocol::tracedRef(CacheId cache, BlockNum block,
                             bool first_ref, bool is_write)
{
    checkRef(cache, block);
    // Blocks are keyed by densified index; label sink events with the
    // original block numbers so traces stay meaningful.
    const BlockNum label =
        blockLabels != nullptr ? blockLabels[block] : block;
    traceSink->dataRef(label, cache, is_write);

    bool sampled = false;
    if (tracePeriod != 0 && --traceCountdown == 0) {
        traceCountdown = tracePeriod;
        sampled = true;
    }
    if (!sampled) {
        if (is_write)
            processWrite(cache, block, first_ref);
        else
            processRead(cache, block, first_ref);
        return;
    }

    // Capture the transition around the reference. The snapshots are
    // only taken on sampled references, so the cost scales with the
    // sampling rate, not the trace length.
    ProtocolTraceEvent event;
    event.block = label;
    event.cache = cache;
    event.firstRef = first_ref;
    event.stateBefore = stateOf(cache, block);
    event.othersBefore = classifyOthers(cache, block).numOthers;
    const EventCounts events_before = eventCounts;
    const OpCounts ops_before = opCounts;

    if (is_write)
        processWrite(cache, block, first_ref);
    else
        processRead(cache, block, first_ref);

    event.stateAfter = stateOf(cache, block);
    event.othersAfter = classifyOthers(cache, block).numOthers;
    event.type = mostSpecificNewEvent(events_before, eventCounts);
    event.ops = opCounts;
    event.ops.subtract(ops_before);
    event.ref = eventCounts.totalRefs();
    traceSink->emit(event);
}

#endif // DIRSIM_NO_TRACER

void
CoherenceProtocol::processRead(CacheId cache, BlockNum block,
                               bool first_ref)
{
    checkRef(cache, block);
    eventCounts.add(EventType::Read);

    if (oracleMode ? holderSets.contains(block, cache)
                   : caches[cache]->access(block) != stateNotPresent) {
        eventCounts.add(EventType::RdHit);
        return;
    }

    if (first_ref) {
        eventCounts.add(EventType::RmFirstRef);
        handleReadMiss(cache, block, Others{}, true);
        return;
    }

    eventCounts.add(EventType::RdMiss);
    const Others others = classifyOthers(cache, block);
    if (others.anyDirty)
        eventCounts.add(EventType::RmBlkDrty);
    else if (others.numOthers > 0)
        eventCounts.add(EventType::RmBlkCln);
    handleReadMiss(cache, block, others, false);
}

void
CoherenceProtocol::processWrite(CacheId cache, BlockNum block,
                                bool first_ref)
{
    checkRef(cache, block);
    eventCounts.add(EventType::Write);

    const CacheBlockState state =
        oracleMode ? stateOf(cache, block) : caches[cache]->access(block);
    if (state != stateNotPresent) {
        eventCounts.add(EventType::WrtHit);
        handleWriteHit(cache, block, state);
        return;
    }

    if (first_ref) {
        eventCounts.add(EventType::WmFirstRef);
        handleWriteMiss(cache, block, Others{}, true);
        return;
    }

    eventCounts.add(EventType::WrtMiss);
    const Others others = classifyOthers(cache, block);
    if (others.anyDirty)
        eventCounts.add(EventType::WmBlkDrty);
    else if (others.numOthers > 0)
        eventCounts.add(EventType::WmBlkCln);
    handleWriteMiss(cache, block, others, false);
}

CacheBlockState
CoherenceProtocol::stateOf(CacheId cache, BlockNum block) const
{
    if (block >= holderSets.blockCount())
        return stateNotPresent;
    if (oracleMode) {
        if (!holderSets.contains(block, cache))
            return stateNotPresent;
        return dirtyOwner[block] == cache ? oracleDirty : oracleClean;
    }
    return caches[cache]->lookup(block);
}

CacheBlockState
CoherenceProtocol::cacheState(CacheId cache, BlockNum block) const
{
    panicIfNot(cache < caches.size(), "cache id out of range");
    return stateOf(cache, block);
}

SharerSet
CoherenceProtocol::holders(BlockNum block) const
{
    if (block < holderSets.blockCount())
        return holderSets.snapshot(block);
    return SharerSet(numCaches());
}

void
CoherenceProtocol::snapshotHolders(BlockNum block, CacheIdList &out) const
{
    out.clear();
    if (block < holderSets.blockCount())
        holderSets.appendTo(block, out);
}

unsigned
CoherenceProtocol::holderCount(BlockNum block) const
{
    return block < holderSets.blockCount() ? holderSets.count(block) : 0;
}

CacheId
CoherenceProtocol::firstHolder(BlockNum block) const
{
    return holderSets.first(block);
}

std::vector<BlockNum>
CoherenceProtocol::residentBlocks() const
{
    std::vector<BlockNum> blocks;
    for (BlockNum block = 0; block < holderSets.blockCount(); ++block) {
        if (!holderSets.empty(block))
            blocks.push_back(block);
    }
    return blocks;
}

void
CoherenceProtocol::checkInvariants(BlockNum block) const
{
    const SharerSet sharers = holders(block);

    // The holder oracle and the per-cache stores must agree.
    unsigned holder_count = 0;
    unsigned dirty_count = 0;
    for (CacheId cache = 0; cache < caches.size(); ++cache) {
        const CacheBlockState state = stateOf(cache, block);
        const bool resident = state != stateNotPresent;
        panicIfNot(resident == sharers.contains(cache),
                   name(), ": holder oracle out of sync for block ",
                   block, " cache ", cache);
        if (resident) {
            ++holder_count;
            if (isDirtyState(state))
                ++dirty_count;
        }
    }
    panicIfNot(holder_count == sharers.count(),
               name(), ": holder count mismatch for block ", block);

    // Universal single-writer rule: at most one modified/owned copy.
    panicIfNot(dirty_count <= 1,
               name(), ": block ", block, " is dirty in ", dirty_count,
               " caches");

    // The dirty-owner shadow must agree with the cache states it
    // summarizes.
    if (block < dirtyOwner.size()) {
        const CacheId owner = dirtyOwner[block];
        if (dirty_count == 0) {
            panicIfNot(owner == invalidCacheId,
                       name(), ": stale dirty owner ", owner,
                       " for clean block ", block);
        } else {
            panicIfNot(owner != invalidCacheId
                           && sharers.contains(owner)
                           && isDirtyState(stateOf(owner, block)),
                       name(), ": dirty owner out of sync for block ",
                       block);
        }
    }
}

void
CoherenceProtocol::checkAllInvariants() const
{
    // The arena covers every block the trace can touch, so check all
    // of it: absent blocks assert that no cache holds them.
    for (BlockNum block = 0; block < holderSets.blockCount(); ++block)
        checkInvariants(block);
}

CoherenceProtocol::Others
CoherenceProtocol::classifyOthers(CacheId cache, BlockNum block) const
{
    Others others;
    if (block >= holderSets.blockCount())
        return others;
    // The holder oracle answers directly: an O(1) count, a reverse
    // scan for a representative holder (the last other holder in
    // ascending order), and the tracked dirty owner instead of a
    // state probe per holder.
    const unsigned num_others = holderSets.countExcluding(block, cache);
    if (num_others == 0)
        return others;
    others.numOthers = num_others;
    others.anyHolder = holderSets.lastExcluding(block, cache);
    const CacheId owner = dirtyOwner[block];
    if (owner != invalidCacheId && owner != cache) {
        others.anyDirty = true;
        others.dirtyOwner = owner;
    }
    return others;
}

void
CoherenceProtocol::install(CacheId cache, BlockNum block,
                           CacheBlockState state)
{
    // Order matters with finite caches: the insertion may evict a
    // line, whose handling edits the holder oracle, so the oracle
    // entry for the new block is added afterwards. In oracle mode
    // the oracle *is* the cache state, so there is nothing else to
    // write.
    if (!oracleMode) {
        CacheModel::Line victim;
        caches[cache]->set(block, state, &victim);
        if (victim.state != stateNotPresent)
            handleEviction(cache, victim.block, victim.state);
    }
    holderSets.add(block, cache);
    noteOwner(cache, block, state);
}

void
CoherenceProtocol::setState(CacheId cache, BlockNum block,
                            CacheBlockState state)
{
    // Branch-then-panic: panicIfNot would build the message (a name()
    // string concatenation) on every call.
    if (oracleMode) {
        if (!holderSets.contains(block, cache)) [[unlikely]]
            panic(name(), ": setState for a block cache ", cache,
                  " does not hold");
    } else {
        if (!caches[cache]->update(block, state)) [[unlikely]]
            panic(name(), ": setState for a block cache ", cache,
                  " does not hold");
    }
    noteOwner(cache, block, state);
}

void
CoherenceProtocol::invalidateIn(CacheId cache, BlockNum block)
{
    if (!oracleMode)
        caches[cache]->invalidate(block);
    dropHolder(cache, block);
}

void
CoherenceProtocol::dropHolder(CacheId cache, BlockNum block)
{
    holderSets.remove(block, cache);
    if (dirtyOwner[block] == cache)
        dirtyOwner[block] = invalidCacheId;
}

} // namespace dirsim
