/**
 * @file
 * The coherence-protocol engine interface.
 *
 * A protocol owns one infinite cache per process (the paper's model)
 * plus whatever directory organization it needs, processes the data
 * references of a trace in order, and tallies the Table 4 events, the
 * concrete bus operations, and the Figure 1 invalidation histogram.
 *
 * The engine deliberately separates a protocol's *state-change
 * specification* from its *cost*: protocols record what happened;
 * bus/cost_model.hh later weights the records by per-operation cycle
 * costs (Section 4.1 of the paper).
 */

#ifndef DIRSIM_PROTOCOLS_PROTOCOL_HH
#define DIRSIM_PROTOCOLS_PROTOCOL_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_if.hh"
#include "common/histogram.hh"
#include "directory/sharer_set.hh"
#include "protocols/events.hh"

namespace dirsim
{

/**
 * Base class for all coherence protocols.
 *
 * The public read()/write() entry points perform the hit/miss
 * classification and Table 4 event accounting shared by every scheme,
 * then delegate the protocol-specific state changes and bus-operation
 * tallies to the handle* hooks.
 */
class CoherenceProtocol
{
  public:
    /**
     * @param num_caches_arg caches in the coherence domain (>= 1)
     * @param factory cache factory; empty (the default) builds the
     *        paper's infinite caches. A factory producing finite
     *        caches enables true replacement simulation: evicted
     *        dirty blocks are written back (costed), evicted blocks
     *        leave the holder oracle, and each scheme updates its
     *        directory through onEviction().
     */
    explicit CoherenceProtocol(unsigned num_caches_arg,
                               const CacheFactory &factory = {});
    virtual ~CoherenceProtocol() = default;

    CoherenceProtocol(const CoherenceProtocol &) = delete;
    CoherenceProtocol &operator=(const CoherenceProtocol &) = delete;

    /** Scheme name in the paper's notation, e.g. "Dir0B". */
    virtual std::string name() const = 0;

    /**
     * Process one data read.
     *
     * @param cache issuing cache
     * @param block referenced block
     * @param first_ref true when this is the globally first reference
     *        to the block in the trace (excluded from cost metrics)
     */
    void read(CacheId cache, BlockNum block, bool first_ref);

    /** Process one data write; parameters as read(). */
    void write(CacheId cache, BlockNum block, bool first_ref);

    /**
     * Count @p count instruction fetches (they never cause coherence
     * traffic; the decoded stream carries them as run lengths).
     */
    void instructions(std::uint64_t count)
    {
        eventCounts.add(EventType::Instr, count);
    }

    /**
     * Attach a per-reference trace sink (nullptr detaches).
     *
     * While attached, every data reference additionally reports to
     * the sink (ProtocolTraceSink in protocols/events.hh): dataRef()
     * and cleanWriteSample() always, emit() at the sink's sampling
     * period. Tracing never changes protocol state, event counts, or
     * operation tallies — a traced run's SimResult is bit-identical
     * to an untraced one (asserted by test). Compiled out entirely
     * (and ignored) when DIRSIM_NO_TRACER is defined.
     */
    void attachTracer(ProtocolTraceSink *sink);

    /** The currently attached trace sink (nullptr when none). */
    ProtocolTraceSink *tracer() const { return traceSink; }

    EventCounts &events() { return eventCounts; }
    const EventCounts &events() const { return eventCounts; }
    const OpCounts &ops() const { return opCounts; }

    /**
     * Figure 1 data: for each write to a previously-clean block, the
     * number of *other* caches that held (and had to give up) a copy.
     */
    const Histogram &cleanWriteHolders() const { return cleanWriteHist; }

    unsigned numCaches() const
    {
        return static_cast<unsigned>(caches.size());
    }

    /** True when the caches can evict (finite-cache simulation). */
    bool finiteCaches() const { return finiteMode; }

    /**
     * Size the engine for @p block_count blocks: every block key is a
     * densified index in [0, @p block_count) (sim/decoded.hh), so the
     * holder oracle is a flat SharerStore arena, each cache a flat
     * array (or, for finite caches, LRU sets chosen by the labels),
     * and each scheme's directory a pre-materialized entry arena (via
     * onReserveBlocks()). Every probe on the per-reference hot path
     * is then an array load.
     *
     * Must be called exactly once, on a fresh protocol, before the
     * first reference; read()/write() panic on a block outside the
     * reserved range, which includes every block of an unreserved
     * protocol.
     *
     * @param block_labels optional original block number per index
     *        (must outlive the protocol): finite caches pick their
     *        sets by it, and trace-sink events are labelled with it.
     *        nullptr makes every index its own block number.
     */
    void reserveBlocks(std::uint32_t block_count,
                       const BlockNum *block_labels = nullptr);

    /** A two-state scheme's {clean, dirty} cache-state constants. */
    struct OracleStates
    {
        CacheBlockState clean;
        CacheBlockState dirty;
    };

    /**
     * Fast-path opt-in for two-state schemes. A protocol whose
     * per-cache state is fully determined by the holder oracle —
     * resident means `clean` unless the cache is the tracked dirty
     * owner, in which case `dirty` — returns its state pair here.
     * With infinite caches the engine then derives every cache-state
     * query from the oracle and maintains *no* per-cache block
     * arenas: at large N those arenas are numCaches × blockCount
     * bytes of working set whose every probe is a cache miss, while
     * the oracle entry is already hot from classifyOthers(). Finite
     * caches always keep real caches, because replacement needs them.
     */
    virtual std::optional<OracleStates> oracleStates() const
    {
        return std::nullopt;
    }

    /** True when cache state is derived from the oracle. */
    bool oracleDerivedState() const { return oracleMode; }

    /** Protocol state of @p block in @p cache (stateNotPresent if out). */
    CacheBlockState cacheState(CacheId cache, BlockNum block) const;

    /** Exact set of caches holding @p block (ground truth). */
    SharerSet holders(BlockNum block) const;

    /** Blocks currently resident in at least one cache. */
    std::vector<BlockNum> residentBlocks() const;

    /** True when @p state counts as modified relative to memory. */
    virtual bool isDirtyState(CacheBlockState state) const = 0;

    /**
     * Verify the protocol's coherence invariants for @p block,
     * throwing LogicError on violation. The base check enforces the
     * universal single-writer rule; subclasses add scheme-specific
     * checks (pointer budgets, directory agreement, ...).
     */
    virtual void checkInvariants(BlockNum block) const;

    /** checkInvariants() over every resident block. */
    void checkAllInvariants() const;

  protected:
    /** What the rest of the system holds when a cache misses/writes. */
    struct Others
    {
        unsigned numOthers = 0; ///< other caches holding the block
        bool anyDirty = false;  ///< one of them holds it dirty/owned
        CacheId dirtyOwner = invalidCacheId;
        CacheId anyHolder = invalidCacheId; ///< some other holder
    };

    /** Survey all caches except @p cache for @p block. */
    Others classifyOthers(CacheId cache, BlockNum block) const;

    /**
     * Replace @p out with the holders of @p block in ascending order.
     * The allocation-free holders(): invalidation loops iterate the
     * snapshot while invalidateIn() edits the live oracle.
     */
    void snapshotHolders(BlockNum block, CacheIdList &out) const;

    /** Number of caches holding @p block (0 when untracked). */
    unsigned holderCount(BlockNum block) const;

    /** Lowest-numbered holder of @p block; panics when none. */
    CacheId firstHolder(BlockNum block) const;

    /**
     * Apply a read miss.
     *
     * @param first true for globally-first references: install state
     *        but record no bus operations (uncosted by methodology)
     */
    virtual void handleReadMiss(CacheId cache, BlockNum block,
                                const Others &others, bool first) = 0;

    /**
     * Apply a write hit; the hook must also record the WrtHit
     * sub-event (WhBlkCln/WhBlkDrty or WhDistrib/WhLocal).
     */
    virtual void handleWriteHit(CacheId cache, BlockNum block,
                                CacheBlockState state) = 0;

    /** Apply a write miss (see handleReadMiss for @p first). */
    virtual void handleWriteMiss(CacheId cache, BlockNum block,
                                 const Others &others, bool first) = 0;

    /** Install @p block in @p cache (cache + holder oracle). */
    void install(CacheId cache, BlockNum block, CacheBlockState state);

    /** Change the state of a block the cache already holds. */
    void setState(CacheId cache, BlockNum block, CacheBlockState state);

    /** Remove @p block from @p cache (cache + holder oracle). */
    void invalidateIn(CacheId cache, BlockNum block);

    /**
     * Scheme-specific directory maintenance after a replacement
     * evicted @p block (with @p state) from @p cache. The base class
     * has already written the block back (if dirty) and removed it
     * from the holder oracle.
     */
    virtual void onEviction(CacheId cache, BlockNum block,
                            CacheBlockState state);

    /**
     * Scheme hook of reserveBlocks(): pre-size the scheme's directory
     * for @p block_count densified block indices (typically one
     * directory reserveBlocks() call). The base class has already
     * sized the holder oracle and the caches.
     */
    virtual void onReserveBlocks(std::uint32_t block_count);

    /** Record a Figure 1 sample. */
    void sampleCleanWrite(unsigned num_others)
    {
        cleanWriteHist.add(num_others);
#ifndef DIRSIM_NO_TRACER
        if (traceSink != nullptr)
            traceSink->cleanWriteSample(num_others);
#endif
    }

    EventCounts eventCounts;
    OpCounts opCounts;

  private:
    /**
     * Replacement evicted @p block (in @p state) from @p cache, which
     * install() passes on from the cache's set(): write back, update
     * the oracle.
     */
    void handleEviction(CacheId cache, BlockNum block,
                        CacheBlockState state);

    /**
     * The pre-tracer read()/write() bodies, verbatim: the public
     * entry points dispatch straight here when no sink is attached,
     * so the untraced hot path is unchanged.
     */
    void processRead(CacheId cache, BlockNum block, bool first_ref);
    void processWrite(CacheId cache, BlockNum block, bool first_ref);

#ifndef DIRSIM_NO_TRACER
    /** The traced slow path: report, sample, capture, delegate. */
    void tracedRef(CacheId cache, BlockNum block, bool first_ref,
                   bool is_write);
#endif

    /** cacheState() body without the cache-id range check. */
    CacheBlockState stateOf(CacheId cache, BlockNum block) const;

    /** Panic unless @p cache and @p block are in range. */
    void checkRef(CacheId cache, BlockNum block) const
    {
        if (cache >= caches.size()
            || block >= holderSets.blockCount()) [[unlikely]]
            refOutOfRange(cache, block);
    }

    [[noreturn]] void refOutOfRange(CacheId cache, BlockNum block) const;

    /** Track @p cache as @p block's dirty owner iff @p state is dirty. */
    void noteOwner(CacheId cache, BlockNum block, CacheBlockState state)
    {
        if (isDirtyState(state))
            dirtyOwner[block] = cache;
        else if (dirtyOwner[block] == cache)
            dirtyOwner[block] = invalidCacheId;
    }

    /** @p block left @p cache: update the oracle and dirty owner. */
    void dropHolder(CacheId cache, BlockNum block);

    std::vector<std::unique_ptr<CacheModel>> caches;
    /**
     * The holder oracle: the exact set of caches holding each block,
     * kept in sync by the helpers in one hybrid inline/spill arena.
     */
    SharerStore holderSets;
    /**
     * The cache holding each block dirty (or invalidCacheId),
     * maintained by install/setState/invalidateIn/eviction so
     * classifyOthers() needs no per-cache state survey.
     */
    std::vector<CacheId> dirtyOwner;
    /** Original block number per index (may be nullptr). */
    const BlockNum *blockLabels = nullptr;
    Histogram cleanWriteHist;
    bool finiteMode = false;
    bool reserved = false;
    /** Infinite caches + oracleStates(): cache state derived. */
    bool oracleMode = false;
    CacheBlockState oracleClean = stateNotPresent;
    CacheBlockState oracleDirty = stateNotPresent;

    /** Attached trace sink; nullptr (the default) costs one branch. */
    ProtocolTraceSink *traceSink = nullptr;
    /** Cached sink->samplePeriod(); 0 = no timeline events. */
    unsigned tracePeriod = 0;
    /** References until the next emit() (counts down from period). */
    unsigned traceCountdown = 0;
};

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_PROTOCOL_HH
