/**
 * @file
 * Set-associative LRU cache used by the finite-cache extension
 * experiment (the paper argues finite-cache performance can be
 * estimated "to first order by adding the costs due to the finite
 * cache size"; this model lets us measure that directly).
 */

#ifndef DIRSIM_CACHE_FINITE_CACHE_HH
#define DIRSIM_CACHE_FINITE_CACHE_HH

#include <vector>

#include "cache/cache_if.hh"

namespace dirsim
{

/** Geometry of a FiniteCache. */
struct FiniteCacheConfig
{
    /** Total capacity in bytes; must be a power of two. */
    std::uint64_t capacityBytes = 64 * 1024;
    /** Associativity; must divide capacity/blockBytes. */
    unsigned ways = 4;
    /** Block size in bytes; must match the simulation block size. */
    unsigned blockBytes = defaultBlockBytes;

    /** Number of sets implied by the geometry. */
    std::uint64_t numSets() const;

    /** Validate; throws UsageError on impossible geometry. */
    void check() const;
};

/**
 * Set-associative LRU cache that reports its victims.
 *
 * set() hands each line that LRU replacement evicts back to its
 * caller, so the protocol engine can write an evicted dirty block
 * back and update the directory, keeping the global coherence state
 * consistent.
 *
 * Block keys are the engine's densified block indices; the set is
 * chosen by the key's original block number (the labels passed to
 * reserveBlocks()), so set placement, LRU order, and therefore every
 * eviction are those of a cache indexed by real addresses. Lines and
 * victims carry the key itself. Without labels every key is its own
 * block number.
 *
 * Storage is one flat array of sets × ways lines. Each set's lines
 * are packed most-recently-used first, empty ways (state
 * stateNotPresent) last; promoting, installing and invalidating
 * shift the lines between, so the way order *is* the LRU order.
 */
class FiniteCache : public CacheModel
{
  public:
    explicit FiniteCache(const FiniteCacheConfig &config_arg);

    CacheBlockState lookup(BlockNum block) const override;
    CacheBlockState access(BlockNum block) override;
    bool set(BlockNum block, CacheBlockState state,
             Line *victim = nullptr) override;
    bool update(BlockNum block, CacheBlockState state) override;
    CacheBlockState invalidate(BlockNum block) override;
    std::size_t residentBlocks() const override { return resident; }
    void clear() override;
    void forEach(
        const std::function<void(BlockNum, CacheBlockState)> &fn)
        const override;

    /** Index sets by @p block_labels[key] from now on (see above). */
    void reserveBlocks(std::uint64_t block_count,
                       const BlockNum *block_labels = nullptr) override;

    const FiniteCacheConfig &config() const { return cfg; }

    /** Total LRU evictions performed. */
    std::uint64_t evictions() const { return evicted; }

  private:
    /**
     * Index in lines of the first way of @p block's set, chosen by
     * its real block number's low bits.
     */
    std::size_t setBase(BlockNum block) const;

    /**
     * Way of @p block in the set starting at @p set, or cfg.ways when
     * it is not resident.
     */
    unsigned find(const Line *set, BlockNum block) const;

    /** Move way @p way of @p set to the front (most-recently-used). */
    void promote(Line *set, unsigned way);

    FiniteCacheConfig cfg;
    /** numSets × ways lines; see the class comment for the order. */
    std::vector<Line> lines;
    std::uint64_t setMask = 0;
    std::size_t resident = 0;
    std::uint64_t evicted = 0;
    /** Original block number per key; nullptr = identity. */
    const BlockNum *labels = nullptr;
};

} // namespace dirsim

#endif // DIRSIM_CACHE_FINITE_CACHE_HH
