/**
 * @file
 * Common interface for the per-process cache models.
 *
 * Coherence protocols attach a small protocol-specific state byte to
 * each resident block; the cache models only manage residency and
 * state storage. State value 0 is reserved to mean "not resident" and
 * is never stored.
 */

#ifndef DIRSIM_CACHE_CACHE_IF_HH
#define DIRSIM_CACHE_CACHE_IF_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.hh"

namespace dirsim
{

/** Protocol-defined per-block cache state; 0 means "not resident". */
using CacheBlockState = std::uint8_t;

/** Reserved "not resident" state value. */
inline constexpr CacheBlockState stateNotPresent = 0;

/**
 * Abstract per-process cache holding protocol state per block.
 *
 * Implementations: InfiniteCache (the paper's model, no replacement)
 * and FiniteCache (set-associative LRU, which hands its victims back
 * to the caller).
 */
class CacheModel
{
  public:
    /** A resident block and its state. */
    struct Line
    {
        BlockNum block = 0;
        CacheBlockState state = stateNotPresent;
    };

    virtual ~CacheModel() = default;

    /**
     * State of @p block, or stateNotPresent. Leaves replacement
     * metadata alone.
     */
    virtual CacheBlockState lookup(BlockNum block) const = 0;

    /**
     * lookup() on behalf of a reference: a resident block also
     * becomes most-recently-used (one probe for both).
     */
    virtual CacheBlockState access(BlockNum block) = 0;

    /**
     * Install or update @p block with @p state; either way it becomes
     * most-recently-used.
     *
     * @param state must not be stateNotPresent (panics otherwise)
     * @param victim when replacement evicts a line to make room, the
     *        evicted line is stored here (left untouched otherwise);
     *        nullptr drops it
     * @return true if the block was newly installed
     */
    virtual bool set(BlockNum block, CacheBlockState state,
                     Line *victim = nullptr) = 0;

    /**
     * Change the state of @p block if it is resident (making it
     * most-recently-used, as set() does); never installs.
     *
     * @param state must not be stateNotPresent
     * @return false when @p block is not resident
     */
    virtual bool update(BlockNum block, CacheBlockState state) = 0;

    /**
     * Remove @p block.
     *
     * @return the state the block had, or stateNotPresent
     */
    virtual CacheBlockState invalidate(BlockNum block) = 0;

    /** Number of resident blocks. */
    virtual std::size_t residentBlocks() const = 0;

    /** Drop everything. */
    virtual void clear() = 0;

    /** Visit every resident (block, state) pair. */
    virtual void forEach(
        const std::function<void(BlockNum, CacheBlockState)> &fn)
        const = 0;

    /**
     * Size the cache for block keys in [0, @p block_count): the
     * densified block indices of a decoded trace (sim/decoded.hh).
     * Must be called on an empty cache, before the first set().
     *
     * @param block_labels original block number per index (must
     *        outlive the cache), for caches whose placement depends
     *        on address bits; nullptr means every key is its own
     *        block number
     */
    virtual void reserveBlocks(std::uint64_t block_count,
                               const BlockNum *block_labels = nullptr) = 0;

    bool contains(BlockNum block) const
    {
        return lookup(block) != stateNotPresent;
    }
};

/** Factory producing one cache per coherence-domain member. */
using CacheFactory = std::function<std::unique_ptr<CacheModel>()>;

} // namespace dirsim

#endif // DIRSIM_CACHE_CACHE_IF_HH
