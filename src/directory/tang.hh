/**
 * @file
 * Tang's directory organization: the central directory holds a
 * duplicate of every cache's tag store (tag + dirty bit per cached
 * block). Finding the holders of a block means searching each
 * duplicate directory; the information content is the same as the
 * Censier & Feautrier full map (tested for equivalence), only the
 * organization and lookup cost differ.
 */

#ifndef DIRSIM_DIRECTORY_TANG_HH
#define DIRSIM_DIRECTORY_TANG_HH

#include <cstdint>
#include <vector>

#include "directory/sharer_set.hh"

namespace dirsim
{

/**
 * Duplicate-tag central directory.
 *
 * Each duplicate tag store is a flat per-block presence/dirty array
 * over densified block indices (sim/decoded.hh), sized by
 * reserveBlocks(), so a search touches one byte per cache.
 */
class TangDirectory
{
  public:
    /** Result of searching all duplicate tag stores for a block. */
    struct SearchResult
    {
        SharerSet holders;
        /** Cache holding the block dirty, or invalidCacheId. */
        CacheId dirtyOwner = invalidCacheId;

        bool dirty() const { return dirtyOwner != invalidCacheId; }
    };

    /** @param num_caches_arg number of caches whose tags to mirror */
    explicit TangDirectory(unsigned num_caches_arg);

    /** Mirror cache @p cache filling @p block (clean). */
    void recordFill(CacheId cache, BlockNum block);

    /** Mirror cache @p cache's copy of @p block turning dirty. */
    void recordDirty(CacheId cache, BlockNum block);

    /** Mirror cache @p cache's copy of @p block turning clean. */
    void recordClean(CacheId cache, BlockNum block);

    /** Mirror invalidation/eviction of @p block from cache @p cache. */
    void recordInvalidate(CacheId cache, BlockNum block);

    /** Search every duplicate directory for @p block. */
    SearchResult search(BlockNum block) const;

    /**
     * Number of duplicate directories a search touches (all of them;
     * this is the organization's lookup-cost drawback vs. the
     * directly-indexed full map).
     */
    unsigned searchCost() const
    {
        return static_cast<unsigned>(dupTags.size());
    }

    unsigned numCaches() const
    {
        return static_cast<unsigned>(dupTags.size());
    }

    /** Size every tag array for blocks [0, @p block_count), before
     *  any record. */
    void reserveBlocks(std::uint64_t block_count);

  private:
    /** Tag-slot encoding: absent / present-clean / present-dirty. */
    enum : std::uint8_t { tagAbsent = 0, tagClean = 1, tagDirty = 2 };

    /** Tag slot of @p block in @p cache's store, range-checked. */
    std::uint8_t &slot(CacheId cache, BlockNum block);

    /** Per-cache duplicate tags: one slot per block index. */
    std::vector<std::vector<std::uint8_t>> dupTags;
};

} // namespace dirsim

#endif // DIRSIM_DIRECTORY_TANG_HH
