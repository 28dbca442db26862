#include "directory/tang.hh"

#include "common/logging.hh"

namespace dirsim
{

TangDirectory::TangDirectory(unsigned num_caches_arg)
    : dupTags(num_caches_arg)
{
    fatalIf(num_caches_arg == 0, "directory needs at least one cache");
}

std::uint8_t &
TangDirectory::slot(CacheId cache, BlockNum block)
{
    panicIfNot(cache < dupTags.size(), "cache id out of range");
    panicIfNot(block < dupTags[cache].size(),
               "TangDirectory: block ", block, " outside the reserved ",
               dupTags[cache].size(), " blocks");
    return dupTags[cache][block];
}

void
TangDirectory::recordFill(CacheId cache, BlockNum block)
{
    slot(cache, block) = tagClean;
}

void
TangDirectory::recordDirty(CacheId cache, BlockNum block)
{
    std::uint8_t &tag = slot(cache, block);
    panicIfNot(tag != tagAbsent,
               "recordDirty for a block the cache does not hold");
    tag = tagDirty;
}

void
TangDirectory::recordClean(CacheId cache, BlockNum block)
{
    std::uint8_t &tag = slot(cache, block);
    panicIfNot(tag != tagAbsent,
               "recordClean for a block the cache does not hold");
    tag = tagClean;
}

void
TangDirectory::recordInvalidate(CacheId cache, BlockNum block)
{
    slot(cache, block) = tagAbsent;
}

TangDirectory::SearchResult
TangDirectory::search(BlockNum block) const
{
    SearchResult result;
    result.holders = SharerSet(numCaches());
    for (CacheId cache = 0; cache < dupTags.size(); ++cache) {
        const std::uint8_t tag = block < dupTags[cache].size()
            ? dupTags[cache][block]
            : std::uint8_t{tagAbsent};
        if (tag == tagAbsent)
            continue;
        result.holders.add(cache);
        if (tag == tagDirty) {
            panicIfNot(result.dirtyOwner == invalidCacheId,
                       "two caches hold block ", block, " dirty");
            result.dirtyOwner = cache;
        }
    }
    return result;
}

void
TangDirectory::reserveBlocks(std::uint64_t block_count)
{
    for (auto &tags : dupTags)
        tags.assign(block_count, tagAbsent);
}

} // namespace dirsim
