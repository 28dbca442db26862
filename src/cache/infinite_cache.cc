#include "cache/infinite_cache.hh"

#include "common/logging.hh"

namespace dirsim
{

CacheBlockState
InfiniteCache::lookup(BlockNum block) const
{
    return block < size ? states[block] : stateNotPresent;
}

bool
InfiniteCache::set(BlockNum block, CacheBlockState state, Line *)
{
    panicIfNot(state != stateNotPresent,
               "InfiniteCache::set with the reserved not-present state");
    panicIfNot(block < size,
               "InfiniteCache::set: block ", block,
               " outside the reserved arena of ", size,
               " blocks (call reserveBlocks first)");
    CacheBlockState &slot = states[block];
    const bool inserted = slot == stateNotPresent;
    slot = state;
    resident += inserted ? 1 : 0;
    return inserted;
}

bool
InfiniteCache::update(BlockNum block, CacheBlockState state)
{
    panicIfNot(state != stateNotPresent,
               "InfiniteCache::update with the reserved not-present "
               "state");
    if (lookup(block) == stateNotPresent)
        return false;
    states[block] = state;
    return true;
}

CacheBlockState
InfiniteCache::invalidate(BlockNum block)
{
    if (block >= size)
        return stateNotPresent;
    const CacheBlockState old = states[block];
    states[block] = stateNotPresent;
    resident -= old != stateNotPresent ? 1 : 0;
    return old;
}

void
InfiniteCache::clear()
{
    // Fresh calloc instead of a fill: the zeroing stays lazy.
    allocArena(size);
    resident = 0;
}

void
InfiniteCache::forEach(
    const std::function<void(BlockNum, CacheBlockState)> &fn) const
{
    for (BlockNum block = 0; block < size; ++block) {
        if (states[block] != stateNotPresent)
            fn(block, states[block]);
    }
}

void
InfiniteCache::allocArena(std::uint64_t block_count)
{
    // calloc so untouched pages never materialize; see the header.
    auto *arena = static_cast<CacheBlockState *>(
        std::calloc(block_count > 0 ? block_count : 1,
                    sizeof(CacheBlockState)));
    panicIfNot(arena != nullptr,
               "InfiniteCache: cannot allocate an arena of ",
               block_count, " blocks");
    states.reset(arena);
    size = block_count;
}

void
InfiniteCache::reserveBlocks(std::uint64_t block_count, const BlockNum *)
{
    panicIfNot(resident == 0,
               "InfiniteCache::reserveBlocks on a non-empty cache");
    allocArena(block_count);
}

} // namespace dirsim
