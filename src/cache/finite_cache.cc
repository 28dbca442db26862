#include "cache/finite_cache.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace dirsim
{

std::uint64_t
FiniteCacheConfig::numSets() const
{
    return capacityBytes / blockBytes / ways;
}

void
FiniteCacheConfig::check() const
{
    checkBlockSize(blockBytes);
    fatalIf(capacityBytes == 0 || !isPowerOfTwo(capacityBytes),
            "finite cache capacity must be a non-zero power of two");
    fatalIf(ways == 0, "finite cache must have at least one way");
    const std::uint64_t lines = capacityBytes / blockBytes;
    fatalIf(lines == 0 || lines % ways != 0,
            "capacity ", capacityBytes, "B / block ", blockBytes,
            "B is not divisible into ", ways, " ways");
    fatalIf(!isPowerOfTwo(numSets()),
            "finite cache set count must be a power of two");
}

FiniteCache::FiniteCache(const FiniteCacheConfig &config_arg)
    : cfg(config_arg)
{
    cfg.check();
    lines.resize(cfg.numSets() * cfg.ways);
    setMask = cfg.numSets() - 1;
}

std::size_t
FiniteCache::setBase(BlockNum block) const
{
    const BlockNum real = labels != nullptr ? labels[block] : block;
    return (real & setMask) * cfg.ways;
}

unsigned
FiniteCache::find(const Line *set, BlockNum block) const
{
    // Lines are packed: the first empty way ends the resident ones.
    for (unsigned way = 0; way < cfg.ways; ++way) {
        if (set[way].state == stateNotPresent)
            break;
        if (set[way].block == block)
            return way;
    }
    return cfg.ways;
}

void
FiniteCache::promote(Line *set, unsigned way)
{
    const Line line = set[way];
    std::copy_backward(set, set + way, set + way + 1);
    set[0] = line;
}

void
FiniteCache::reserveBlocks(std::uint64_t, const BlockNum *block_labels)
{
    panicIfNot(resident == 0,
               "FiniteCache::reserveBlocks on a non-empty cache");
    labels = block_labels;
}

CacheBlockState
FiniteCache::lookup(BlockNum block) const
{
    const Line *set = lines.data() + setBase(block);
    const unsigned way = find(set, block);
    return way != cfg.ways ? set[way].state : stateNotPresent;
}

CacheBlockState
FiniteCache::access(BlockNum block)
{
    Line *set = lines.data() + setBase(block);
    const unsigned way = find(set, block);
    if (way == cfg.ways)
        return stateNotPresent;
    const CacheBlockState state = set[way].state;
    promote(set, way);
    return state;
}

bool
FiniteCache::set(BlockNum block, CacheBlockState state, Line *victim)
{
    panicIfNot(state != stateNotPresent,
               "FiniteCache::set with the reserved not-present state");
    Line *set = lines.data() + setBase(block);
    const unsigned way = find(set, block);
    if (way != cfg.ways) {
        set[way].state = state;
        promote(set, way);
        return false;
    }
    // Shift every way down one: the last way falls off, and it is
    // the LRU victim when the set is full.
    const unsigned last = cfg.ways - 1;
    if (set[last].state != stateNotPresent) {
        if (victim != nullptr)
            *victim = set[last];
        --resident;
        ++evicted;
    }
    std::copy_backward(set, set + last, set + last + 1);
    set[0] = Line{block, state};
    ++resident;
    return true;
}

bool
FiniteCache::update(BlockNum block, CacheBlockState state)
{
    panicIfNot(state != stateNotPresent,
               "FiniteCache::update with the reserved not-present state");
    Line *set = lines.data() + setBase(block);
    const unsigned way = find(set, block);
    if (way == cfg.ways)
        return false;
    set[way].state = state;
    promote(set, way);
    return true;
}

CacheBlockState
FiniteCache::invalidate(BlockNum block)
{
    Line *set = lines.data() + setBase(block);
    const unsigned way = find(set, block);
    if (way == cfg.ways)
        return stateNotPresent;
    const CacheBlockState old = set[way].state;
    std::copy(set + way + 1, set + cfg.ways, set + way);
    set[cfg.ways - 1] = Line{};
    --resident;
    return old;
}

void
FiniteCache::clear()
{
    std::fill(lines.begin(), lines.end(), Line{});
    resident = 0;
}

void
FiniteCache::forEach(
    const std::function<void(BlockNum, CacheBlockState)> &fn) const
{
    for (const Line &line : lines) {
        if (line.state != stateNotPresent)
            fn(line.block, line.state);
    }
}

} // namespace dirsim
