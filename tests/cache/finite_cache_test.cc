/** @file Unit tests for cache/finite_cache.hh. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/finite_cache.hh"
#include "common/logging.hh"

namespace dirsim
{
namespace
{

FiniteCacheConfig
smallConfig()
{
    FiniteCacheConfig config;
    config.capacityBytes = 256; // 16 blocks
    config.ways = 2;            // 8 sets
    config.blockBytes = 16;
    return config;
}

TEST(FiniteCacheConfigTest, GeometryDerivation)
{
    const FiniteCacheConfig config = smallConfig();
    EXPECT_EQ(config.numSets(), 8u);
    EXPECT_NO_THROW(config.check());
}

TEST(FiniteCacheConfigTest, RejectsBadGeometry)
{
    FiniteCacheConfig config = smallConfig();
    config.capacityBytes = 100; // not a power of two
    EXPECT_THROW(config.check(), UsageError);

    config = smallConfig();
    config.ways = 0;
    EXPECT_THROW(config.check(), UsageError);

    config = smallConfig();
    config.ways = 3; // 16 lines not divisible by 3
    EXPECT_THROW(config.check(), UsageError);

    config = smallConfig();
    config.blockBytes = 24;
    EXPECT_THROW(config.check(), UsageError);
}

TEST(FiniteCacheTest, BasicInstallAndLookup)
{
    FiniteCache cache(smallConfig());
    EXPECT_TRUE(cache.set(3, 1));
    EXPECT_EQ(cache.lookup(3), 1);
    EXPECT_EQ(cache.residentBlocks(), 1u);
}

TEST(FiniteCacheTest, UpdateDoesNotGrow)
{
    FiniteCache cache(smallConfig());
    cache.set(3, 1);
    EXPECT_FALSE(cache.set(3, 2));
    EXPECT_EQ(cache.residentBlocks(), 1u);
    EXPECT_EQ(cache.lookup(3), 2);
}

TEST(FiniteCacheTest, EvictsLruWithinSet)
{
    FiniteCache cache(smallConfig());
    // Blocks 0, 8, 16 all map to set 0 (8 sets); ways = 2.
    cache.set(0, 1);
    cache.set(8, 1);
    EXPECT_EQ(cache.access(0), 1); // 8 is now LRU
    cache.set(16, 1);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(8));
    EXPECT_TRUE(cache.contains(16));
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(FiniteCacheTest, SetReturnsVictim)
{
    FiniteCache cache(smallConfig());
    std::vector<std::pair<BlockNum, CacheBlockState>> evicted;
    const auto set = [&](BlockNum block, CacheBlockState state) {
        CacheModel::Line victim;
        cache.set(block, state, &victim);
        if (victim.state != stateNotPresent)
            evicted.emplace_back(victim.block, victim.state);
    };
    set(0, 1);
    set(8, 2);
    set(16, 1); // evicts 0 (LRU)
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].first, 0u);
    EXPECT_EQ(evicted[0].second, 1);
}

TEST(FiniteCacheTest, AccessPromotesOnlyResidentBlocks)
{
    FiniteCache cache(smallConfig());
    EXPECT_EQ(cache.access(0), stateNotPresent);
    EXPECT_EQ(cache.residentBlocks(), 0u); // access never installs
    cache.set(0, 3);
    cache.set(8, 1);
    EXPECT_EQ(cache.lookup(0), 3); // lookup does not promote...
    cache.set(16, 1);
    EXPECT_FALSE(cache.contains(0)); // ...so 0 was still LRU
    EXPECT_EQ(cache.access(8), 1);   // 16 is now LRU
    cache.set(24, 1);
    EXPECT_TRUE(cache.contains(8));
    EXPECT_FALSE(cache.contains(16));
}

TEST(FiniteCacheTest, UpdateChangesResidentBlocksOnly)
{
    FiniteCache cache(smallConfig());
    EXPECT_FALSE(cache.update(0, 2)); // never installs
    EXPECT_EQ(cache.residentBlocks(), 0u);
    cache.set(0, 1);
    cache.set(8, 1);
    EXPECT_TRUE(cache.update(0, 2)); // and promotes 0
    EXPECT_EQ(cache.lookup(0), 2);
    cache.set(16, 1);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(8));
    EXPECT_THROW(cache.update(0, stateNotPresent), LogicError);
}

TEST(FiniteCacheTest, SetPromotesToMru)
{
    FiniteCache cache(smallConfig());
    cache.set(0, 1);
    cache.set(8, 1);
    cache.set(0, 2); // rewrite promotes block 0
    cache.set(16, 1);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(8));
}

TEST(FiniteCacheTest, DifferentSetsDoNotInterfere)
{
    FiniteCache cache(smallConfig());
    cache.set(0, 1);
    cache.set(1, 1);
    cache.set(2, 1);
    cache.set(3, 1);
    EXPECT_EQ(cache.residentBlocks(), 4u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(FiniteCacheTest, InvalidateFreesWay)
{
    FiniteCache cache(smallConfig());
    cache.set(0, 1);
    cache.set(8, 1);
    EXPECT_EQ(cache.invalidate(0), 1);
    cache.set(16, 1);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_TRUE(cache.contains(8));
    EXPECT_TRUE(cache.contains(16));
}

TEST(FiniteCacheTest, InvalidateMissingReturnsNotPresent)
{
    FiniteCache cache(smallConfig());
    EXPECT_EQ(cache.invalidate(77), stateNotPresent);
}

TEST(FiniteCacheTest, CapacityBound)
{
    FiniteCache cache(smallConfig());
    for (BlockNum block = 0; block < 1000; ++block)
        cache.set(block, 1);
    EXPECT_LE(cache.residentBlocks(), 16u);
}

TEST(FiniteCacheTest, ClearEmptiesAllSets)
{
    FiniteCache cache(smallConfig());
    for (BlockNum block = 0; block < 20; ++block)
        cache.set(block, 1);
    cache.clear();
    EXPECT_EQ(cache.residentBlocks(), 0u);
    for (BlockNum block = 0; block < 20; ++block)
        EXPECT_FALSE(cache.contains(block));
}

TEST(FiniteCacheTest, ForEachVisitsResidentOnly)
{
    FiniteCache cache(smallConfig());
    cache.set(0, 1);
    cache.set(8, 1);
    cache.set(16, 1); // evicts 0
    unsigned count = 0;
    cache.forEach([&](BlockNum, CacheBlockState) { ++count; });
    EXPECT_EQ(count, 2u);
}

TEST(FiniteCacheTest, ReservedStateRejected)
{
    FiniteCache cache(smallConfig());
    EXPECT_THROW(cache.set(1, stateNotPresent), LogicError);
}

TEST(FiniteCacheTest, LruStressAgainstModel)
{
    // Property check against a tiny reference model of one set.
    FiniteCacheConfig config;
    config.capacityBytes = 64; // 4 blocks
    config.ways = 4;           // 1 set
    config.blockBytes = 16;
    FiniteCache cache(config);

    std::vector<BlockNum> lru; // front = LRU
    std::uint64_t x = 12345;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const BlockNum block = (x >> 33) % 9;
        const auto it = std::find(lru.begin(), lru.end(), block);
        if (it != lru.end())
            lru.erase(it);
        else if (lru.size() == 4)
            lru.erase(lru.begin());
        lru.push_back(block);
        cache.set(block, 1);

        ASSERT_EQ(cache.residentBlocks(), lru.size());
        for (const BlockNum resident : lru)
            ASSERT_TRUE(cache.contains(resident));
    }
}

/**
 * Reference LRU: one MRU-first list of (block, state) per set, the
 * set chosen by the block's label. Mirrors CacheModel's semantics
 * op by op, with none of FiniteCache's layout.
 */
class ReferenceLru
{
  public:
    using Line = CacheModel::Line;

    ReferenceLru(unsigned ways_arg, std::size_t sets_arg,
                 const std::vector<BlockNum> &labels_arg)
        : ways(ways_arg), sets(sets_arg), labels(labels_arg)
    {}

    CacheBlockState access(BlockNum block)
    {
        auto &set = setOf(block);
        const auto it = find(set, block);
        if (it == set.end())
            return stateNotPresent;
        const Line line = *it;
        set.erase(it);
        set.insert(set.begin(), line);
        return line.state;
    }

    bool set(BlockNum block, CacheBlockState state, Line *victim)
    {
        auto &set = setOf(block);
        const auto it = find(set, block);
        const bool installed = it == set.end();
        if (!installed)
            set.erase(it);
        else if (set.size() == ways) {
            *victim = set.back();
            set.pop_back();
        }
        set.insert(set.begin(), Line{block, state});
        return installed;
    }

    bool update(BlockNum block, CacheBlockState state)
    {
        if (access(block) == stateNotPresent)
            return false;
        setOf(block).front().state = state;
        return true;
    }

    CacheBlockState invalidate(BlockNum block)
    {
        auto &set = setOf(block);
        const auto it = find(set, block);
        if (it == set.end())
            return stateNotPresent;
        const CacheBlockState old = it->state;
        set.erase(it);
        return old;
    }

    /** Every resident (block, state), sorted. */
    std::vector<std::pair<BlockNum, CacheBlockState>> contents() const
    {
        std::vector<std::pair<BlockNum, CacheBlockState>> out;
        for (const auto &set : sets)
            for (const Line &line : set)
                out.emplace_back(line.block, line.state);
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    using Set = std::vector<Line>;

    Set &setOf(BlockNum block)
    {
        return sets[labels[block] % sets.size()];
    }

    static Set::iterator find(Set &set, BlockNum block)
    {
        return std::find_if(set.begin(), set.end(), [&](const Line &l) {
            return l.block == block;
        });
    }

    unsigned ways;
    std::vector<Set> sets;
    const std::vector<BlockNum> &labels;
};

TEST(FiniteCacheTest, MultiSetLruMatchesReferenceModel)
{
    // Seeded random access / set / update / invalidate over dense
    // keys whose labels scatter them across the sets; every return
    // value and every victim (block, state), in order, must match.
    constexpr unsigned blockBytes = 16;
    constexpr std::size_t numSets = 8;
    constexpr BlockNum numKeys = 40;
    std::vector<BlockNum> labels(numKeys);
    for (BlockNum key = 0; key < numKeys; ++key)
        labels[key] = (key * 37 + 11) % 97 + 1000;

    for (const unsigned ways : {1u, 2u, 4u}) {
        FiniteCacheConfig config;
        config.ways = ways;
        config.blockBytes = blockBytes;
        config.capacityBytes = numSets * ways * blockBytes;
        FiniteCache cache(config);
        cache.reserveBlocks(numKeys, labels.data());
        ReferenceLru model(ways, numSets, labels);

        std::vector<CacheModel::Line> victims, model_victims;
        std::uint64_t x = 2024 + ways;
        for (int i = 0; i < 20'000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const BlockNum key = (x >> 33) % numKeys;
            const auto state =
                static_cast<CacheBlockState>((x >> 20) % 3 + 1);
            switch ((x >> 40) % 8) {
              case 0:
              case 1:
              case 2:
                ASSERT_EQ(cache.access(key), model.access(key)) << i;
                break;
              case 3:
              case 4:
              case 5: {
                CacheModel::Line victim, model_victim;
                ASSERT_EQ(cache.set(key, state, &victim),
                          model.set(key, state, &model_victim))
                    << i;
                if (victim.state != stateNotPresent)
                    victims.push_back(victim);
                if (model_victim.state != stateNotPresent)
                    model_victims.push_back(model_victim);
                break;
              }
              case 6:
                ASSERT_EQ(cache.update(key, state),
                          model.update(key, state))
                    << i;
                break;
              default:
                ASSERT_EQ(cache.invalidate(key), model.invalidate(key))
                    << i;
            }
            ASSERT_EQ(victims.size(), model_victims.size()) << i;
            if (!victims.empty()) {
                ASSERT_EQ(victims.back().block, model_victims.back().block)
                    << i;
                ASSERT_EQ(victims.back().state, model_victims.back().state)
                    << i;
            }
        }

        std::vector<std::pair<BlockNum, CacheBlockState>> contents;
        cache.forEach([&](BlockNum block, CacheBlockState state) {
            contents.emplace_back(block, state);
        });
        std::sort(contents.begin(), contents.end());
        EXPECT_EQ(contents, model.contents()) << "ways " << ways;
        EXPECT_EQ(cache.residentBlocks(), contents.size());
        EXPECT_EQ(cache.evictions(), victims.size());
        EXPECT_GT(victims.size(), 100u) << "ways " << ways;
    }
}

} // namespace
} // namespace dirsim
