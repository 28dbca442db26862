/** @file Unit tests for cache/infinite_cache.hh. */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "cache/infinite_cache.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "test_util.hh"

namespace dirsim
{
namespace
{

TEST(InfiniteCacheTest, StartsEmpty)
{
    InfiniteCache cache;
    EXPECT_EQ(cache.residentBlocks(), 0u);
    EXPECT_EQ(cache.lookup(42), stateNotPresent);
    EXPECT_FALSE(cache.contains(42));
}

TEST(InfiniteCacheTest, SetInstallsAndReports)
{
    test::Reserved<InfiniteCache> cache;
    EXPECT_TRUE(cache.set(10, 1));
    EXPECT_EQ(cache.lookup(10), 1);
    EXPECT_TRUE(cache.contains(10));
    EXPECT_EQ(cache.residentBlocks(), 1u);
}

TEST(InfiniteCacheTest, SetUpdatesInPlace)
{
    test::Reserved<InfiniteCache> cache;
    EXPECT_TRUE(cache.set(10, 1));
    EXPECT_FALSE(cache.set(10, 2)); // not newly installed
    EXPECT_EQ(cache.lookup(10), 2);
    EXPECT_EQ(cache.residentBlocks(), 1u);
}

TEST(InfiniteCacheTest, ReservedStateRejected)
{
    test::Reserved<InfiniteCache> cache;
    EXPECT_THROW(cache.set(10, stateNotPresent), LogicError);
}

TEST(InfiniteCacheTest, InvalidateReturnsOldState)
{
    test::Reserved<InfiniteCache> cache;
    cache.set(10, 3);
    EXPECT_EQ(cache.invalidate(10), 3);
    EXPECT_FALSE(cache.contains(10));
    EXPECT_EQ(cache.invalidate(10), stateNotPresent);
}

TEST(InfiniteCacheTest, NeverEvicts)
{
    InfiniteCache cache;
    cache.reserveBlocks(100'000);
    for (BlockNum block = 0; block < 100'000; ++block)
        cache.set(block, 1);
    EXPECT_EQ(cache.residentBlocks(), 100'000u);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_TRUE(cache.contains(99'999));
}

TEST(InfiniteCacheTest, ClearRemovesEverything)
{
    test::Reserved<InfiniteCache> cache;
    cache.set(1, 1);
    cache.set(2, 2);
    cache.clear();
    EXPECT_EQ(cache.residentBlocks(), 0u);
    EXPECT_FALSE(cache.contains(1));
}

TEST(InfiniteCacheTest, ForEachVisitsAll)
{
    test::Reserved<InfiniteCache> cache;
    cache.set(5, 1);
    cache.set(6, 2);
    cache.set(7, 1);
    std::set<BlockNum> seen;
    unsigned dirty = 0;
    cache.forEach([&](BlockNum block, CacheBlockState state) {
        seen.insert(block);
        dirty += state == 2 ? 1 : 0;
    });
    EXPECT_EQ(seen, (std::set<BlockNum>{5, 6, 7}));
    EXPECT_EQ(dirty, 1u);
}

TEST(InfiniteCacheTest, DenseBackendMirrorsSparseSemantics)
{
    // The arena must behave exactly like a block -> state map (the
    // sparse semantics) under a random install/update/invalidate
    // stream.
    test::Reserved<InfiniteCache> cache;
    std::map<BlockNum, CacheBlockState> model;
    Rng rng(5);
    for (int step = 0; step < 5000; ++step) {
        const auto block = static_cast<BlockNum>(rng.below(64));
        if (rng.chance(0.3)) {
            const auto it = model.find(block);
            const CacheBlockState old =
                it == model.end() ? stateNotPresent : it->second;
            ASSERT_EQ(cache.invalidate(block), old) << "step " << step;
            model.erase(block);
        } else {
            const auto state = static_cast<CacheBlockState>(
                1 + rng.below(3));
            ASSERT_EQ(cache.set(block, state), model.count(block) == 0)
                << "step " << step;
            model[block] = state;
        }
        ASSERT_EQ(cache.residentBlocks(), model.size()) << "step " << step;
    }
    std::map<BlockNum, CacheBlockState> seen;
    cache.forEach([&](BlockNum block, CacheBlockState state) {
        seen[block] = state;
    });
    EXPECT_EQ(seen, model);

    cache.clear();
    EXPECT_EQ(cache.residentBlocks(), 0u);
    EXPECT_TRUE(cache.set(63, 1)); // clear keeps the arena
    EXPECT_THROW(cache.set(test::testBlocks, 1), LogicError);
}

TEST(InfiniteCacheTest, DenseReservationRejectsLiveState)
{
    InfiniteCache cache;
    EXPECT_THROW(cache.set(1, 1), LogicError); // not reserved yet
    cache.reserveBlocks(8);
    cache.set(1, 1);
    EXPECT_THROW(cache.reserveBlocks(8), LogicError);
}

} // namespace
} // namespace dirsim
