/** @file Unit tests for directory/full_map.hh. */

#include <set>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "directory/full_map.hh"
#include "protocols/dir_n_nb.hh"
#include "test_util.hh"

namespace dirsim
{
namespace
{

TEST(FullMapTest, EntryCreatedCleanAndEmpty)
{
    FullMapDirectory dir(4);
    dir.reserveBlocks(128);
    EXPECT_FALSE(dir.dirty(100));
    EXPECT_EQ(dir.sharerCount(100), 0u);
    EXPECT_TRUE(dir.sharerSnapshot(100).empty());
}

TEST(FullMapTest, FindWithoutCreate)
{
    // Lookups of untouched blocks report them empty and change
    // nothing: the arena covers every reserved block from the start.
    FullMapDirectory dir(4);
    dir.reserveBlocks(8);
    EXPECT_FALSE(dir.isSharer(5, 1));
    EXPECT_EQ(dir.sharerCount(5), 0u);
    dir.addSharer(5, 1);
    EXPECT_TRUE(dir.isSharer(5, 1));
    EXPECT_EQ(dir.sharerCount(4), 0u);
}

TEST(FullMapTest, EntryPersists)
{
    FullMapDirectory dir(4);
    dir.reserveBlocks(8);
    dir.addSharer(7, 2);
    dir.setDirty(7, true);
    EXPECT_TRUE(dir.dirty(7));
    EXPECT_TRUE(dir.isSharer(7, 2));
    EXPECT_FALSE(dir.dirty(6));
}

TEST(FullMapTest, ValidityInvariant)
{
    // The invariant Censier & Feautrier state — a dirty block exists
    // in at most one cache — holds for the directory DirNNB keeps.
    test::Reserved<DirNNB> protocol(4);
    Rng rng(21);
    std::set<BlockNum> seen;
    for (int step = 0; step < 2000; ++step) {
        const auto cache = static_cast<CacheId>(rng.below(4));
        const auto block = static_cast<BlockNum>(rng.below(8));
        const bool first = seen.insert(block).second;
        if (rng.chance(0.4))
            protocol.write(cache, block, first);
        else
            protocol.read(cache, block, first);
        const FullMapDirectory &dir = protocol.directory();
        ASSERT_TRUE(!dir.dirty(block) || dir.sharerCount(block) <= 1)
            << "step " << step;
    }
}

TEST(FullMapTest, DenseArenaMirrorsSparseSemantics)
{
    FullMapDirectory dir(4);
    dir.reserveBlocks(8);

    dir.addSharer(3, 1);
    EXPECT_TRUE(dir.isSharer(3, 1));
    EXPECT_EQ(dir.sharerCount(3), 1u);
    EXPECT_FALSE(dir.dirty(3));
    dir.setDirty(3, true);
    EXPECT_TRUE(dir.dirty(3));

    CacheIdList sharers;
    dir.appendSharers(3, sharers);
    ASSERT_EQ(sharers.size(), 1u);
    EXPECT_EQ(sharers.front(), 1u);
    EXPECT_EQ(dir.sharerSnapshot(3).toVector(),
              (std::vector<CacheId>{1}));

    dir.removeSharer(3, 1);
    EXPECT_FALSE(dir.isSharer(3, 1));
    EXPECT_EQ(dir.sharerCount(3), 0u);
    EXPECT_TRUE(dir.dirty(3));

    EXPECT_THROW(dir.addSharer(8, 0), LogicError); // outside the arena
    EXPECT_THROW(dir.setDirty(8, true), LogicError);
}

TEST(FullMapTest, BlockKeyedAccessorsWorkSparse)
{
    // One block touched in a large arena: only it reports state.
    FullMapDirectory dir(4);
    dir.reserveBlocks(1024);
    dir.addSharer(9, 2);
    dir.addSharer(9, 0);
    dir.setDirty(9, true);
    EXPECT_EQ(dir.sharerCount(9), 2u);
    EXPECT_TRUE(dir.dirty(9));
    EXPECT_EQ(dir.sharerCount(10), 0u);
    EXPECT_FALSE(dir.dirty(10));

    CacheIdList sharers;
    dir.appendSharers(9, sharers);
    EXPECT_EQ(std::vector<CacheId>(sharers.begin(), sharers.end()),
              (std::vector<CacheId>{0, 2})); // ascending

    dir.removeSharer(9, 0);
    EXPECT_EQ(dir.sharerSnapshot(9).toVector(),
              (std::vector<CacheId>{2}));
}

TEST(FullMapTest, DenseReservationRejectsTouchedDirectory)
{
    // An unreserved directory covers no block, so touching it panics.
    FullMapDirectory dir(4);
    EXPECT_THROW(dir.addSharer(1, 0), LogicError);
    EXPECT_THROW(dir.setDirty(1, true), LogicError);
}

TEST(FullMapTest, RejectsZeroCaches)
{
    EXPECT_THROW(FullMapDirectory(0), UsageError);
}

TEST(FullMapTest, NumCaches)
{
    FullMapDirectory dir(16);
    dir.reserveBlocks(1);
    EXPECT_EQ(dir.numCaches(), 16u);
    EXPECT_EQ(dir.sharerSnapshot(0).numCaches(), 16u);
}

} // namespace
} // namespace dirsim
