/** @file Unit tests for directory/two_bit.hh (Archibald & Baer). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "directory/two_bit.hh"
#include "test_util.hh"

namespace dirsim
{
namespace
{

TEST(TwoBitTest, DefaultsToNotCached)
{
    test::Reserved<TwoBitDirectory> dir;
    EXPECT_EQ(dir.state(1000), TwoBitState::NotCached);
}

TEST(TwoBitTest, CleanCopyProgression)
{
    test::Reserved<TwoBitDirectory> dir;
    dir.addCleanCopy(1);
    EXPECT_EQ(dir.state(1), TwoBitState::CleanOne);
    dir.addCleanCopy(1);
    EXPECT_EQ(dir.state(1), TwoBitState::CleanMany);
    dir.addCleanCopy(1);
    EXPECT_EQ(dir.state(1), TwoBitState::CleanMany);
}

TEST(TwoBitTest, AddCleanCopyOnDirtyPanics)
{
    test::Reserved<TwoBitDirectory> dir;
    dir.makeDirty(1);
    EXPECT_THROW(dir.addCleanCopy(1), LogicError);
}

TEST(TwoBitTest, MakeDirtyFromAnyCleanState)
{
    test::Reserved<TwoBitDirectory> dir;
    dir.makeDirty(1);
    EXPECT_EQ(dir.state(1), TwoBitState::DirtyOne);

    dir.addCleanCopy(2);
    dir.makeDirty(2);
    EXPECT_EQ(dir.state(2), TwoBitState::DirtyOne);

    dir.addCleanCopy(3);
    dir.addCleanCopy(3);
    dir.makeDirty(3);
    EXPECT_EQ(dir.state(3), TwoBitState::DirtyOne);
}

TEST(TwoBitTest, MakeUncachedResets)
{
    test::Reserved<TwoBitDirectory> dir;
    dir.makeDirty(1);
    dir.makeUncached(1);
    EXPECT_EQ(dir.state(1), TwoBitState::NotCached);
}

TEST(TwoBitTest, SetStateDirect)
{
    test::Reserved<TwoBitDirectory> dir;
    dir.setState(1, TwoBitState::CleanMany);
    EXPECT_EQ(dir.state(1), TwoBitState::CleanMany);
    dir.setState(1, TwoBitState::NotCached);
    EXPECT_EQ(dir.state(1), TwoBitState::NotCached);
}

TEST(TwoBitTest, BlocksIndependent)
{
    test::Reserved<TwoBitDirectory> dir;
    dir.makeDirty(1);
    dir.addCleanCopy(2);
    EXPECT_EQ(dir.state(1), TwoBitState::DirtyOne);
    EXPECT_EQ(dir.state(2), TwoBitState::CleanOne);
    EXPECT_EQ(dir.state(3), TwoBitState::NotCached);
}

TEST(TwoBitTest, StateNames)
{
    EXPECT_STREQ(toString(TwoBitState::NotCached), "not-cached");
    EXPECT_STREQ(toString(TwoBitState::CleanOne), "clean-one");
    EXPECT_STREQ(toString(TwoBitState::CleanMany), "clean-many");
    EXPECT_STREQ(toString(TwoBitState::DirtyOne), "dirty-one");
}

} // namespace
} // namespace dirsim
