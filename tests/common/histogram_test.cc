/** @file Unit tests for common/histogram.hh. */

#include <gtest/gtest.h>

#include "common/histogram.hh"
#include "common/logging.hh"

namespace dirsim
{
namespace
{

TEST(HistogramTest, EmptyHistogram)
{
    Histogram h;
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.count(0), 0u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(5), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.maxValue(), 0u);
}

TEST(HistogramTest, SingleSample)
{
    Histogram h;
    h.add(3);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_DOUBLE_EQ(h.fraction(3), 1.0);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    EXPECT_EQ(h.maxValue(), 3u);
}

TEST(HistogramTest, WeightedAdd)
{
    Histogram h;
    h.add(1, 10);
    h.add(2, 30);
    EXPECT_EQ(h.samples(), 40u);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.75);
    EXPECT_DOUBLE_EQ(h.mean(), 1.75);
}

TEST(HistogramTest, ZeroCountAddIsNoop)
{
    Histogram h;
    h.add(5, 0);
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_TRUE(h.buckets().empty());
}

TEST(HistogramTest, FractionAtMostCumulates)
{
    Histogram h;
    h.add(0, 2);
    h.add(1, 3);
    h.add(4, 5);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(0), 0.2);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(1), 0.5);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(3), 0.5);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(4), 1.0);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(100), 1.0);
}

TEST(HistogramTest, MergeCombines)
{
    Histogram a;
    a.add(0, 1);
    a.add(2, 2);
    Histogram b;
    b.add(2, 3);
    b.add(5, 1);
    a.merge(b);
    EXPECT_EQ(a.samples(), 7u);
    EXPECT_EQ(a.count(2), 5u);
    EXPECT_EQ(a.count(5), 1u);
    EXPECT_EQ(a.maxValue(), 5u);
}

TEST(HistogramTest, MergeIntoEmpty)
{
    Histogram a;
    Histogram b;
    b.add(3, 4);
    a.merge(b);
    EXPECT_EQ(a.samples(), 4u);
    EXPECT_EQ(a.count(3), 4u);
}

TEST(HistogramTest, SubtractRemovesSnapshot)
{
    Histogram h;
    h.add(0, 5);
    h.add(2, 3);
    Histogram snapshot;
    snapshot.add(0, 2);
    snapshot.add(2, 1);
    h.subtract(snapshot);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.count(0), 3u);
    EXPECT_EQ(h.count(2), 2u);
}

TEST(HistogramTest, SubtractUnderflowPanics)
{
    Histogram h;
    h.add(1, 1);
    Histogram snapshot;
    snapshot.add(1, 2);
    EXPECT_THROW(h.subtract(snapshot), LogicError);

    Histogram h2;
    h2.add(0, 5);
    Histogram wrong_bucket;
    wrong_bucket.add(3, 1);
    EXPECT_THROW(h2.subtract(wrong_bucket), LogicError);
}

TEST(HistogramTest, SubtractEmptyIsNoop)
{
    Histogram h;
    h.add(4, 2);
    h.subtract(Histogram{});
    EXPECT_EQ(h.samples(), 2u);
}

TEST(HistogramTest, WeightedSum)
{
    Histogram h;
    h.add(2, 3);
    h.add(10, 1);
    EXPECT_EQ(h.weightedSum(), 16u);
}

TEST(HistogramTest, ClearResets)
{
    Histogram h;
    h.add(7, 7);
    h.clear();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.count(7), 0u);
}

TEST(HistogramTest, MaxValueSkipsEmptyBuckets)
{
    Histogram h;
    h.add(9);
    h.add(4);
    EXPECT_EQ(h.maxValue(), 9u);
    // Removing the top by rebuild: maxValue reflects live data only.
    Histogram h2;
    h2.add(4);
    EXPECT_EQ(h2.maxValue(), 4u);
}

} // namespace
} // namespace dirsim
