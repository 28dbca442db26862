/**
 * @file
 * Unit tests for the tracer's fixed-range distributions: a Histogram
 * whose values past the range sit in one overflow bucket, exported
 * through MetricRegistry::importHistogram with that bucket named
 * "overflow".
 */

#include <gtest/gtest.h>

#include "common/histogram.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace dirsim
{
namespace
{

TEST(FixedHistogramTest, StartsEmpty)
{
    const EventTracer tracer(TracerConfig{});
    for (const Histogram *histogram :
         {&tracer.invalidations(), &tracer.sharerSetSizes(),
          &tracer.writeRunLengths()}) {
        EXPECT_EQ(histogram->samples(), 0u);
        EXPECT_EQ(histogram->maxValue(), 0u);
        EXPECT_EQ(histogram->count(traceDistBuckets), 0u);
        EXPECT_DOUBLE_EQ(histogram->fraction(0), 0.0);
    }

    MetricRegistry metrics;
    tracer.exportMetrics(metrics);
    const std::string prefix = "trace.dist.inval_on_clean_write.";
    EXPECT_EQ(metrics.counter(prefix + "samples"), 0u);
    EXPECT_FALSE(metrics.has(prefix + "0"));
    EXPECT_FALSE(metrics.has(prefix + "overflow"));
}

TEST(FixedHistogramTest, CountsAndFractions)
{
    Histogram histogram;
    histogram.add(0);
    histogram.add(1, 2);
    histogram.add(3);
    EXPECT_EQ(histogram.samples(), 4u);
    EXPECT_EQ(histogram.count(0), 1u);
    EXPECT_EQ(histogram.count(1), 2u);
    EXPECT_EQ(histogram.count(2), 0u);
    EXPECT_EQ(histogram.count(3), 1u);
    EXPECT_EQ(histogram.maxValue(), 3u);
    EXPECT_DOUBLE_EQ(histogram.fraction(1), 0.5);
    EXPECT_EQ(histogram.count(99), 0u); // out of range, not a throw

    // With a four-value range, bucket 3 is still a regular bucket.
    MetricRegistry metrics;
    metrics.importHistogram("h", histogram, 4);
    EXPECT_EQ(metrics.counter("h.samples"), 4u);
    EXPECT_EQ(metrics.counter("h.1"), 2u);
    EXPECT_EQ(metrics.counter("h.3"), 1u);
    EXPECT_FALSE(metrics.has("h.overflow"));
}

TEST(FixedHistogramTest, MergeAccumulates)
{
    // Four-value range: 4 is the overflow bucket.
    Histogram a;
    a.add(1);
    a.add(4);
    Histogram b;
    b.add(1, 2);
    b.add(2);
    a.merge(b);
    EXPECT_EQ(a.count(1), 3u);
    EXPECT_EQ(a.count(2), 1u);
    EXPECT_EQ(a.count(4), 1u);
    EXPECT_EQ(a.samples(), 5u);

    MetricRegistry metrics;
    metrics.importHistogram("h", a, 4);
    EXPECT_EQ(metrics.counter("h.samples"), 5u);
    EXPECT_EQ(metrics.counter("h.1"), 3u);
    EXPECT_EQ(metrics.counter("h.overflow"), 1u);
    EXPECT_FALSE(metrics.has("h.4"));
}

} // namespace
} // namespace dirsim
