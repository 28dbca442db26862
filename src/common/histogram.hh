/**
 * @file
 * Integer-valued histogram used for, e.g., the Figure 1 distribution
 * of "number of other caches holding a previously-clean block when it
 * is written".
 */

#ifndef DIRSIM_COMMON_HISTOGRAM_HH
#define DIRSIM_COMMON_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace dirsim
{

/**
 * A dense histogram over small non-negative integers.
 *
 * Buckets grow on demand; all statistics are exact (the histogram
 * stores raw counts, not approximations).
 */
class Histogram
{
  public:
    Histogram() = default;

    /** Record one sample of @p value. */
    void add(std::uint64_t value, std::uint64_t count = 1);

    /** Merge another histogram into this one. */
    void merge(const Histogram &other);

    /**
     * Remove a previously merged histogram (used to discard warm-up
     * samples); panics if @p other was never part of this one.
     */
    void subtract(const Histogram &other);

    /** Total number of samples recorded. */
    std::uint64_t samples() const { return total; }

    /** Count in bucket @p value (0 if never recorded). */
    std::uint64_t count(std::uint64_t value) const;

    /** Fraction of samples equal to @p value; 0 when empty. */
    double fraction(std::uint64_t value) const;

    /** Fraction of samples less than or equal to @p value. */
    double fractionAtMost(std::uint64_t value) const;

    /** Arithmetic mean of the samples; 0 when empty. */
    double mean() const;

    /** Largest recorded value; 0 when empty. */
    std::uint64_t maxValue() const;

    /** Sum over all samples of their values. */
    std::uint64_t weightedSum() const;

    /** Drop all samples. */
    void clear();

    /** Dense per-bucket counts, index = value. */
    const std::vector<std::uint64_t> &buckets() const { return counts; }

    /**
     * Same samples in every bucket; trailing empty buckets (left
     * behind by subtract()) do not affect equality.
     */
    bool operator==(const Histogram &other) const;

  private:
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
};

} // namespace dirsim

#endif // DIRSIM_COMMON_HISTOGRAM_HH
