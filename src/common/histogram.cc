#include "common/histogram.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dirsim
{

void
Histogram::add(std::uint64_t value, std::uint64_t count_arg)
{
    if (count_arg == 0)
        return;
    if (value >= counts.size())
        counts.resize(value + 1, 0);
    counts[value] += count_arg;
    total += count_arg;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.counts.size() > counts.size())
        counts.resize(other.counts.size(), 0);
    for (std::size_t i = 0; i < other.counts.size(); ++i)
        counts[i] += other.counts[i];
    total += other.total;
}

void
Histogram::subtract(const Histogram &other)
{
    panicIfNot(other.total <= total,
               "Histogram::subtract removes more samples than present");
    for (std::size_t i = 0; i < other.counts.size(); ++i) {
        const std::uint64_t removed = other.counts[i];
        if (removed == 0)
            continue;
        panicIfNot(i < counts.size() && counts[i] >= removed,
                   "Histogram::subtract underflow in bucket ", i);
        counts[i] -= removed;
    }
    total -= other.total;
}

std::uint64_t
Histogram::count(std::uint64_t value) const
{
    return value < counts.size() ? counts[value] : 0;
}

double
Histogram::fraction(std::uint64_t value) const
{
    if (total == 0)
        return 0.0;
    return static_cast<double>(count(value)) / static_cast<double>(total);
}

double
Histogram::fractionAtMost(std::uint64_t value) const
{
    if (total == 0)
        return 0.0;
    std::uint64_t below = 0;
    const std::uint64_t limit =
        std::min<std::uint64_t>(value + 1, counts.size());
    for (std::uint64_t i = 0; i < limit; ++i)
        below += counts[i];
    return static_cast<double>(below) / static_cast<double>(total);
}

double
Histogram::mean() const
{
    if (total == 0)
        return 0.0;
    return static_cast<double>(weightedSum()) / static_cast<double>(total);
}

std::uint64_t
Histogram::maxValue() const
{
    for (std::size_t i = counts.size(); i-- > 0;) {
        if (counts[i] != 0)
            return i;
    }
    return 0;
}

std::uint64_t
Histogram::weightedSum() const
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < counts.size(); ++i)
        sum += counts[i] * i;
    return sum;
}

void
Histogram::clear()
{
    counts.clear();
    total = 0;
}

bool
Histogram::operator==(const Histogram &other) const
{
    if (total != other.total)
        return false;
    const std::size_t common =
        std::min(counts.size(), other.counts.size());
    for (std::size_t i = 0; i < common; ++i) {
        if (counts[i] != other.counts[i])
            return false;
    }
    const auto &longer =
        counts.size() > other.counts.size() ? counts : other.counts;
    for (std::size_t i = common; i < longer.size(); ++i) {
        if (longer[i] != 0)
            return false;
    }
    return true;
}

} // namespace dirsim
