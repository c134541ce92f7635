#include "core/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace zerodeg::core {
namespace {

TEST(RunningStats, Basic) {
    RunningStats s;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    // Sample variance of this classic data set: 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, EmptyAndSingle) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, MergeMatchesCombined) {
    RunningStats a, b, all;
    for (int i = 0; i < 100; ++i) {
        const double v = std::sin(i * 0.7) * 10.0 + i * 0.1;
        (i % 2 == 0 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a, empty;
    a.add(1.0);
    a.add(2.0);
    const double mean_before = a.mean();
    a.merge(empty);
    EXPECT_DOUBLE_EQ(a.mean(), mean_before);
    RunningStats c;
    c.merge(a);
    EXPECT_DOUBLE_EQ(c.mean(), mean_before);
}

TEST(Percentile, KnownValues) {
    const std::vector<double> data{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentile(data, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(data, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(data, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(data, 25.0), 2.0);
    EXPECT_DOUBLE_EQ(percentile(data, 12.5), 1.5);  // interpolated
}

TEST(Percentile, UnsortedInput) {
    EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 50.0), 3.0);
}

TEST(Percentile, SingleElement) {
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, Errors) {
    EXPECT_THROW((void)percentile({}, 50.0), InvalidArgument);
    EXPECT_THROW((void)percentile({1.0}, -1.0), InvalidArgument);
    EXPECT_THROW((void)percentile({1.0}, 101.0), InvalidArgument);
}

/// The full-sort percentile: the definition the selection-based
/// implementation must reproduce bit for bit.
double sort_reference_percentile(std::vector<double> data, double p) {
    std::sort(data.begin(), data.end());
    if (data.size() == 1) return data[0];
    const double rank = p / 100.0 * static_cast<double>(data.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= data.size()) return data.back();
    return data[lo] + frac * (data[lo + 1] - data[lo]);
}

/// n values with many duplicates: half drawn from a 7-value grid (negatives
/// included), half continuous.
std::vector<double> data_with_duplicates(RngStream& rng, std::size_t n) {
    std::vector<double> data(n);
    for (double& v : data) {
        v = rng.chance(0.5) ? 0.25 * static_cast<double>(rng.uniform_int(-3, 3))
                            : rng.exponential(0.1);
    }
    return data;
}

/// The named quantiles plus random p values, whose ranks are fractional.
std::vector<double> probe_percentiles(RngStream& rng) {
    std::vector<double> ps{0.0, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0, 12.5, 100.0 / 3.0};
    for (int i = 0; i < 8; ++i) ps.push_back(rng.uniform(0.0, 100.0));
    return ps;
}

void expect_matches_sort_reference(const std::vector<double>& data, RngStream& rng) {
    std::vector<double> sorted = data;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : probe_percentiles(rng)) {
        const double want = sort_reference_percentile(data, p);
        EXPECT_EQ(percentile(data, p), want) << "n = " << data.size() << ", p = " << p;
        EXPECT_EQ(percentile_sorted(sorted, p), want) << "n = " << data.size() << ", p = " << p;
    }
}

TEST(Percentile, SelectionMatchesFullSortBitForBitOnSmallSizes) {
    RngStream rng(20100219, "test.percentile.small");
    for (std::size_t n = 1; n <= 300; ++n) {
        expect_matches_sort_reference(data_with_duplicates(rng, n), rng);
    }
}

TEST(Percentile, SelectionMatchesFullSortBitForBitOnALargeBuffer) {
    RngStream rng(20100219, "test.percentile.large");
    expect_matches_sort_reference(data_with_duplicates(rng, 100000), rng);
}

TEST(Percentile, SortedVariantChecksItsArguments) {
    EXPECT_DOUBLE_EQ(percentile_sorted({1.0, 2.0, 3.0, 4.0, 5.0}, 12.5), 1.5);
    EXPECT_DOUBLE_EQ(percentile_sorted({7.0}, 99.0), 7.0);
    EXPECT_THROW((void)percentile_sorted({}, 50.0), InvalidArgument);
    EXPECT_THROW((void)percentile_sorted({1.0}, -1.0), InvalidArgument);
    EXPECT_THROW((void)percentile_sorted({1.0}, 101.0), InvalidArgument);
}

TEST(Correlation, PerfectPositiveAndNegative) {
    const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
    const std::vector<double> y{2.0, 4.0, 6.0, 8.0};
    EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
    const std::vector<double> ny{8.0, 6.0, 4.0, 2.0};
    EXPECT_NEAR(pearson_correlation(x, ny), -1.0, 1e-12);
}

TEST(Correlation, ConstantSeriesIsZero) {
    EXPECT_DOUBLE_EQ(pearson_correlation({1.0, 2.0, 3.0}, {5.0, 5.0, 5.0}), 0.0);
}

TEST(Correlation, Errors) {
    EXPECT_THROW((void)pearson_correlation({1.0}, {1.0, 2.0}), InvalidArgument);
    EXPECT_THROW((void)pearson_correlation({1.0}, {1.0}), InvalidArgument);
}

TEST(HistogramTest, BinPlacement) {
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);   // bin 0
    h.add(9.9);   // bin 4
    h.add(5.0);   // bin 2
    EXPECT_EQ(h.bin_count(0), 1u);
    EXPECT_EQ(h.bin_count(2), 1u);
    EXPECT_EQ(h.bin_count(4), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, OutOfRangeClampsToEdges) {
    Histogram h(0.0, 10.0, 5);
    h.add(-100.0);
    h.add(100.0);
    EXPECT_EQ(h.bin_count(0), 1u);
    EXPECT_EQ(h.bin_count(4), 1u);
}

TEST(HistogramTest, BinEdges) {
    Histogram h(-20.0, 20.0, 4);
    EXPECT_DOUBLE_EQ(h.bin_low(0), -20.0);
    EXPECT_DOUBLE_EQ(h.bin_high(0), -10.0);
    EXPECT_DOUBLE_EQ(h.bin_low(3), 10.0);
}

TEST(HistogramTest, Errors) {
    EXPECT_THROW(Histogram(0.0, 10.0, 0), InvalidArgument);
    EXPECT_THROW(Histogram(10.0, 10.0, 2), InvalidArgument);
    EXPECT_THROW(Histogram(11.0, 10.0, 2), InvalidArgument);
}

}  // namespace
}  // namespace zerodeg::core
