// Small descriptive-statistics toolkit for reports and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace zerodeg::core {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
public:
    void add(double x);

    [[nodiscard]] std::size_t count() const { return n_; }
    [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
    /// Sample variance (n-1 denominator); 0 for fewer than two samples.
    [[nodiscard]] double variance() const;
    [[nodiscard]] double stddev() const;
    [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
    [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
    [[nodiscard]] double sum() const { return sum_; }

    /// Merge another accumulator into this one (Chan's parallel formula).
    void merge(const RunningStats& other);

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/// Percentile of a data set via linear interpolation between closest ranks.
/// `p` in [0, 100].  Selects the two closest ranks in O(n) (nth_element,
/// then the minimum above it), which reads the same values a full sort
/// would put at those ranks.
[[nodiscard]] double percentile(std::vector<double> data, double p);

/// The same percentile over data already sorted ascending; O(1), so one
/// sort can serve several quantiles of the same buffer.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted, double p);

/// Pearson correlation coefficient of two equal-length vectors.
[[nodiscard]] double pearson_correlation(const std::vector<double>& x,
                                         const std::vector<double>& y);

/// Fixed-bin histogram over [lo, hi); values outside are clamped into the
/// edge bins, which is what a report wants for a handful of outliers.
class Histogram {
public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);
    [[nodiscard]] std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
    [[nodiscard]] std::size_t bins() const { return counts_.size(); }
    [[nodiscard]] std::size_t total() const { return total_; }
    [[nodiscard]] double bin_low(std::size_t i) const;
    [[nodiscard]] double bin_high(std::size_t i) const { return bin_low(i + 1); }

private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

}  // namespace zerodeg::core
