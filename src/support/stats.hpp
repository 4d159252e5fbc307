// Streaming statistics used by the bandwidth analyses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace tq {

/// Numerically stable running statistics (Welford) over a stream of doubles.
class RunningStat {
 public:
  void add(double x) noexcept {
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }
  double variance() const noexcept {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept {
    return count_ == 0 ? 0.0 : min_;
  }
  double max() const noexcept {
    return count_ == 0 ? 0.0 : max_;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Quantile helper over a materialised sample vector (sorts a copy).
double quantile(std::vector<double> samples, double q);

}  // namespace tq
