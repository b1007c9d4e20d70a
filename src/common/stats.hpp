// Streaming statistics helpers used by the metric collectors: running
// mean/variance (Welford) and fixed-boundary latency histograms.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace corec {

/// Single-pass mean / variance / min / max accumulator.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStat& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

/// Histogram with exponentially-spaced bucket boundaries, suitable for
/// latency distributions spanning several orders of magnitude.
class LatencyHistogram {
 public:
  /// Buckets cover [min_value, max_value) with `buckets` log-spaced bins
  /// plus underflow/overflow bins.
  LatencyHistogram(double min_value, double max_value, std::size_t buckets);

  void add(double x);
  std::size_t count() const { return total_; }

  /// Approximate quantile (q in [0,1]) from bucket midpoints.
  double quantile(double q) const;

  /// Multi-line textual rendering for reports.
  std::string to_string() const;

 private:
  double log_min_;
  double log_max_;
  std::size_t buckets_;
  std::vector<std::size_t> counts_;  // [under, b0..bN-1, over]
  std::size_t total_ = 0;
};

}  // namespace corec
