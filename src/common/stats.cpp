#include "common/stats.hpp"

#include <cmath>
#include <sstream>

namespace corec {

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  double total = static_cast<double>(n_ + other.n_);
  double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / total;
  mean_ = (mean_ * static_cast<double>(n_) +
           other.mean_ * static_cast<double>(other.n_)) /
          total;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

LatencyHistogram::LatencyHistogram(double min_value, double max_value,
                                   std::size_t buckets)
    : log_min_(std::log(min_value)),
      log_max_(std::log(max_value)),
      buckets_(buckets),
      counts_(buckets + 2, 0) {}

void LatencyHistogram::add(double x) {
  ++total_;
  if (x <= 0.0 || std::log(x) < log_min_) {
    ++counts_.front();
    return;
  }
  double lx = std::log(x);
  if (lx >= log_max_) {
    ++counts_.back();
    return;
  }
  auto idx = static_cast<std::size_t>((lx - log_min_) /
                                      (log_max_ - log_min_) *
                                      static_cast<double>(buckets_));
  ++counts_[1 + std::min(idx, buckets_ - 1)];
}

double LatencyHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  auto target = static_cast<std::size_t>(
      q * static_cast<double>(total_ - 1));
  std::size_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > target) {
      if (i == 0) return std::exp(log_min_);
      if (i == counts_.size() - 1) return std::exp(log_max_);
      double frac_lo = static_cast<double>(i - 1) /
                       static_cast<double>(buckets_);
      double frac_hi = static_cast<double>(i) /
                       static_cast<double>(buckets_);
      double mid = 0.5 * (frac_lo + frac_hi);
      return std::exp(log_min_ + mid * (log_max_ - log_min_));
    }
  }
  return std::exp(log_max_);
}

std::string LatencyHistogram::to_string() const {
  std::ostringstream os;
  os << "count=" << total_ << " p50=" << quantile(0.5)
     << " p90=" << quantile(0.9) << " p99=" << quantile(0.99);
  return os.str();
}

}  // namespace corec
