#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p4p::sim {

double Percentile(std::span<const double> samples, double q) {
  if (samples.empty()) {
    throw std::invalid_argument("Percentile: empty sample set");
  }
  if (q < 0.0 || q > 100.0 || std::isnan(q)) {
    throw std::invalid_argument("Percentile: q must be in [0, 100]");
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Mean(std::span<const double> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("Mean: empty sample set");
  }
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

Cdf Cdf::FromSamples(std::span<const double> samples) {
  Cdf cdf;
  cdf.values.assign(samples.begin(), samples.end());
  std::sort(cdf.values.begin(), cdf.values.end());
  cdf.fractions.resize(cdf.values.size());
  for (std::size_t i = 0; i < cdf.values.size(); ++i) {
    cdf.fractions[i] = static_cast<double>(i + 1) / static_cast<double>(cdf.values.size());
  }
  return cdf;
}

double Cdf::at(double v) const {
  const auto it = std::upper_bound(values.begin(), values.end(), v);
  return static_cast<double>(it - values.begin()) / static_cast<double>(values.size());
}

double TimeSeries::max() const {
  double m = 0.0;
  for (double v : values) m = std::max(m, v);
  return m;
}

double TimeSeries::time_above(double threshold) const {
  if (times.size() < 2) return 0.0;
  std::vector<double> gaps;
  gaps.reserve(times.size() - 1);
  for (std::size_t i = 1; i < times.size(); ++i) gaps.push_back(times[i] - times[i - 1]);
  std::nth_element(gaps.begin(), gaps.begin() + static_cast<std::ptrdiff_t>(gaps.size() / 2),
                   gaps.end());
  const double spacing = gaps[gaps.size() / 2];
  double total = 0.0;
  for (double v : values) {
    if (v >= threshold) total += spacing;
  }
  return total;
}

IntervalVolumeRecorder::IntervalVolumeRecorder(std::size_t num_links, double interval_sec)
    : interval_sec_(interval_sec), num_links_(num_links), cells_(num_links, 0.0) {
  if (interval_sec <= 0.0) {
    throw std::invalid_argument("IntervalVolumeRecorder: interval must be positive");
  }
}

void IntervalVolumeRecorder::add(int link, double time_sec, double bytes) {
  if (time_sec < 0.0 || bytes < 0.0) {
    throw std::invalid_argument("IntervalVolumeRecorder: negative time or bytes");
  }
  if (link < 0 || static_cast<std::size_t>(link) >= num_links_) {
    throw std::out_of_range("IntervalVolumeRecorder: unknown link");
  }
  const auto interval = static_cast<std::size_t>(time_sec / interval_sec_);
  if ((interval + 1) * num_links_ > cells_.size()) {
    cells_.resize((interval + 1) * num_links_, 0.0);
  }
  cells_[interval * num_links_ + static_cast<std::size_t>(link)] += bytes;
}

std::vector<double> IntervalVolumeRecorder::volumes(int link) const {
  if (link < 0 || static_cast<std::size_t>(link) >= num_links_) {
    throw std::out_of_range("IntervalVolumeRecorder: unknown link");
  }
  const std::size_t intervals = cells_.size() / num_links_;
  std::vector<double> out(intervals);
  for (std::size_t i = 0; i < intervals; ++i) {
    out[i] = cells_[i * num_links_ + static_cast<std::size_t>(link)];
  }
  return out;
}

}  // namespace p4p::sim
