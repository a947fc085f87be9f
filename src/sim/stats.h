// Measurement helpers shared by the simulators and the benchmark harness:
// percentiles/CDFs of completion times, per-link utilization time series,
// and the 5-minute interval volume recorder that feeds the percentile
// charging model.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace p4p::sim {

/// q-th percentile (q in [0,100]) by linear interpolation between closest
/// ranks. Throws std::invalid_argument on empty input or q out of range.
double Percentile(std::span<const double> samples, double q);

double Mean(std::span<const double> samples);

/// Empirical CDF: sorted samples plus cumulative fractions; convenient for
/// printing the paper's completion-time CDF figures.
struct Cdf {
  std::vector<double> values;     // sorted ascending
  std::vector<double> fractions;  // same length, in (0, 1]

  static Cdf FromSamples(std::span<const double> samples);
  /// Fraction of samples <= v.
  double at(double v) const;
};

/// A sampled scalar time series (e.g. bottleneck link utilization).
struct TimeSeries {
  std::vector<double> times;
  std::vector<double> values;

  void add(double t, double v) {
    times.push_back(t);
    values.push_back(v);
  }
  double max() const;
  /// Total time during which the value is >= threshold, assuming samples are
  /// evenly spaced (uses the median spacing).
  double time_above(double threshold) const;
};

/// Accumulates per-link traffic volumes into fixed-size intervals — the
/// "5-minute traffic volumes" of the percentile charging model. Bytes added
/// at time t land in interval floor(t / interval_sec). Volumes live in one
/// dense [interval][link] buffer that grows with the interval index.
class IntervalVolumeRecorder {
 public:
  IntervalVolumeRecorder(std::size_t num_links, double interval_sec);

  void add(int link, double time_sec, double bytes);

  /// Volume samples (bytes per interval) for a link, from interval 0 through
  /// the last interval that received traffic on any link.
  std::vector<double> volumes(int link) const;

  double interval_sec() const { return interval_sec_; }

 private:
  double interval_sec_;
  std::size_t num_links_;
  std::vector<double> cells_;  // [interval][link], at least one interval
};

}  // namespace p4p::sim
