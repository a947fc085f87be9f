// The external view of the p4p-distance interface: a full mesh of
// p-distances between externally visible PIDs.
#pragma once

#include <span>
#include <vector>

#include "core/pid.h"

namespace p4p::core {

/// Dense |PID| x |PID| matrix of p-distances. Distances are unit-free
/// "application costs"; only relative magnitude is meaningful to
/// applications.
class PDistanceMatrix {
 public:
  explicit PDistanceMatrix(int num_pids, double initial = 0.0);

  double at(Pid i, Pid j) const;
  void set(Pid i, Pid j, double value);

  int size() const { return n_; }

  /// Row-major view of all n*n entries (entry (i,j) at index i*n+j). Used
  /// by the wire encoders to serialize the matrix without per-cell calls.
  std::span<const double> values() const { return values_; }

  /// Row i: the n distances from PID i, entry j at index j. Throws
  /// std::out_of_range for a bad PID.
  std::span<const double> row(Pid i) const;
  /// Writable row i, for builders that fill the matrix a row at a time.
  std::span<double> mutable_row(Pid i);

  /// The coarsest usage in the paper's ISP use cases: given PID i, rank all
  /// PIDs by ascending distance (most preferred first, i itself first).
  /// Deterministic: equal distances rank by PID.
  std::vector<Pid> RankFrom(Pid i) const;

  /// Scales all entries so the maximum is 1 (no-op on an all-zero matrix).
  /// Providers may normalize before export to hide absolute internals.
  void Normalize();

 private:
  void check(Pid i, Pid j) const;
  int n_;
  std::vector<double> values_;
};

}  // namespace p4p::core
