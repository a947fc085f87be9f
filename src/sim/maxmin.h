// One-shot max-min fair bandwidth allocation (progressive filling).
//
// MaxMinFairRates loads the flows into a fresh IncrementalMaxMin
// (maxmin_incremental.h), the one progressive-filling engine, and solves
// once. Flow k gets slot k, so a store fed the same live flows in slot order
// returns bit-identical rates.
#pragma once

#include <limits>
#include <span>
#include <vector>

namespace p4p::sim {

struct Flow {
  /// Indices into the capacity vector of every link the flow traverses.
  std::vector<int> links;
  /// Intrinsic rate limit (e.g., application pacing); +inf when absent.
  double rate_cap = std::numeric_limits<double>::infinity();
};

/// Returns one rate per flow. Capacities must be non-negative; a flow with
/// no links and no finite cap is unbounded and throws
/// std::invalid_argument, as does a flow referencing an unknown link or
/// carrying a negative cap.
std::vector<double> MaxMinFairRates(std::span<const double> capacities,
                                    std::span<const Flow> flows);

}  // namespace p4p::sim
