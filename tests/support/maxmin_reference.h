// Frozen reference for the max-min engine: the CSR progressive-filling
// solve (MaxMinWorkspace::Compute) that src/sim used before the engine kept
// a persistent flow-on-link index and screened slack links. The body of
// Compute is kept verbatim; tests check the engine against it bitwise. Do
// not optimize or "fix" it: its value is that it does not change.
#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "sim/maxmin.h"

namespace p4p::sim::reference {

/// Non-owning flow description for the zero-allocation fast path. The links
/// span must stay valid for the duration of the Compute() call.
struct FlowSpec {
  std::span<const int> links;
  double rate_cap = std::numeric_limits<double>::infinity();
};

/// Reusable scratch state for progressive filling. One workspace serves one
/// caller at a time; reusing it across rounds avoids reallocating the
/// link-flow adjacency, heap, and rate buffers each recomputation. Results
/// are bit-identical to MaxMinFairRates on the same input.
class MaxMinWorkspace {
 public:
  /// Computes max-min fair rates (one per flow) into an internal buffer
  /// that stays valid until the next Compute() call. Capacities must be
  /// non-negative; a flow with no links and no finite cap is unbounded and
  /// throws std::invalid_argument, as does a flow referencing an unknown
  /// link or carrying a negative cap.
  std::span<const double> Compute(std::span<const double> capacities,
                                  std::span<const FlowSpec> flows);

 private:
  std::vector<double> remaining_;      // residual capacity per (real+virtual) link
  std::vector<int> cap_link_of_flow_;  // virtual link id per capped flow, or -1
  std::vector<std::size_t> adj_offsets_;  // CSR offsets: flows on each link
  std::vector<std::size_t> adj_fill_;
  std::vector<int> adj_flows_;
  std::vector<int> active_count_;
  std::vector<double> rate_;
  std::vector<char> frozen_;
  std::vector<std::pair<double, int>> heap_;  // (fair share, link) min-heap
};

/// One-shot convenience wrapper over MaxMinWorkspace. Returns one rate per
/// flow; same validation rules as Compute().
std::vector<double> MaxMinFairRates(std::span<const double> capacities,
                                    std::span<const Flow> flows);

}  // namespace p4p::sim::reference
