// Persistent max-min flow store over MaxMinWorkspace.
//
// The fluid simulators need max-min fair rates every step over flow sets
// that barely change: a stream keeps its flow (same route, same cap)
// across every block it transfers, so between rechoke bursts most steps
// change nothing at all. This class keeps the flows registered across
// steps and tracks one dirty bit:
//
//   - Clean: nothing changed since the last solve, so Rates() returns the
//     cached rates in O(1).
//   - Dirty: Rates() lists every live flow in slot order as FlowSpec views
//     over its link arena, runs one MaxMinWorkspace::Compute, and scatters
//     the results back by slot.
//
// Enumerating live slots in ascending order is exactly how the
// MaxMinFairRates oracle is fed by the parity tests and the simulators'
// sampling mode, so rates are bit-identical to it by construction.
//
// Flow link lists live in one arena recycled through exact-length free
// lists, so AddFlow/RemoveFlow never hash and, once the arena has grown
// to the working set, never allocate.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/maxmin.h"

namespace p4p::sim {

class IncrementalMaxMin {
 public:
  explicit IncrementalMaxMin(std::vector<double> capacities);

  /// Registers a flow traversing `links` (indices into the capacity
  /// vector) with an optional finite rate cap. Returns the flow's slot id,
  /// stable until RemoveFlow. Validation matches MaxMinFairRates: throws
  /// std::invalid_argument on unknown links, a negative/NaN cap, or a flow
  /// with no links and no finite cap.
  int AddFlow(std::span<const int> links,
              double rate_cap = std::numeric_limits<double>::infinity());

  /// Unregisters a flow; its slot may be reused by a later AddFlow.
  void RemoveFlow(int slot);

  /// Updates a link capacity (>= 0, non-NaN). Throws std::invalid_argument
  /// on an unknown link, like every other mutator.
  void SetCapacity(int link, double capacity_bps);

  /// Updates a flow's rate cap.
  void SetRateCap(int slot, double rate_cap);

  /// Rates indexed by slot (freed slots read 0). Re-solves only if a
  /// mutator changed something; the span stays valid until the next
  /// mutating call.
  std::span<const double> Rates();

  std::span<const double> capacities() const { return capacities_; }
  std::size_t num_flows() const { return num_flows_; }

  /// Introspection for tests and benches: flows re-solved by the last
  /// recompute pass (every live flow), and cumulative counts across the
  /// store's lifetime.
  std::size_t last_recomputed_flows() const { return last_recomputed_flows_; }
  std::uint64_t total_recomputed_flows() const { return total_recomputed_flows_; }
  std::uint64_t recompute_passes() const { return recompute_passes_; }

  /// Time attribution (wall clock, excluded from determinism contracts):
  /// the gather phase lists the live flows as FlowSpec views, the solve
  /// phase is progressive filling plus the scatter by slot. Only updated by
  /// recompute passes; clean calls leave them untouched.
  std::int64_t last_gather_ns() const { return last_gather_ns_; }
  std::int64_t last_solve_ns() const { return last_solve_ns_; }
  std::int64_t total_gather_ns() const { return total_gather_ns_; }
  std::int64_t total_solve_ns() const { return total_solve_ns_; }

 private:
  /// Throws std::invalid_argument(message) unless `slot` holds a live flow.
  void CheckLiveSlot(int slot, const char* message) const;

  std::vector<double> capacities_;

  // --- per-flow state (slot-indexed) ---
  std::vector<std::uint32_t> flow_off_;  // offset into links_pool_
  std::vector<std::uint32_t> flow_len_;  // links on this flow
  std::vector<double> flow_cap_;
  std::vector<char> flow_live_;
  std::vector<double> rate_;
  std::vector<int> free_slots_;
  std::size_t num_flows_ = 0;

  // --- pooled link-list storage (exact-length free lists, no hashing) ---
  std::vector<int> links_pool_;
  std::vector<std::vector<std::uint32_t>> pool_free_;  // [len] -> offsets

  bool dirty_ = false;
  std::vector<FlowSpec> specs_;  // live flows in slot order, per recompute
  MaxMinWorkspace workspace_;

  // --- introspection ---
  std::size_t last_recomputed_flows_ = 0;
  std::uint64_t total_recomputed_flows_ = 0;
  std::uint64_t recompute_passes_ = 0;
  std::int64_t last_gather_ns_ = 0;
  std::int64_t last_solve_ns_ = 0;
  std::int64_t total_gather_ns_ = 0;
  std::int64_t total_solve_ns_ = 0;
};

}  // namespace p4p::sim
