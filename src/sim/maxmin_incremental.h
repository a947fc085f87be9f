// The max-min engine: a persistent flow store with one progressive-filling
// solve.
//
// The paper simulates TCP at session level, "assuming that TCP capacity
// sharing achieves maxmin fairness in steady state" (Section 7.1, following
// Bindal et al.). IncrementalMaxMin is the one engine that realizes that
// model; MaxMinFairRates (maxmin.h) is a one-shot wrapper over it.
//
// The fluid simulators need rates every step over flow sets that barely
// change: a stream keeps its flow (same route, same cap) across every block
// it transfers. The store keeps the flows registered across steps together
// with a flow-on-link index, and tracks one dirty bit:
//
//   - Clean: nothing changed since the last solve, so Rates() returns the
//     cached rates in O(1).
//   - Dirty: Rates() screens the links, freezes the isolated ones and runs
//     progressive filling over the rest straight off the index: no flow
//     list, no adjacency rebuild.
//
// The index is intrusive doubly-linked lists in flat arrays aligned with the
// link arena (one node per flow-link reference), so AddFlow/RemoveFlow are
// O(links) and, once the arena has grown to the working set, never
// allocate.
//
// Slack-link screen. Each flow carries a bound b_f = min(rate cap, smallest
// capacity on its path), and each link the integer sum of ceil(b_f) over
// its references. A link whose sum is below c_l * (1 - 1e-9) never enters
// the heap and is never decremented. Every unfrozen flow on such a link has
// a tightest link elsewhere whose share is at most b_f, while the slack
// link's share stays strictly above the mean of those b_f, so it never
// freezes a flow: the rates are bit-identical to filling every link.
// Virtual cap links are numbered capacities().size() + slot, so they sort
// after every real link and among themselves in slot order, as in a solve
// that is fed the live flows in slot order.
//
// Isolated binding links. An unscreened real link whose flows have no
// other unscreened link (virtual cap links included) is touched only by its
// own pop, so it would pop fresh at max(0, c)/n and freeze all its flows
// there. The gather assigns them that rate and leaves the link out of the
// heap; heap keys are unique, so every other pop is unchanged.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace p4p::sim {

class IncrementalMaxMin {
 public:
  explicit IncrementalMaxMin(std::vector<double> capacities);

  /// Registers a flow traversing `links` (indices into the capacity
  /// vector) with an optional finite rate cap. Returns the flow's slot id,
  /// stable until RemoveFlow; freed slots are reused last-freed first.
  /// Throws std::invalid_argument on unknown links, a negative/NaN cap, or
  /// a flow with no links and no finite cap.
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
  /// the gather phase screens the links, freezes the isolated ones and
  /// builds the heap, the solve phase is progressive filling. Only updated
  /// by recompute passes; clean calls leave them untouched.
  std::int64_t last_gather_ns() const { return last_gather_ns_; }
  std::int64_t last_solve_ns() const { return last_solve_ns_; }
  std::int64_t total_gather_ns() const { return total_gather_ns_; }
  std::int64_t total_solve_ns() const { return total_solve_ns_; }

 private:
  /// Throws std::invalid_argument(message) unless `slot` holds a live flow.
  void CheckLiveSlot(int slot, const char* message) const;
  /// ceil(b_f) for the slot's current links, capacities and cap.
  std::uint64_t BoundUnits(std::size_t slot) const;
  /// Adds (sign +1) or removes (-1) the slot's bound on each of its links.
  void AddBound(std::size_t slot, int sign);
  /// Recomputes the slot's bound and moves the link sums if it changed.
  void Rebound(std::size_t slot);
  /// Freezes `slot` at `share`, charging every other unscreened link of it.
  void Freeze(std::size_t slot, std::size_t link, double share);
  /// True if no flow on the unscreened real `link` has another unscreened
  /// link, virtual cap links included (valid after the gather's screen).
  bool Isolated(std::size_t link) const;

  std::vector<double> capacities_;

  // --- per-link index (real links) ---
  std::vector<int> head_;    // first reference on the link, or -1
  std::vector<int> count_;   // live references on the link
  std::vector<std::uint64_t> bound_sum_;  // sum of ceil(b_f) over references
  std::vector<int> unbounded_;  // references whose b_f is too large to sum

  // --- per-flow state (slot-indexed) ---
  std::vector<std::uint32_t> flow_off_;  // offset into links_pool_
  std::vector<std::uint32_t> flow_len_;  // links on this flow
  std::vector<double> flow_cap_;
  std::vector<std::uint64_t> flow_units_;  // ceil(b_f), or kUnbounded
  std::vector<char> flow_live_;
  std::vector<double> rate_;  // < 0 marks a flow not yet frozen mid-solve
  std::vector<int> free_slots_;
  std::size_t num_flows_ = 0;

  // --- link arena and its per-reference list nodes (same indexing) ---
  std::vector<int> links_pool_;
  std::vector<int> ref_next_, ref_prev_, ref_slot_;
  std::vector<std::vector<std::uint32_t>> pool_free_;  // [len] -> offsets

  // --- solve scratch over real links, then virtual links by slot: sized
  // at construction and per new slot, so a solve does not resize it ---
  bool dirty_ = false;
  std::vector<double> remaining_;
  std::vector<int> active_;
  std::vector<char> screened_;
  std::vector<std::pair<double, int>> heap_;  // (fair share, link) min-heap
  std::vector<int> open_real_;  // unscreened real links with flows

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
