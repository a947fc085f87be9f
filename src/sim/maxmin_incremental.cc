#include "sim/maxmin_incremental.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace p4p::sim {

namespace {
using Clock = std::chrono::steady_clock;

/// Bound units of a flow whose b_f is infinite or too large to sum without
/// overflow; a link carrying one is never screened.
constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};
/// Largest b_f that is summed (2^40 bps): 2^24 such references fit in a sum.
constexpr double kMaxSummedBound = 1099511627776.0;
/// A link is slack when its bound sum is below this fraction of capacity.
constexpr double kSlackFraction = 1.0 - 1e-9;

std::int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

/// Rate-cap rules shared by AddFlow and SetRateCap.
void CheckRateCap(double rate_cap, bool has_links) {
  if (std::isnan(rate_cap) || rate_cap < 0.0) {
    throw std::invalid_argument("IncrementalMaxMin: negative or NaN rate cap");
  }
  if (!has_links && !std::isfinite(rate_cap)) {
    throw std::invalid_argument(
        "IncrementalMaxMin: flow with no links and no rate cap is unbounded");
  }
}
}  // namespace

IncrementalMaxMin::IncrementalMaxMin(std::vector<double> capacities)
    : capacities_(std::move(capacities)),
      head_(capacities_.size(), -1),
      count_(capacities_.size(), 0),
      bound_sum_(capacities_.size(), 0),
      unbounded_(capacities_.size(), 0),
      remaining_(capacities_.size()),
      active_(capacities_.size()),
      screened_(capacities_.size()) {
  heap_.reserve(capacities_.size());
  for (double c : capacities_) {
    if (c < 0.0 || std::isnan(c)) {
      throw std::invalid_argument("IncrementalMaxMin: negative or NaN capacity");
    }
  }
}

void IncrementalMaxMin::CheckLiveSlot(int slot, const char* message) const {
  const auto su = static_cast<std::size_t>(slot);
  if (slot < 0 || su >= flow_live_.size() || flow_live_[su] == 0) {
    throw std::invalid_argument(message);
  }
}

std::uint64_t IncrementalMaxMin::BoundUnits(std::size_t slot) const {
  double b = flow_cap_[slot];
  for (std::uint32_t k = 0; k < flow_len_[slot]; ++k) {
    const auto l = static_cast<std::size_t>(links_pool_[flow_off_[slot] + k]);
    b = std::min(b, capacities_[l]);
  }
  return b <= kMaxSummedBound ? static_cast<std::uint64_t>(std::ceil(b)) : kUnbounded;
}

void IncrementalMaxMin::AddBound(std::size_t slot, int sign) {
  const std::uint64_t units = flow_units_[slot];
  for (std::uint32_t k = 0; k < flow_len_[slot]; ++k) {
    const auto l = static_cast<std::size_t>(links_pool_[flow_off_[slot] + k]);
    if (units == kUnbounded) {
      unbounded_[l] += sign;
    } else if (sign > 0) {
      bound_sum_[l] += units;
    } else {
      bound_sum_[l] -= units;
    }
  }
}

void IncrementalMaxMin::Rebound(std::size_t slot) {
  const std::uint64_t units = BoundUnits(slot);
  if (units == flow_units_[slot]) return;
  AddBound(slot, -1);
  flow_units_[slot] = units;
  AddBound(slot, +1);
}

int IncrementalMaxMin::AddFlow(std::span<const int> links, double rate_cap) {
  CheckRateCap(rate_cap, !links.empty());
  for (int l : links) {
    if (l < 0 || static_cast<std::size_t>(l) >= capacities_.size()) {
      throw std::invalid_argument("IncrementalMaxMin: flow references unknown link");
    }
  }

  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(flow_off_.size());
    flow_off_.push_back(0);
    flow_len_.push_back(0);
    flow_cap_.push_back(0.0);
    flow_units_.push_back(0);
    flow_live_.push_back(0);
    rate_.push_back(0.0);
    remaining_.push_back(0.0);  // the slot's virtual cap link
    active_.push_back(0);
    screened_.push_back(0);
  }
  const auto su = static_cast<std::size_t>(slot);

  const auto len = static_cast<std::uint32_t>(links.size());
  std::uint32_t off = 0;
  if (len > 0 && len < pool_free_.size() && !pool_free_[len].empty()) {
    off = pool_free_[len].back();
    pool_free_[len].pop_back();
  } else if (len > 0) {
    off = static_cast<std::uint32_t>(links_pool_.size());
    links_pool_.resize(links_pool_.size() + len);
    ref_next_.resize(links_pool_.size());
    ref_prev_.resize(links_pool_.size());
    ref_slot_.resize(links_pool_.size());
  }
  for (std::uint32_t k = 0; k < len; ++k) {
    const auto r = static_cast<int>(off + k);
    const auto l = static_cast<std::size_t>(links[k]);
    links_pool_[static_cast<std::size_t>(r)] = links[k];
    ref_slot_[static_cast<std::size_t>(r)] = slot;
    ref_prev_[static_cast<std::size_t>(r)] = -1;
    ref_next_[static_cast<std::size_t>(r)] = head_[l];
    if (head_[l] >= 0) ref_prev_[static_cast<std::size_t>(head_[l])] = r;
    head_[l] = r;
    ++count_[l];
  }
  flow_off_[su] = off;
  flow_len_[su] = len;
  flow_cap_[su] = rate_cap;
  flow_units_[su] = BoundUnits(su);
  AddBound(su, +1);
  flow_live_[su] = 1;
  ++num_flows_;
  dirty_ = true;
  return slot;
}

void IncrementalMaxMin::RemoveFlow(int slot) {
  CheckLiveSlot(slot, "IncrementalMaxMin: RemoveFlow on dead slot");
  const auto su = static_cast<std::size_t>(slot);
  AddBound(su, -1);
  const std::uint32_t off = flow_off_[su];
  const std::uint32_t len = flow_len_[su];
  for (std::size_t r = off; r < off + len; ++r) {
    const auto l = static_cast<std::size_t>(links_pool_[r]);
    const int prev = ref_prev_[r], next = ref_next_[r];
    if (prev >= 0) {
      ref_next_[static_cast<std::size_t>(prev)] = next;
    } else {
      head_[l] = next;
    }
    if (next >= 0) ref_prev_[static_cast<std::size_t>(next)] = prev;
    --count_[l];
  }
  if (len > 0) {
    if (len >= pool_free_.size()) pool_free_.resize(static_cast<std::size_t>(len) + 1);
    pool_free_[len].push_back(off);
  }
  flow_live_[su] = 0;
  rate_[su] = 0.0;
  --num_flows_;
  free_slots_.push_back(slot);
  dirty_ = true;
}

void IncrementalMaxMin::SetCapacity(int link, double capacity_bps) {
  if (link < 0 || static_cast<std::size_t>(link) >= capacities_.size()) {
    throw std::invalid_argument("IncrementalMaxMin: SetCapacity on unknown link");
  }
  if (std::isnan(capacity_bps) || capacity_bps < 0.0) {
    throw std::invalid_argument("IncrementalMaxMin: negative or NaN capacity");
  }
  const auto lu = static_cast<std::size_t>(link);
  if (capacities_[lu] == capacity_bps) return;
  capacities_[lu] = capacity_bps;
  for (int r = head_[lu]; r >= 0; r = ref_next_[static_cast<std::size_t>(r)]) {
    Rebound(static_cast<std::size_t>(ref_slot_[static_cast<std::size_t>(r)]));
  }
  dirty_ = true;
}

void IncrementalMaxMin::SetRateCap(int slot, double rate_cap) {
  CheckLiveSlot(slot, "IncrementalMaxMin: SetRateCap on dead slot");
  const auto su = static_cast<std::size_t>(slot);
  CheckRateCap(rate_cap, flow_len_[su] > 0);
  if (flow_cap_[su] == rate_cap) return;
  flow_cap_[su] = rate_cap;
  Rebound(su);
  dirty_ = true;
}

void IncrementalMaxMin::Freeze(std::size_t slot, std::size_t link, double share) {
  if (rate_[slot] >= 0.0) return;
  rate_[slot] = share;
  for (std::uint32_t k = 0; k < flow_len_[slot]; ++k) {
    const auto l2 = static_cast<std::size_t>(links_pool_[flow_off_[slot] + k]);
    if (l2 == link || screened_[l2] != 0) continue;
    remaining_[l2] -= share;
    --active_[l2];
  }
  const std::size_t cap_link = capacities_.size() + slot;
  if (std::isfinite(flow_cap_[slot]) && cap_link != link && screened_[cap_link] == 0) {
    remaining_[cap_link] -= share;
    --active_[cap_link];
  }
}

bool IncrementalMaxMin::Isolated(std::size_t link) const {
  const std::size_t num_real = capacities_.size();
  for (int r = head_[link]; r >= 0; r = ref_next_[static_cast<std::size_t>(r)]) {
    const auto slot = static_cast<std::size_t>(ref_slot_[static_cast<std::size_t>(r)]);
    if (std::isfinite(flow_cap_[slot]) && screened_[num_real + slot] == 0) return false;
    for (std::uint32_t k = 0; k < flow_len_[slot]; ++k) {
      const auto l2 = static_cast<std::size_t>(links_pool_[flow_off_[slot] + k]);
      if (l2 != link && screened_[l2] == 0) return false;
    }
  }
  return true;
}

std::span<const double> IncrementalMaxMin::Rates() {
  if (!dirty_) return rate_;

  // Gather: screen the links, freeze the flows of isolated links, and seed
  // the heap with the rest. Links are numbered real first, then one virtual
  // link per capped flow at num_real + slot.
  const auto t0 = Clock::now();
  const std::size_t num_real = capacities_.size();
  heap_.clear();
  open_real_.clear();
  for (std::size_t l = 0; l < num_real; ++l) {
    if (count_[l] == 0) continue;
    screened_[l] = unbounded_[l] == 0 &&
                   static_cast<double>(bound_sum_[l]) < capacities_[l] * kSlackFraction;
    if (screened_[l] == 0) open_real_.push_back(static_cast<int>(l));
  }
  for (std::size_t s = 0; s < flow_live_.size(); ++s) {
    if (flow_live_[s] == 0) continue;
    rate_[s] = -1.0;
    if (!std::isfinite(flow_cap_[s])) continue;
    const std::size_t v = num_real + s;
    screened_[v] = flow_units_[s] != kUnbounded &&
                   static_cast<double>(flow_units_[s]) < flow_cap_[s] * kSlackFraction;
    if (screened_[v] != 0) continue;
    remaining_[v] = flow_cap_[s];
    active_[v] = 1;
    heap_.emplace_back(std::max(0.0, remaining_[v]) / active_[v], static_cast<int>(v));
  }
  // An isolated link is touched only by its own pop, which comes fresh at
  // the share below and freezes every flow on it there; keys are unique, so
  // leaving it out of the heap changes no other pop.
  for (int l : open_real_) {
    const auto lu = static_cast<std::size_t>(l);
    const double share = std::max(0.0, capacities_[lu]) / count_[lu];
    if (Isolated(lu)) {
      for (int r = head_[lu]; r >= 0; r = ref_next_[static_cast<std::size_t>(r)]) {
        rate_[static_cast<std::size_t>(ref_slot_[static_cast<std::size_t>(r)])] = share;
      }
      continue;
    }
    remaining_[lu] = capacities_[lu];
    active_[lu] = count_[lu];
    heap_.emplace_back(share, l);
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const auto gather_ns = NsSince(t0);

  // Progressive filling. Every live link keeps exactly one heap entry:
  // fair shares only rise as flows freeze (a flow frozen elsewhere was
  // frozen at the global-minimum share), so a popped entry is at most the
  // link's current share, and a stale one is re-pushed at the current
  // share. Keys (share, link) are unique, so the pop order is fixed; every
  // flow frozen in one pop subtracts the same share, so the order of flows
  // inside a link does not matter.
  const auto t1 = Clock::now();
  while (!heap_.empty()) {
    const auto [share, l] = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    const auto lu = static_cast<std::size_t>(l);
    if (active_[lu] == 0) continue;  // fully frozen via other links
    const double current = std::max(0.0, remaining_[lu]) / active_[lu];
    if (share < current - 1e-12 * std::max(1.0, current)) {
      heap_.emplace_back(current, l);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      continue;
    }
    if (lu < num_real) {
      for (int r = head_[lu]; r >= 0;) {
        const auto ru = static_cast<std::size_t>(r);
        Freeze(static_cast<std::size_t>(ref_slot_[ru]), lu, current);
        r = ref_next_[ru];
      }
    } else {
      Freeze(lu - num_real, lu, current);
    }
    remaining_[lu] = 0.0;
    active_[lu] = 0;
  }
  const auto solve_ns = NsSince(t1);

  dirty_ = false;
  last_recomputed_flows_ = num_flows_;
  total_recomputed_flows_ += num_flows_;
  ++recompute_passes_;
  last_gather_ns_ = gather_ns;
  last_solve_ns_ = solve_ns;
  total_gather_ns_ += gather_ns;
  total_solve_ns_ += solve_ns;
  return rate_;
}

}  // namespace p4p::sim
