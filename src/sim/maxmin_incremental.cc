#include "sim/maxmin_incremental.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace p4p::sim {

namespace {
using Clock = std::chrono::steady_clock;

std::int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

/// Rate-cap rules shared by AddFlow and SetRateCap (the oracle's rules).
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
    : capacities_(std::move(capacities)) {
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
    flow_live_.push_back(0);
    rate_.push_back(0.0);
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
  }
  std::copy(links.begin(), links.end(), links_pool_.begin() + off);
  flow_off_[su] = off;
  flow_len_[su] = len;
  flow_cap_[su] = rate_cap;
  flow_live_[su] = 1;
  ++num_flows_;
  dirty_ = true;
  return slot;
}

void IncrementalMaxMin::RemoveFlow(int slot) {
  CheckLiveSlot(slot, "IncrementalMaxMin: RemoveFlow on dead slot");
  const auto su = static_cast<std::size_t>(slot);
  const std::uint32_t len = flow_len_[su];
  if (len > 0) {
    if (len >= pool_free_.size()) pool_free_.resize(static_cast<std::size_t>(len) + 1);
    pool_free_[len].push_back(flow_off_[su]);
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
  auto& cap = capacities_[static_cast<std::size_t>(link)];
  if (cap == capacity_bps) return;
  cap = capacity_bps;
  dirty_ = true;
}

void IncrementalMaxMin::SetRateCap(int slot, double rate_cap) {
  CheckLiveSlot(slot, "IncrementalMaxMin: SetRateCap on dead slot");
  const auto su = static_cast<std::size_t>(slot);
  CheckRateCap(rate_cap, flow_len_[su] > 0);
  if (flow_cap_[su] == rate_cap) return;
  flow_cap_[su] = rate_cap;
  dirty_ = true;
}

std::span<const double> IncrementalMaxMin::Rates() {
  if (!dirty_) return rate_;

  const auto t0 = Clock::now();
  specs_.clear();
  for (std::size_t s = 0; s < flow_live_.size(); ++s) {
    if (flow_live_[s] == 0) continue;
    specs_.push_back(FlowSpec{
        std::span<const int>(links_pool_.data() + flow_off_[s], flow_len_[s]),
        flow_cap_[s]});
  }
  const auto gather_ns = NsSince(t0);

  const auto t1 = Clock::now();
  const auto rates = workspace_.Compute(capacities_, specs_);
  std::size_t k = 0;
  for (std::size_t s = 0; s < flow_live_.size(); ++s) {
    if (flow_live_[s] != 0) rate_[s] = rates[k++];
  }
  const auto solve_ns = NsSince(t1);

  dirty_ = false;
  last_recomputed_flows_ = specs_.size();
  total_recomputed_flows_ += specs_.size();
  ++recompute_passes_;
  last_gather_ns_ = gather_ns;
  last_solve_ns_ = solve_ns;
  total_gather_ns_ += gather_ns;
  total_solve_ns_ += solve_ns;
  return rate_;
}

}  // namespace p4p::sim
