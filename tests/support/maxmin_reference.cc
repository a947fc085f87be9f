#include "support/maxmin_reference.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p4p::sim::reference {

std::span<const double> MaxMinWorkspace::Compute(std::span<const double> capacities,
                                                 std::span<const FlowSpec> flows) {
  const std::size_t num_real_links = capacities.size();
  const std::size_t num_flows = flows.size();

  // Virtual links: one per flow with a finite rate cap, so caps participate
  // in the same water-filling as physical links.
  std::size_t num_links = num_real_links;
  cap_link_of_flow_.assign(num_flows, -1);
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (std::isfinite(flows[f].rate_cap)) {
      cap_link_of_flow_[f] = static_cast<int>(num_links++);
    } else if (flows[f].links.empty()) {
      throw std::invalid_argument(
          "MaxMinFairRates: flow with no links and no rate cap is unbounded");
    }
  }

  remaining_.assign(num_links, 0.0);
  for (std::size_t l = 0; l < num_real_links; ++l) {
    if (capacities[l] < 0.0 || std::isnan(capacities[l])) {
      throw std::invalid_argument("MaxMinFairRates: negative or NaN capacity");
    }
    remaining_[l] = capacities[l];
  }
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (cap_link_of_flow_[f] >= 0) {
      if (flows[f].rate_cap < 0.0) {
        throw std::invalid_argument("MaxMinFairRates: negative rate cap");
      }
      remaining_[static_cast<std::size_t>(cap_link_of_flow_[f])] = flows[f].rate_cap;
    }
  }

  // Flow-on-link adjacency in CSR form. Flows are appended per link in flow
  // order, matching what per-link push_back vectors would produce.
  adj_offsets_.assign(num_links + 1, 0);
  for (std::size_t f = 0; f < num_flows; ++f) {
    for (int l : flows[f].links) {
      if (l < 0 || static_cast<std::size_t>(l) >= num_real_links) {
        throw std::invalid_argument("MaxMinFairRates: flow references unknown link");
      }
      ++adj_offsets_[static_cast<std::size_t>(l) + 1];
    }
    if (cap_link_of_flow_[f] >= 0) {
      ++adj_offsets_[static_cast<std::size_t>(cap_link_of_flow_[f]) + 1];
    }
  }
  for (std::size_t l = 0; l < num_links; ++l) adj_offsets_[l + 1] += adj_offsets_[l];
  adj_flows_.resize(adj_offsets_[num_links]);
  adj_fill_.assign(adj_offsets_.begin(), adj_offsets_.end() - 1);
  for (std::size_t f = 0; f < num_flows; ++f) {
    for (int l : flows[f].links) {
      adj_flows_[adj_fill_[static_cast<std::size_t>(l)]++] = static_cast<int>(f);
    }
    if (cap_link_of_flow_[f] >= 0) {
      adj_flows_[adj_fill_[static_cast<std::size_t>(cap_link_of_flow_[f])]++] =
          static_cast<int>(f);
    }
  }

  active_count_.resize(num_links);
  for (std::size_t l = 0; l < num_links; ++l) {
    active_count_[l] = static_cast<int>(adj_offsets_[l + 1] - adj_offsets_[l]);
  }

  rate_.assign(num_flows, 0.0);
  frozen_.assign(num_flows, 0);

  // Min-heap of (fair share, link) over the reused buffer. Every live link
  // keeps exactly one entry: fair shares only rise as flows freeze (a flow
  // frozen elsewhere was frozen at the global-minimum share, so removing it
  // never lowers this link's share), so a popped entry is at most the
  // link's current share. A stale entry is re-pushed at the current share
  // instead of being re-pushed on every decrement — the old scheme kept one
  // heap entry per historical share, and the pops that drained those stale
  // entries for already-saturated links dominated the round.
  heap_.clear();
  heap_.reserve(num_links);
  for (std::size_t l = 0; l < num_links; ++l) {
    if (active_count_[l] > 0) {
      heap_.emplace_back(std::max(0.0, remaining_[l]) / active_count_[l],
                         static_cast<int>(l));
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});

  while (!heap_.empty()) {
    const auto [share, l] = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    const auto lu = static_cast<std::size_t>(l);
    if (active_count_[lu] == 0) continue;  // fully frozen via other links
    const double current = std::max(0.0, remaining_[lu]) / active_count_[lu];
    if (share < current - 1e-12 * std::max(1.0, current)) {
      // Stale: the share rose since this entry was pushed. Re-insert at the
      // current share; the link keeps its single up-to-date entry.
      heap_.emplace_back(current, l);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      continue;
    }
    // Freeze every unfrozen flow crossing this bottleneck at `current`.
    for (std::size_t a = adj_offsets_[lu]; a < adj_offsets_[lu + 1]; ++a) {
      const auto fu = static_cast<std::size_t>(adj_flows_[a]);
      if (frozen_[fu] != 0) continue;
      frozen_[fu] = 1;
      rate_[fu] = current;
      for (int l2 : flows[fu].links) {
        const auto l2u = static_cast<std::size_t>(l2);
        if (l2u == lu) continue;
        remaining_[l2u] -= current;
        --active_count_[l2u];
      }
      const int cl = cap_link_of_flow_[fu];
      if (cl >= 0 && static_cast<std::size_t>(cl) != lu) {
        const auto clu = static_cast<std::size_t>(cl);
        remaining_[clu] -= current;
        --active_count_[clu];
      }
    }
    remaining_[lu] = 0.0;
    active_count_[lu] = 0;
  }

  return rate_;
}

std::vector<double> MaxMinFairRates(std::span<const double> capacities,
                                    std::span<const Flow> flows) {
  std::vector<FlowSpec> specs;
  specs.reserve(flows.size());
  for (const Flow& f : flows) specs.push_back(FlowSpec{f.links, f.rate_cap});
  MaxMinWorkspace workspace;
  const auto rates = workspace.Compute(capacities, specs);
  return std::vector<double>(rates.begin(), rates.end());
}

}  // namespace p4p::sim::reference
