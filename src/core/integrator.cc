#include "core/integrator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p4p::core {

void Integrator::RegisterNetwork(std::int32_t as_number, const ITracker* tracker) {
  if (tracker == nullptr) {
    throw std::invalid_argument("Integrator: null tracker");
  }
  trackers_[as_number] = tracker;
}

void Integrator::SetInterAsCost(std::int32_t as_a, std::int32_t as_b, double cost) {
  if (as_a == as_b) {
    throw std::invalid_argument("Integrator: inter-AS cost needs distinct ASes");
  }
  if (cost < 0 || std::isnan(cost)) {
    throw std::invalid_argument("Integrator: negative inter-AS cost");
  }
  const auto key = std::minmax(as_a, as_b);
  inter_as_cost_[{key.first, key.second}] = cost;
}

std::optional<double> Integrator::MeanEgress(std::int32_t as_number, Pid pid) const {
  const auto it = trackers_.find(as_number);
  if (it == trackers_.end()) return std::nullopt;
  const ITracker& tracker = *it->second;
  if (pid < 0 || pid >= tracker.num_pids()) return std::nullopt;
  if (tracker.num_pids() <= 1) return 0.0;
  const auto snap = tracker.snapshot();
  const PDistanceRow dist = tracker.row(*snap, pid);
  double sum = 0.0;
  for (Pid j = 0; j < tracker.num_pids(); ++j) {
    if (j != pid) sum += dist(j);
  }
  return sum / static_cast<double>(tracker.num_pids() - 1);
}

std::optional<double> Integrator::Distance(NetworkLocation from,
                                           NetworkLocation to) const {
  if (from.as_number == to.as_number) {
    const auto it = trackers_.find(from.as_number);
    if (it == trackers_.end()) return std::nullopt;
    const ITracker& tracker = *it->second;
    if (from.pid < 0 || from.pid >= tracker.num_pids() || to.pid < 0 ||
        to.pid >= tracker.num_pids()) {
      return std::nullopt;
    }
    return tracker.pdistance(from.pid, to.pid);
  }
  const auto key = std::minmax(from.as_number, to.as_number);
  const auto cost_it = inter_as_cost_.find({key.first, key.second});
  if (cost_it == inter_as_cost_.end()) return std::nullopt;
  const auto egress_from = MeanEgress(from.as_number, from.pid);
  const auto egress_to = MeanEgress(to.as_number, to.pid);
  if (!egress_from || !egress_to) return std::nullopt;
  return *egress_from + cost_it->second + *egress_to;
}

std::vector<NetworkLocation> Integrator::Rank(
    NetworkLocation from, std::vector<NetworkLocation> candidates) const {
  std::stable_sort(candidates.begin(), candidates.end(),
                   [this, from](const NetworkLocation& a, const NetworkLocation& b) {
                     const auto da = Distance(from, a);
                     const auto db = Distance(from, b);
                     if (da.has_value() != db.has_value()) return da.has_value();
                     if (!da) return false;
                     return *da < *db;
                   });
  return candidates;
}

}  // namespace p4p::core
