#include "core/policy_adaptive.h"

#include <cmath>
#include <stdexcept>

namespace p4p::core {

PolicyAdaptiveSelector::PolicyAdaptiveSelector(
    std::unique_ptr<sim::PeerSelector> inner, const PolicyRegistry& policy,
    std::function<double()> utilization, double soft_factor, double hard_factor)
    : inner_(std::move(inner)),
      policy_(policy),
      utilization_(std::move(utilization)),
      soft_factor_(soft_factor),
      hard_factor_(hard_factor) {
  if (!inner_) {
    throw std::invalid_argument("PolicyAdaptiveSelector: null inner selector");
  }
  if (!utilization_) {
    throw std::invalid_argument("PolicyAdaptiveSelector: null utilization source");
  }
  if (!(soft_factor_ > 0) || soft_factor_ > 1 || !(hard_factor_ > 0) ||
      hard_factor_ > soft_factor_) {
    throw std::invalid_argument(
        "PolicyAdaptiveSelector: need 0 < hard <= soft <= 1");
  }
}

std::string PolicyAdaptiveSelector::name() const {
  return "PolicyAdaptive(" + inner_->name() + ")";
}

int PolicyAdaptiveSelector::EffectiveWant(int m) const {
  if (m <= 0) return 0;
  const double util = utilization_();
  const auto& thresholds = policy_.thresholds();
  double factor = 1.0;
  if (util >= thresholds.heavy_usage_utilization) {
    factor = hard_factor_;
  } else if (util >= thresholds.near_congestion_utilization) {
    factor = soft_factor_;
  }
  return std::max(1, static_cast<int>(std::floor(factor * m)));
}

std::vector<sim::PeerId> PolicyAdaptiveSelector::SelectFromBuckets(
    const sim::PeerInfo& client, const sim::PeerBuckets& swarm, int m,
    std::mt19937_64& rng) {
  return inner_->SelectFromBuckets(client, swarm, EffectiveWant(m), rng);
}

}  // namespace p4p::core
