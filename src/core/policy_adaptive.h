// Policy-driven application backoff — the application-side use of the
// `policy` interface: "Applications may set lower rates or back off before
// using higher p-distance paths" (Section 4) and the Comcast-style
// near-congestion / heavy-usage thresholds (Section 3).
//
// PolicyAdaptiveSelector wraps any selection policy and shrinks the
// requested peer count when the provider signals congestion: at or above
// the near-congestion threshold the request is scaled by `soft_factor`,
// at or above heavy usage by `hard_factor`.
#pragma once

#include <functional>
#include <memory>

#include "core/policy.h"
#include "sim/bittorrent.h"

namespace p4p::core {

class PolicyAdaptiveSelector final : public sim::PeerSelector {
 public:
  /// `utilization` reports the provider's current network utilization in
  /// [0, 1] (e.g. the max link utilization published by the management
  /// plane). Thresholds come from the policy registry, which must outlive
  /// the selector.
  PolicyAdaptiveSelector(std::unique_ptr<sim::PeerSelector> inner,
                         const PolicyRegistry& policy,
                         std::function<double()> utilization,
                         double soft_factor = 0.6, double hard_factor = 0.3);

  /// The congestion backoff applies to `m`, then defers to the inner
  /// selector.
  std::vector<sim::PeerId> SelectFromBuckets(const sim::PeerInfo& client,
                                             const sim::PeerBuckets& swarm,
                                             int m, std::mt19937_64& rng) override;
  std::string name() const override;

  /// The peer count that would currently be requested for a nominal `m`.
  int EffectiveWant(int m) const;

 private:
  std::unique_ptr<sim::PeerSelector> inner_;
  const PolicyRegistry& policy_;
  std::function<double()> utilization_;
  double soft_factor_;
  double hard_factor_;
};

}  // namespace p4p::core
