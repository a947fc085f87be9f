// Frozen reference for P4P selection: the flat-span three-stage selection
// (P4PSelector::SelectPeers, with its span-based random fallback) that
// src/core used before every selector sampled the PeerBuckets store. The
// body of SelectPeers is kept verbatim; tests compare the bucket path's
// locality preferences against it. Do not optimize or "fix" it: its value
// is that it does not change.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <span>
#include <vector>

#include "core/itracker.h"
#include "core/selectors.h"
#include "sim/bittorrent.h"

namespace p4p::core::reference {

/// Span-based native selection: a uniform sample of up to `m` candidates
/// other than the client.
class NativeRandomSelector {
 public:
  std::vector<sim::PeerId> SelectPeers(const sim::PeerInfo& client,
                                       std::span<const sim::PeerInfo> candidates,
                                       int m, std::mt19937_64& rng);
};

/// Span-based three-stage P4P selection over a flat candidate array, which
/// it partitions per call.
class P4PSelector {
 public:
  explicit P4PSelector(P4PSelectorConfig config = {}) : config_(config) {}

  /// Trackers must outlive the selector.
  void RegisterITracker(std::int32_t as_number, const ITracker* tracker) {
    trackers_[as_number] = tracker;
  }

  std::vector<sim::PeerId> SelectPeers(const sim::PeerInfo& client,
                                       std::span<const sim::PeerInfo> candidates,
                                       int m, std::mt19937_64& rng);

 private:
  P4PSelectorConfig config_;
  std::map<std::int32_t, const ITracker*> trackers_;
  /// Always empty: no test compares matching weights against the span
  /// path, but the verbatim body reads the map.
  std::map<std::int32_t, std::vector<std::vector<double>>> matching_weights_;
};

}  // namespace p4p::core::reference
