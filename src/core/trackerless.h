// Trackerless operation — "in trackerless P2P that does not have central
// appTrackers but depends on mechanisms such as DHT, peers obtain the
// necessary information directly from iTrackers ... peers can also help the
// information distribution (e.g., via gossips)" (Section 3).
//
// DistanceCache is the peer-side store of p-distance rows, versioned per
// origin PID so gossip merges keep only the freshest data and stale entries
// expire. TrackerlessSelector makes local peer-selection decisions from a
// cache — the peer-side analogue of the appTracker's weighted selection.
#pragma once

#include <optional>
#include <unordered_map>

#include "core/pid.h"
#include "sim/bittorrent.h"

namespace p4p::core {

/// One cached row of the external view: distances from `origin` to every
/// PID, stamped with the iTracker's version and the local time it was
/// learned.
struct CachedRow {
  Pid origin = kInvalidPid;
  std::uint64_t version = 0;
  double learned_at = 0.0;
  std::vector<double> distances;
};

class DistanceCache {
 public:
  /// Rows older than `ttl` seconds are treated as absent. ttl <= 0 throws.
  explicit DistanceCache(double ttl_seconds = 300.0);

  /// Learns a row (from the iTracker directly or from a gossiping peer).
  /// Keeps the entry with the highest version; ties keep the newer
  /// learned_at. Returns true if the cache changed.
  bool Learn(CachedRow row);

  /// The freshest unexpired row for `origin` at local time `now`.
  std::optional<CachedRow> Get(Pid origin, double now) const;

  /// Gossip: merge every unexpired row of `other` into this cache.
  /// Returns the number of rows adopted.
  int MergeFrom(const DistanceCache& other, double now);

  /// Drops expired rows; returns how many were dropped.
  int Expire(double now);

  std::size_t size() const { return rows_.size(); }

 private:
  double ttl_;
  std::unordered_map<Pid, CachedRow> rows_;
};

/// Peer-side selection from a (shared or per-peer) DistanceCache: weighted
/// by 1/p like the appTracker's inter-PID stage, falling back to uniform
/// random when the client's row is missing or expired — "if iTrackers are
/// down, P2P applications can still make default application decisions".
class TrackerlessSelector final : public sim::PeerSelector {
 public:
  /// `cache` must outlive the selector; `now` is polled per selection so
  /// simulations can drive time.
  TrackerlessSelector(const DistanceCache& cache, std::function<double()> now,
                      double concave_gamma = 0.5);

  /// Weighs the members in bucket/slot order.
  std::vector<sim::PeerId> SelectFromBuckets(const sim::PeerInfo& client,
                                             const sim::PeerBuckets& swarm,
                                             int m, std::mt19937_64& rng) override;
  std::string name() const override { return "Trackerless"; }

 private:
  const DistanceCache& cache_;
  std::function<double()> now_;
  double gamma_;
};

}  // namespace p4p::core
