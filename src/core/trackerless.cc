#include "core/trackerless.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sim/peer_buckets.h"

namespace p4p::core {

DistanceCache::DistanceCache(double ttl_seconds) : ttl_(ttl_seconds) {
  if (!(ttl_seconds > 0)) {
    throw std::invalid_argument("DistanceCache: ttl must be positive");
  }
}

bool DistanceCache::Learn(CachedRow row) {
  if (row.origin < 0) {
    throw std::invalid_argument("DistanceCache: invalid origin PID");
  }
  auto it = rows_.find(row.origin);
  if (it == rows_.end()) {
    rows_.emplace(row.origin, std::move(row));
    return true;
  }
  if (row.version > it->second.version ||
      (row.version == it->second.version && row.learned_at > it->second.learned_at)) {
    it->second = std::move(row);
    return true;
  }
  return false;
}

std::optional<CachedRow> DistanceCache::Get(Pid origin, double now) const {
  const auto it = rows_.find(origin);
  if (it == rows_.end()) return std::nullopt;
  if (now - it->second.learned_at > ttl_) return std::nullopt;
  return it->second;
}

int DistanceCache::MergeFrom(const DistanceCache& other, double now) {
  int adopted = 0;
  for (const auto& [origin, row] : other.rows_) {
    if (now - row.learned_at > other.ttl_) continue;
    if (Learn(row)) ++adopted;
  }
  return adopted;
}

int DistanceCache::Expire(double now) {
  int dropped = 0;
  for (auto it = rows_.begin(); it != rows_.end();) {
    if (now - it->second.learned_at > ttl_) {
      it = rows_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

TrackerlessSelector::TrackerlessSelector(const DistanceCache& cache,
                                         std::function<double()> now,
                                         double concave_gamma)
    : cache_(cache), now_(std::move(now)), gamma_(concave_gamma) {
  if (!now_) {
    throw std::invalid_argument("TrackerlessSelector: null clock");
  }
  if (!(gamma_ > 0) || gamma_ > 1) {
    throw std::invalid_argument("TrackerlessSelector: gamma must be in (0, 1]");
  }
}

std::vector<sim::PeerId> TrackerlessSelector::SelectFromBuckets(
    const sim::PeerInfo& client, const sim::PeerBuckets& swarm, int m,
    std::mt19937_64& rng) {
  const auto row = cache_.Get(client.node, now_());
  // Candidate PIDs inside the cached row; others weigh 1.
  const auto in_row = [&](net::NodeId node) {
    return row && node >= 0 && static_cast<std::size_t>(node) < row->distances.size();
  };
  // Weight each candidate by 1/p from the cached row; zero distances get a
  // weight relative to the smallest positive one. Without a fresh row every
  // weight is 1: the default decision (uniform random).
  double min_positive = std::numeric_limits<double>::infinity();
  for (const auto& bucket : swarm.buckets()) {
    if (!in_row(bucket.pid)) continue;
    const double p = row->distances[static_cast<std::size_t>(bucket.pid)];
    for (const auto& c : bucket.peers) {
      if (c.id != client.id && p > 0) min_positive = std::min(min_positive, p);
    }
  }
  const double zero_weight = std::isfinite(min_positive) ? 10.0 / min_positive : 1.0;
  std::vector<sim::PeerId> pool;
  std::vector<double> weights;
  pool.reserve(swarm.size());
  for (const auto& bucket : swarm.buckets()) {
    double w = 1.0;
    if (in_row(bucket.pid)) {
      const double p = row->distances[static_cast<std::size_t>(bucket.pid)];
      w = std::pow(p > 0 ? 1.0 / p : zero_weight, gamma_);
    }
    for (const auto& c : bucket.peers) {
      if (c.id == client.id) continue;
      pool.push_back(c.id);
      weights.push_back(w);
    }
  }

  std::vector<sim::PeerId> out;
  out.reserve(static_cast<std::size_t>(std::max(0, m)));
  while (static_cast<int>(out.size()) < m && !pool.empty()) {
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    if (total <= 0) break;
    std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
    const std::size_t k = pick(rng);
    out.push_back(pool[k]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(k));
    weights.erase(weights.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return out;
}

}  // namespace p4p::core
