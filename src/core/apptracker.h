// The appTracker: the application-side control-plane entity of P4P.
//
// Tracks swarm membership per content item, resolves client IPs to PIDs
// through the provider's PidMap, and answers announce requests with a peer
// set chosen by the configured selection policy. This is the facade used by
// the examples and by the wire-protocol service; the simulators drive the
// PeerSelector policies directly.
//
// Concurrency: swarm state is sharded by content-id hash — each shard owns
// its swarms, its RNG, and a mutex, so announces for different swarms land
// on different shards and proceed in parallel (peer-id allocation is a
// single atomic). Within a shard, swarms are PeerBuckets stores: per-(AS,
// PID) peer buckets with an id→slot index, so departures are O(1)
// swap-and-pop and the bucket-aware selectors sample from per-PID/per-AS
// indexes instead of scanning the swarm. The PidMap is resolved outside any
// lock (const lookups are thread-safe), and the shared selector must be
// safe for concurrent SelectFromBuckets calls — the shipped selectors are,
// via per-thread scratch workspaces. Configuration (EnableNativeFallback,
// selector registration) must complete before concurrent serving starts.
//
// Degraded mode: P4P is opt-in — "peer selection must never block on the
// portal". With EnableNativeFallback, every announce first probes whether
// the portal stack still has a usable view (typically
// CachingPortalClient::TryGetExternalView, which keeps serving a stale view
// within its budget); when it does not, selection falls back to the paper's native/random
// baseline and recovers to guided selection automatically on the next
// successful refresh. Transitions are counted (atomically — exactly one
// count per flip even under concurrent announces) for tests and benches.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>

#include "core/pidmap.h"
#include "core/selectors.h"
#include "sim/peer_buckets.h"

namespace p4p::core {

struct AnnounceRequest {
  std::string content_id;
  std::string client_ip;  ///< dotted quad; resolved via the PidMap
  double up_bps = 0.0;
  double down_bps = 0.0;
  bool seed = false;
  /// Number of peers the client wants.
  int want = 20;
};

struct AnnounceResponse {
  sim::PeerId assigned_id = -1;
  Pid pid = kInvalidPid;
  std::int32_t as_number = 0;
  std::vector<sim::PeerId> peers;
};

class AppTracker {
 public:
  /// `pid_map` maps client IPs to (PID, AS); both it and the selector are
  /// required. The selector is shared across swarms (and shards — it must
  /// tolerate concurrent calls when announces are concurrent).
  /// `shard_count` fixes the number of swarm shards (clamped to >= 1).
  AppTracker(std::unique_ptr<sim::PeerSelector> selector, PidMap pid_map,
             std::uint64_t rng_seed = 1, std::size_t shard_count = 16);

  /// Registers the client in the content's swarm and returns its assigned
  /// peer id plus a peer set. Throws std::invalid_argument if the client IP
  /// does not resolve to a PID. Safe to call concurrently.
  AnnounceResponse Announce(const AnnounceRequest& request);

  /// Removes a peer from a swarm in O(1) via the id→slot index (no-op if
  /// absent). Returns whether the peer was a member. Safe to call
  /// concurrently.
  bool Depart(const std::string& content_id, sim::PeerId peer);

  /// Returns whether the portal view behind the configured selector is
  /// currently usable; polled once per announce.
  using ViewProbe = std::function<bool()>;

  /// Arms degraded mode: announces served while `probe` reports no usable
  /// view use native/random selection instead of the configured selector.
  /// Must be called before concurrent serving starts. Throws
  /// std::invalid_argument for a null probe.
  void EnableNativeFallback(ViewProbe probe);

  /// Currently in native-fallback (degraded) mode.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  /// Announces served by the native fallback selector.
  std::size_t degraded_announce_count() const {
    return degraded_announces_.load(std::memory_order_acquire);
  }
  /// Guided -> native transitions (portal became unusable).
  std::size_t fallback_transition_count() const {
    return fallback_transitions_.load(std::memory_order_acquire);
  }
  /// Native -> guided transitions (portal recovered).
  std::size_t recovery_transition_count() const {
    return recovery_transitions_.load(std::memory_order_acquire);
  }

  std::size_t swarm_size(const std::string& content_id) const;
  std::size_t swarm_count() const;
  std::size_t shard_count() const { return shards_.size(); }

  sim::PeerSelector& selector() { return *selector_; }

 private:
  // Each shard owns an independent slice of the swarm key space. Padded to
  // a cache line so shard mutexes don't false-share.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, sim::PeerBuckets> swarms;
    std::mt19937_64 rng;
  };

  Shard& shard_for(const std::string& content_id) {
    return shards_[std::hash<std::string>{}(content_id) % shards_.size()];
  }
  const Shard& shard_for(const std::string& content_id) const {
    return shards_[std::hash<std::string>{}(content_id) % shards_.size()];
  }

  std::unique_ptr<sim::PeerSelector> selector_;
  PidMap pid_map_;
  std::vector<Shard> shards_;
  std::atomic<sim::PeerId> next_id_{0};
  ViewProbe view_probe_;
  NativeRandomSelector native_fallback_;
  std::atomic<bool> degraded_{false};
  std::atomic<std::size_t> degraded_announces_{0};
  std::atomic<std::size_t> fallback_transitions_{0};
  std::atomic<std::size_t> recovery_transitions_{0};
};

}  // namespace p4p::core
