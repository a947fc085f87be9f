// Bucketed swarm membership store: the announce-plane data structure.
//
// A swarm's peers are grouped into per-(AS, PID) buckets, with a global
// id -> (bucket, slot) index. This gives the three operations the announce
// plane is hot on:
//
//   * Insert   — O(1) amortized: hash the (AS, PID) key, append to the
//                bucket's slab.
//   * Erase    — O(1): look up the slot index, swap-and-pop inside the
//                bucket, fix up the displaced peer's slot.
//   * Select   — the three-stage P4P selection walks buckets (one entry per
//                occupied (AS, PID) pair) instead of scanning or copying the
//                whole swarm; AsGroup() hands a selector every bucket of one
//                AS without touching the rest.
//
// Buckets persist once created (a swarm member from that (AS, PID) existed);
// empty buckets are skipped by selectors and the bucket count is bounded by
// the number of distinct (AS, PID) pairs ever seen, not by peers. Swarm
// lifetime (drop-when-empty) is the owner's concern — see AppTracker.
//
// The structure is deliberately idiomatic to DHT routing tables (peers
// bucketed by a locality key, constant-time eviction by index), applied to
// the appTracker's PID space.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/bittorrent.h"

namespace p4p::sim {

class PeerBuckets {
 public:
  /// Peers of one (AS, PID) pair, stored densely for O(1) swap-and-pop.
  struct Bucket {
    std::int32_t as_number = 0;
    net::NodeId pid = net::kInvalidNode;
    std::vector<PeerInfo> peers;
  };

  /// Location of a peer: bucket id + index inside the bucket's peer slab.
  struct Slot {
    std::uint32_t bucket = 0;
    std::uint32_t index = 0;
  };

  static constexpr std::uint32_t npos = 0xffffffffu;

  /// Adds a peer to its (AS, PID) bucket. Peer ids are unique within a
  /// swarm; inserting a duplicate id throws std::invalid_argument.
  void Insert(const PeerInfo& peer);

  /// Removes a peer by id via swap-and-pop. Returns false if absent.
  bool Erase(PeerId id);

  /// The peer's current location, or nullopt when not a member.
  std::optional<Slot> SlotOf(PeerId id) const;
  const PeerInfo* Find(PeerId id) const;
  bool Contains(PeerId id) const { return slots_.count(id) != 0; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Dense bucket array; ids returned by BucketOf/AsGroup index into it.
  /// May contain empty buckets (all members departed).
  const std::vector<Bucket>& buckets() const { return buckets_; }

  /// Bucket id for (as, pid), or npos if no member from there ever joined.
  std::uint32_t BucketOf(std::int32_t as_number, net::NodeId pid) const;

  /// Ids of every bucket belonging to `as_number` (possibly empty buckets).
  std::span<const std::uint32_t> AsGroup(std::int32_t as_number) const;

 private:
  static std::uint64_t Key(std::int32_t as_number, net::NodeId pid) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(as_number)) << 32) |
           static_cast<std::uint32_t>(pid);
  }

  std::vector<Bucket> buckets_;
  std::unordered_map<std::uint64_t, std::uint32_t> bucket_index_;  // key -> bucket id
  std::unordered_map<PeerId, Slot> slots_;                         // id -> location
  std::unordered_map<std::int32_t, std::vector<std::uint32_t>> as_groups_;
  std::size_t size_ = 0;
};

}  // namespace p4p::sim
