// The benchmark's own record of swarm membership, used to check every
// announce response: a peer set must hold at most `want` distinct current
// members of the announced swarm and never the announcing client.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "core/apptracker.h"

namespace perfbench {

/// Peer id -> (swarm, position in that swarm's member list). Open
/// addressing with backward-shift deletion: lookups stay a few nanoseconds,
/// so checking every response costs little next to the announce it checks.
class MemberIndex {
 public:
  struct Entry {
    p4p::sim::PeerId id = -1;
    std::uint32_t swarm = 0;
    std::uint32_t pos = 0;
  };

  explicit MemberIndex(std::size_t max_entries) {
    std::size_t cap = 16;
    while (cap < 2 * max_entries + 16) cap <<= 1;
    slots_.assign(cap, Entry{});
    mask_ = cap - 1;
  }

  Entry* Find(p4p::sim::PeerId id) {
    for (std::size_t i = Home(id);; i = (i + 1) & mask_) {
      if (slots_[i].id == id) return &slots_[i];
      if (slots_[i].id < 0) return nullptr;
    }
  }

  void Put(p4p::sim::PeerId id, std::uint32_t swarm, std::uint32_t pos) {
    std::size_t i = Home(id);
    while (slots_[i].id >= 0 && slots_[i].id != id) i = (i + 1) & mask_;
    slots_[i] = Entry{id, swarm, pos};
  }

  void Erase(p4p::sim::PeerId id) {
    std::size_t i = Home(id);
    while (slots_[i].id != id) {
      if (slots_[i].id < 0) return;
      i = (i + 1) & mask_;
    }
    for (std::size_t j = (i + 1) & mask_; slots_[j].id >= 0; j = (j + 1) & mask_) {
      const std::size_t home = Home(slots_[j].id);
      // Slot j may move into the hole at i unless its home lies cyclically
      // in (i, j].
      const bool stays = i <= j ? (home > i && home <= j) : (home > i || home <= j);
      if (!stays) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].id = -1;
  }

 private:
  std::size_t Home(p4p::sim::PeerId id) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL >>
                                    17) &
           mask_;
  }

  std::vector<Entry> slots_;
  std::size_t mask_ = 0;
};

/// Membership of the swarms one generator owns (no other thread mutates
/// them), with Zipf popularity: a swarm is picked with probability
/// proportional to its filled size.
class SwarmLog {
 public:
  explicit SwarmLog(std::size_t max_members) : index_(max_members + 16) {}

  /// Registers a swarm; returns its local index.
  std::uint32_t AddSwarm(std::uint32_t global_id, int filled_size) {
    swarms_.push_back(global_id);
    popularity_cum_.push_back((popularity_cum_.empty() ? 0.0 : popularity_cum_.back()) +
                              filled_size);
    members_.emplace_back().reserve(static_cast<std::size_t>(filled_size) + 1);
    return static_cast<std::uint32_t>(swarms_.size() - 1);
  }

  std::uint32_t global_id(std::uint32_t local) const { return swarms_[local]; }
  std::size_t size(std::uint32_t local) const { return members_[local].size(); }

  std::uint32_t PickSwarm(std::mt19937_64& rng) const {
    std::uniform_real_distribution<double> u(0.0, popularity_cum_.back());
    const auto it = std::upper_bound(popularity_cum_.begin(), popularity_cum_.end(), u(rng));
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(static_cast<std::size_t>(it - popularity_cum_.begin()),
                              swarms_.size() - 1));
  }

  void Join(std::uint32_t local, p4p::sim::PeerId id) {
    auto& list = members_[local];
    index_.Put(id, local, static_cast<std::uint32_t>(list.size()));
    list.push_back(id);
  }

  /// True when `resp` is a valid answer to an announce into `local` made
  /// before the client joined the log.
  bool CheckResponse(std::uint32_t local, const p4p::core::AnnounceResponse& resp, int want) {
    const std::size_t n = resp.peers.size();
    if (n > static_cast<std::size_t>(want) || n > seen_.size()) return false;
    for (std::size_t k = 0; k < n; ++k) {
      const auto p = resp.peers[k];
      const auto* e = index_.Find(p);
      if (p == resp.assigned_id || e == nullptr || e->swarm != local) return false;
      seen_[k] = p;
    }
    const auto end = seen_.begin() + static_cast<std::ptrdiff_t>(n);
    std::sort(seen_.begin(), end);
    return std::adjacent_find(seen_.begin(), end) == end;
  }

  /// Removes and returns a random member other than the newest one.
  p4p::sim::PeerId TakeEarlierMember(std::uint32_t local, std::mt19937_64& rng) {
    auto& list = members_[local];
    const std::size_t pos = rng() % (list.size() - 1);
    const auto victim = list[pos];
    list[pos] = list.back();
    list.pop_back();
    index_.Find(list[pos])->pos = static_cast<std::uint32_t>(pos);
    index_.Erase(victim);
    return victim;
  }

 private:
  std::vector<std::uint32_t> swarms_;
  std::vector<double> popularity_cum_;
  std::vector<std::vector<p4p::sim::PeerId>> members_;
  MemberIndex index_;
  std::array<p4p::sim::PeerId, 64> seen_{};
};

}  // namespace perfbench
