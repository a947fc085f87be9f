#include "sim/peer_buckets.h"

#include <stdexcept>
#include <string>

namespace p4p::sim {

void PeerBuckets::Insert(const PeerInfo& peer) {
  if (slots_.count(peer.id) != 0) {
    throw std::invalid_argument("PeerBuckets: duplicate peer id " +
                                std::to_string(peer.id));
  }
  const std::uint64_t key = Key(peer.as_number, peer.node);
  auto [it, created] = bucket_index_.try_emplace(
      key, static_cast<std::uint32_t>(buckets_.size()));
  if (created) {
    Bucket bucket;
    bucket.as_number = peer.as_number;
    bucket.pid = peer.node;
    buckets_.push_back(std::move(bucket));
    as_groups_[peer.as_number].push_back(it->second);
  }
  Bucket& bucket = buckets_[it->second];
  slots_[peer.id] = Slot{it->second, static_cast<std::uint32_t>(bucket.peers.size())};
  bucket.peers.push_back(peer);
  ++size_;
}

bool PeerBuckets::Erase(PeerId id) {
  const auto it = slots_.find(id);
  if (it == slots_.end()) return false;
  const Slot slot = it->second;
  auto& peers = buckets_[slot.bucket].peers;
  const std::uint32_t last = static_cast<std::uint32_t>(peers.size()) - 1;
  if (slot.index != last) {
    peers[slot.index] = peers[last];
    slots_[peers[slot.index].id].index = slot.index;
  }
  peers.pop_back();
  slots_.erase(it);
  --size_;
  return true;
}

std::optional<PeerBuckets::Slot> PeerBuckets::SlotOf(PeerId id) const {
  const auto it = slots_.find(id);
  if (it == slots_.end()) return std::nullopt;
  return it->second;
}

const PeerInfo* PeerBuckets::Find(PeerId id) const {
  const auto it = slots_.find(id);
  if (it == slots_.end()) return nullptr;
  return &buckets_[it->second.bucket].peers[it->second.index];
}

std::uint32_t PeerBuckets::BucketOf(std::int32_t as_number, net::NodeId pid) const {
  const auto it = bucket_index_.find(Key(as_number, pid));
  return it == bucket_index_.end() ? npos : it->second;
}

std::span<const std::uint32_t> PeerBuckets::AsGroup(std::int32_t as_number) const {
  const auto it = as_groups_.find(as_number);
  if (it == as_groups_.end()) return {};
  return it->second;
}

}  // namespace p4p::sim
