#include "sim/streaming.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "sim/maxmin_incremental.h"
#include "sim/peer_buckets.h"

namespace p4p::sim {

namespace {

struct SPeer {
  PeerSpec spec;
  bool source = false;
  std::unordered_set<int> have;     // blocks held (window-bounded)
  std::unordered_set<int> pending;  // blocks being fetched
  std::vector<PeerId> neighbors;
  std::vector<PeerId> unchoked;
  int active_downloads = 0;
  double bytes_received = 0.0;
  int blocks_received = 0;
  int blocks_due = 0;
};

struct SStream {
  PeerId up = -1, down = -1;
  int block = -1;
  double remaining = 0.0;
  std::vector<int> route;
  int backbone_hops = 0;
  int flow_slot = -1;  // slot in the max-min store
};

std::uint64_t PairKey(PeerId a, PeerId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

}  // namespace

double StreamingResult::mean_throughput_bps() const {
  return peer_throughput_bps.empty() ? 0.0 : Mean(peer_throughput_bps);
}

double StreamingResult::mean_continuity() const {
  return peer_continuity.empty() ? 0.0 : Mean(peer_continuity);
}

double StreamingResult::mean_backbone_volume_bytes(const net::Graph& graph) const {
  double total = 0.0;
  int n = 0;
  for (std::size_t l = 0; l < link_bytes.size(); ++l) {
    if (graph.link(static_cast<net::LinkId>(l)).type != net::LinkType::kBackbone) continue;
    total += link_bytes[l];
    ++n;
  }
  return n > 0 ? total / n : 0.0;
}

StreamingSimulator::StreamingSimulator(const net::Graph& graph,
                                       const net::RoutingTable& routing,
                                       StreamingConfig config)
    : graph_(graph), routing_(routing), config_(config) {
  if (config_.stream_rate_bps <= 0 || config_.block_bytes <= 0 || config_.dt <= 0) {
    throw std::invalid_argument("StreamingSimulator: bad config");
  }
}

StreamingResult StreamingSimulator::Run(std::span<const PeerSpec> peer_specs,
                                        PeerSelector& selector) {
  const auto num_graph_links = graph_.link_count();
  const auto num_peers = peer_specs.size();
  std::mt19937_64 rng(config_.rng_seed);

  std::vector<SPeer> peers(num_peers);
  int source_count = 0;
  for (std::size_t i = 0; i < num_peers; ++i) {
    peers[i].spec = peer_specs[i];
    peers[i].source = peer_specs[i].seed;
    if (peers[i].source) ++source_count;
  }
  if (source_count != 1) {
    throw std::invalid_argument("StreamingSimulator: exactly one source required");
  }

  const double block_duration = config_.block_bytes * 8.0 / config_.stream_rate_bps;
  const int window_blocks =
      std::max(1, static_cast<int>(config_.window_sec / block_duration));

  auto uplink_of = [num_graph_links](PeerId p) {
    return static_cast<int>(num_graph_links + 2 * static_cast<std::size_t>(p));
  };
  auto downlink_of = [num_graph_links](PeerId p) {
    return static_cast<int>(num_graph_links + 2 * static_cast<std::size_t>(p) + 1);
  };
  std::vector<double> capacities(num_graph_links + 2 * num_peers, 0.0);
  for (std::size_t l = 0; l < num_graph_links; ++l) {
    capacities[l] = graph_.link(static_cast<net::LinkId>(l)).capacity_bps;
  }
  for (std::size_t p = 0; p < num_peers; ++p) {
    capacities[static_cast<std::size_t>(uplink_of(static_cast<PeerId>(p)))] =
        peers[p].spec.up_bps;
    capacities[static_cast<std::size_t>(downlink_of(static_cast<PeerId>(p)))] =
        peers[p].spec.down_bps;
  }

  // Static neighborhoods: everyone joins up front in the Figure 9 setup, so
  // one store of every peer serves each peer's selection.
  PeerBuckets swarm;
  for (std::size_t i = 0; i < num_peers; ++i) {
    swarm.Insert(PeerInfo{static_cast<PeerId>(i), peers[i].spec.node,
                          peers[i].spec.as_number, peers[i].spec.up_bps,
                          peers[i].spec.down_bps, peers[i].source});
  }
  for (std::size_t i = 0; i < num_peers; ++i) {
    const PeerInfo& self = *swarm.Find(static_cast<PeerId>(i));
    auto chosen = selector.SelectFromBuckets(self, swarm, config_.max_neighbors, rng);
    for (PeerId q : chosen) {
      if (q == static_cast<PeerId>(i)) continue;
      auto& ni = peers[i].neighbors;
      auto& nq = peers[static_cast<std::size_t>(q)].neighbors;
      if (std::find(ni.begin(), ni.end(), q) != ni.end()) continue;
      if (static_cast<int>(nq.size()) >= 2 * config_.max_neighbors) continue;
      ni.push_back(q);
      nq.push_back(static_cast<PeerId>(i));
    }
  }

  std::unordered_map<std::uint64_t, SStream> streams;
  StreamingResult result;
  result.link_bytes.assign(num_graph_links, 0.0);

  auto route_of = [&](PeerId up, PeerId down) {
    std::vector<int> route;
    int hops = 0;
    const net::NodeId a = peers[static_cast<std::size_t>(up)].spec.node;
    const net::NodeId b = peers[static_cast<std::size_t>(down)].spec.node;
    const auto backbone = a == b ? std::span<const net::LinkId>{} : routing_.path_view(a, b);
    if (a != b && backbone.empty()) {
      throw std::runtime_error("StreamingSimulator: peer PoPs not connected");
    }
    route.reserve(backbone.size() + 2);
    route.push_back(uplink_of(up));
    for (net::LinkId e : backbone) {
      route.push_back(static_cast<int>(e));
      ++hops;
    }
    route.push_back(downlink_of(down));
    return std::make_pair(route, hops);
  };

  // Earliest-deadline-first within the window.
  auto pick_block = [&](const SPeer& u, const SPeer& d, int oldest, int newest) {
    for (int b = oldest; b <= newest; ++b) {
      if (u.have.count(b) != 0 && d.have.count(b) == 0 && d.pending.count(b) == 0) {
        return b;
      }
    }
    return -1;
  };

  double last_rechoke = -1e18;
  double now = 0.0;
  int prev_newest = -1;
  // A stream holds one flow in the store from open to close.
  IncrementalMaxMin alloc(capacities);
  while (now < config_.duration) {
    const int newest = static_cast<int>(now / block_duration);
    const int oldest = std::max(0, newest - window_blocks + 1);

    // Source acquires freshly produced blocks; all peers retire expired ones.
    auto& src = *std::find_if(peers.begin(), peers.end(),
                              [](const SPeer& p) { return p.source; });
    for (int b = std::max(0, prev_newest + 1); b <= newest; ++b) src.have.insert(b);
    if (newest != prev_newest) {
      for (auto& p : peers) {
        std::erase_if(p.have, [oldest](int b) { return b < oldest; });
        if (!p.source) {
          // Blocks that expired unreceived count against continuity.
          p.blocks_due = newest - std::max(0, oldest - 1);
        }
      }
    }
    prev_newest = newest;

    if (now - last_rechoke >= config_.rechoke_interval) {
      last_rechoke = now;
      for (std::size_t i = 0; i < num_peers; ++i) {
        auto& p = peers[i];
        p.unchoked.clear();
        std::vector<PeerId> interested;
        for (PeerId q : p.neighbors) {
          const auto& qs = peers[static_cast<std::size_t>(q)];
          if (qs.source) continue;
          // q is interested if p holds an in-window block q lacks.
          bool wants = false;
          for (int b : p.have) {
            if (b >= oldest && qs.have.count(b) == 0) {
              wants = true;
              break;
            }
          }
          if (wants) interested.push_back(q);
        }
        std::shuffle(interested.begin(), interested.end(), rng);
        const auto take = std::min<std::size_t>(
            interested.size(), static_cast<std::size_t>(config_.unchoke_slots));
        p.unchoked.assign(interested.begin(),
                          interested.begin() + static_cast<std::ptrdiff_t>(take));
      }
    }

    // Open streams.
    for (std::size_t i = 0; i < num_peers; ++i) {
      auto& u = peers[i];
      for (PeerId dn : u.unchoked) {
        auto& d = peers[static_cast<std::size_t>(dn)];
        if (d.active_downloads >= config_.max_parallel_downloads) continue;
        if (streams.count(PairKey(static_cast<PeerId>(i), dn)) != 0) continue;
        const int block = pick_block(u, d, oldest, newest);
        if (block < 0) continue;
        SStream s;
        s.up = static_cast<PeerId>(i);
        s.down = dn;
        s.block = block;
        s.remaining = config_.block_bytes;
        auto [route, hops] = route_of(s.up, s.down);
        s.route = std::move(route);
        s.backbone_hops = hops;
        s.flow_slot = alloc.AddFlow(s.route);
        d.pending.insert(block);
        ++d.active_downloads;
        streams.emplace(PairKey(s.up, s.down), std::move(s));
      }
    }

    // Rates and advancement.
    const auto rates = alloc.Rates();
    std::vector<std::uint64_t> to_erase;
    for (auto& [key, s] : streams) {
      auto& u = peers[static_cast<std::size_t>(s.up)];
      auto& d = peers[static_cast<std::size_t>(s.down)];
      double budget = rates[static_cast<std::size_t>(s.flow_slot)] / 8.0 * config_.dt;
      while (budget > 0.0) {
        const double used = std::min(budget, s.remaining);
        if (used > 0.0) {
          budget -= used;
          s.remaining -= used;
          for (int l : s.route) {
            if (static_cast<std::size_t>(l) < num_graph_links) {
              result.link_bytes[static_cast<std::size_t>(l)] += used;
            }
          }
          result.total_bytes += used;
          result.byte_hops += used * s.backbone_hops;
          d.bytes_received += used;
        }
        if (s.remaining > 1e-6) break;
        d.pending.erase(s.block);
        // Expired blocks may complete after their window — they don't count.
        if (s.block >= oldest) {
          d.have.insert(s.block);
          ++d.blocks_received;
        }
        const int next_block = pick_block(u, d, oldest, newest);
        if (next_block < 0) {
          --d.active_downloads;
          to_erase.push_back(key);
          break;
        }
        s.block = next_block;
        s.remaining = config_.block_bytes;
        d.pending.insert(next_block);
      }
    }
    for (std::uint64_t key : to_erase) {
      const auto it = streams.find(key);
      alloc.RemoveFlow(it->second.flow_slot);
      streams.erase(it);
    }
    // Streams whose block fell out of the window are abandoned.
    for (auto it = streams.begin(); it != streams.end();) {
      if (it->second.block < oldest) {
        auto& d = peers[static_cast<std::size_t>(it->second.down)];
        d.pending.erase(it->second.block);
        --d.active_downloads;
        alloc.RemoveFlow(it->second.flow_slot);
        it = streams.erase(it);
      } else {
        ++it;
      }
    }

    now += config_.dt;
  }

  for (const auto& p : peers) {
    if (p.source) continue;
    result.peer_throughput_bps.push_back(p.bytes_received * 8.0 / config_.duration);
    result.peer_continuity.push_back(
        p.blocks_due > 0
            ? std::min(1.0, static_cast<double>(p.blocks_received) / p.blocks_due)
            : 1.0);
  }
  return result;
}

}  // namespace p4p::sim
