#include "sim/bittorrent.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "sim/maxmin_incremental.h"
#include "sim/peer_buckets.h"

namespace p4p::sim {

std::vector<PeerId> PeerSelector::SelectPeers(const PeerInfo& client,
                                              std::span<const PeerInfo> candidates,
                                              int m, std::mt19937_64& rng) {
  PeerBuckets swarm;
  for (const auto& c : candidates) swarm.Insert(c);
  return SelectFromBuckets(client, swarm, m, rng);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t NodePairKey(net::NodeId a, net::NodeId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

/// Cached PoP-pair route: graph links of the path, backbone hop count, and
/// the TCP-window rate cap for the path (inf when the window model is off).
struct RouteInfo {
  std::vector<int> links;
  int hops = 0;
  double rate_cap = kInf;
};

/// Struct-of-arrays swarm engine.
///
/// Peer state lives in flat parallel arrays (flags, counters, block bitsets
/// as one word slab), neighbors in fixed-capacity slabs with a parallel
/// tit-for-tat receive window, and streams in a pooled array threaded onto
/// per-peer intrusive uploader/downloader lists. Flows are registered once
/// per stream with the IncrementalMaxMin allocator and live across every
/// block the stream transfers, so steps between rechoke/topology events pull
/// rates in O(1). Rarest-first picks come from an availability-bucketed
/// block index instead of a full O(num_blocks) min-scan, and tracker
/// selection runs against a PeerBuckets store maintained incrementally on
/// join/depart/completion (no per-join candidate rebuild). Stream opening
/// is event-driven: each step visits only the uploaders marked since their
/// last visit (see MarkUploader).
class Engine {
 public:
  Engine(const net::Graph& graph, const net::RoutingTable& routing,
         const BitTorrentConfig& cfg,
         const BitTorrentSimulator::BackgroundFn& background,
         const BitTorrentSimulator::EpochFn& on_epoch,
         std::span<const PeerSpec> specs, PeerSelector& selector)
      : graph_(graph),
        routing_(routing),
        cfg_(cfg),
        background_(background),
        on_epoch_(on_epoch),
        specs_(specs),
        selector_(selector),
        num_blocks_(static_cast<int>(std::ceil(cfg.file_bytes / cfg.block_bytes))),
        num_graph_links_(graph.link_count()),
        num_peers_(specs.size()),
        wpp_(static_cast<std::size_t>((num_blocks_ + 63) / 64)),
        rng_(cfg.rng_seed),
        alloc_(MakeCapacities(graph, specs)),
        interval_rec_(num_graph_links_, cfg.charging_interval_sec),
        sample_(cfg.maxmin_full_sample_every > 0 ? MakeCapacities(graph, specs)
                                                 : std::vector<double>{}) {
    joined_.assign(num_peers_, 0);
    departed_.assign(num_peers_, 0);
    completed_.assign(num_peers_, 0);
    completion_time_.assign(num_peers_, -1.0);
    have_count_.assign(num_peers_, 0);
    active_downloads_.assign(num_peers_, 0);
    have_words_.assign(num_peers_ * wpp_, 0);
    pending_words_.assign(num_peers_ * wpp_, 0);

    nb_cap_ = std::max(1, 2 * cfg_.max_neighbors);
    nb_.assign(num_peers_ * static_cast<std::size_t>(nb_cap_), -1);
    recv_win_.assign(num_peers_ * static_cast<std::size_t>(nb_cap_), 0.0);
    nb_count_.assign(num_peers_, 0);

    un_cap_ = std::max(1, cfg_.unchoke_slots + cfg_.optimistic_slots);
    unchoked_.assign(num_peers_ * static_cast<std::size_t>(un_cap_), -1);
    un_count_.assign(num_peers_, 0);
    unchoked_by_off_.assign(num_peers_ + 1, 0);
    open_marks_.assign((num_peers_ + 63) / 64, 0);

    in_head_.assign(num_peers_, -1);
    out_head_.assign(num_peers_, -1);

    block_avail_.assign(static_cast<std::size_t>(num_blocks_), 0);
    block_pos_.resize(static_cast<std::size_t>(num_blocks_));
    avail_buckets_.resize(1);
    avail_buckets_[0].resize(static_cast<std::size_t>(num_blocks_));
    for (int b = 0; b < num_blocks_; ++b) {
      avail_buckets_[0][static_cast<std::size_t>(b)] = b;
      block_pos_[static_cast<std::size_t>(b)] = b;
    }

    step_bytes_.assign(num_graph_links_, 0.0);
    epoch_bytes_.assign(num_graph_links_, 0.0);
    sample_bytes_.assign(num_graph_links_, 0.0);

    result_.link_bytes.assign(num_graph_links_, 0.0);
    result_.pop_traffic.assign(graph_.node_count(),
                               std::vector<double>(graph_.node_count(), 0.0));
    result_.link_utilization.assign(num_graph_links_, {});
  }

  BitTorrentResult Run();

 private:
  struct StreamRec {
    PeerId up = -1;  // -1 marks a free pool slot
    PeerId down = -1;
    int block = -1;
    double remaining = 0.0;
    int flow_slot = -1;          // slot in the incremental allocator
    const RouteInfo* route = nullptr;
    int down_slot = -1;          // index of `up` in down's neighbor slab
    int in_next = -1, in_prev = -1;    // downloader's stream list
    int out_next = -1, out_prev = -1;  // uploader's stream list
  };

  static std::vector<double> MakeCapacities(const net::Graph& graph,
                                            std::span<const PeerSpec> specs) {
    std::vector<double> caps(graph.link_count() + 2 * specs.size(), 0.0);
    for (std::size_t l = 0; l < graph.link_count(); ++l) {
      caps[l] = graph.link(static_cast<net::LinkId>(l)).capacity_bps;
    }
    for (std::size_t p = 0; p < specs.size(); ++p) {
      caps[graph.link_count() + 2 * p] = specs[p].up_bps;
      caps[graph.link_count() + 2 * p + 1] = specs[p].down_bps;
    }
    return caps;
  }

  int UplinkOf(PeerId p) const {
    return static_cast<int>(num_graph_links_ + 2 * static_cast<std::size_t>(p));
  }
  int DownlinkOf(PeerId p) const {
    return static_cast<int>(num_graph_links_ + 2 * static_cast<std::size_t>(p) + 1);
  }

  bool IsActive(PeerId p) const {
    const auto pu = static_cast<std::size_t>(p);
    return joined_[pu] != 0 && departed_[pu] == 0;
  }

  PeerInfo InfoOf(PeerId p) const {
    const auto pu = static_cast<std::size_t>(p);
    return PeerInfo{p, specs_[pu].node, specs_[pu].as_number, specs_[pu].up_bps,
                    specs_[pu].down_bps, specs_[pu].seed || completed_[pu] != 0};
  }

  // --- block bitset helpers (flat word slabs) ---
  const std::uint64_t* HaveWords(PeerId p) const {
    return have_words_.data() + static_cast<std::size_t>(p) * wpp_;
  }
  bool HaveTest(PeerId p, int b) const {
    return (HaveWords(p)[static_cast<std::size_t>(b >> 6)] >> (b & 63)) & 1ULL;
  }
  void HaveSet(PeerId p, int b) {
    have_words_[static_cast<std::size_t>(p) * wpp_ + static_cast<std::size_t>(b >> 6)] |=
        1ULL << (b & 63);
    MarkUploader(p);  // the new block may be what an unchoked peer lacks
  }
  void HaveSetAll(PeerId p) {
    auto* w = have_words_.data() + static_cast<std::size_t>(p) * wpp_;
    for (std::size_t i = 0; i < wpp_; ++i) w[i] = ~0ULL;
    const int tail = num_blocks_ & 63;
    if (tail != 0) w[wpp_ - 1] = (1ULL << tail) - 1;
  }
  const std::uint64_t* PendingWords(PeerId p) const {
    return pending_words_.data() + static_cast<std::size_t>(p) * wpp_;
  }
  void PendingSet(PeerId p, int b) {
    pending_words_[static_cast<std::size_t>(p) * wpp_ + static_cast<std::size_t>(b >> 6)] |=
        1ULL << (b & 63);
  }
  void PendingReset(PeerId p, int b) {
    pending_words_[static_cast<std::size_t>(p) * wpp_ + static_cast<std::size_t>(b >> 6)] &=
        ~(1ULL << (b & 63));
  }
  /// True if `p` holds a block that `q` lacks.
  bool HasAnyMissingIn(PeerId p, PeerId q) const {
    const auto* hp = HaveWords(p);
    const auto* hq = HaveWords(q);
    for (std::size_t w = 0; w < wpp_; ++w) {
      if (hp[w] & ~hq[w]) return true;
    }
    return false;
  }

  // --- availability-bucketed rarest-first index ---
  void BucketRemove(int b, int a) {
    auto& bk = avail_buckets_[static_cast<std::size_t>(a)];
    const int p = block_pos_[static_cast<std::size_t>(b)];
    const int moved = bk.back();
    bk[static_cast<std::size_t>(p)] = moved;
    bk.pop_back();
    block_pos_[static_cast<std::size_t>(moved)] = p;
  }
  void AvailInc(int b) {
    const int a = block_avail_[static_cast<std::size_t>(b)];
    BucketRemove(b, a);
    block_avail_[static_cast<std::size_t>(b)] = a + 1;
    if (static_cast<int>(avail_buckets_.size()) <= a + 1) {
      avail_buckets_.resize(static_cast<std::size_t>(a) + 2);
    }
    auto& bk = avail_buckets_[static_cast<std::size_t>(a) + 1];
    block_pos_[static_cast<std::size_t>(b)] = static_cast<int>(bk.size());
    bk.push_back(b);
  }
  void AvailDec(int b) {
    const int a = block_avail_[static_cast<std::size_t>(b)];
    BucketRemove(b, a);
    block_avail_[static_cast<std::size_t>(b)] = a - 1;
    auto& bk = avail_buckets_[static_cast<std::size_t>(a) - 1];
    block_pos_[static_cast<std::size_t>(b)] = static_cast<int>(bk.size());
    bk.push_back(b);
    if (a - 1 < min_avail_) min_avail_ = a - 1;
  }

  /// Rarest-first pick: rarest block `up` has that `down` lacks and is not
  /// already fetching, uniform among ties — the same distribution as a full
  /// min-availability scan, found by walking the avail buckets upward and
  /// stopping at the first bucket holding an eligible block.
  int PickBlock(PeerId up, PeerId down) {
    const auto* hu = HaveWords(up);
    const auto* hd = HaveWords(down);
    const auto* pd = PendingWords(down);
    bool any = false;
    for (std::size_t w = 0; w < wpp_; ++w) {
      if (hu[w] & ~hd[w] & ~pd[w]) {
        any = true;
        break;
      }
    }
    if (!any) return -1;
    while (min_avail_ < static_cast<int>(avail_buckets_.size()) &&
           avail_buckets_[static_cast<std::size_t>(min_avail_)].empty()) {
      ++min_avail_;
    }
    for (int a = min_avail_; a < static_cast<int>(avail_buckets_.size()); ++a) {
      int best = -1;
      int ties = 0;
      for (int b : avail_buckets_[static_cast<std::size_t>(a)]) {
        const auto w = static_cast<std::size_t>(b >> 6);
        if (((hu[w] & ~hd[w] & ~pd[w]) >> (b & 63)) & 1ULL) {
          ++ties;
          if (ties == 1) {
            best = b;
          } else {
            std::uniform_int_distribution<int> coin(1, ties);
            if (coin(rng_) == 1) best = b;
          }
        }
      }
      if (best >= 0) return best;
    }
    return -1;  // unreachable: the word scan found an eligible block
  }

  // --- routes ---
  const RouteInfo& RouteBetween(net::NodeId a, net::NodeId b) {
    const std::uint64_t key = NodePairKey(a, b);
    auto it = route_cache_.find(key);
    if (it == route_cache_.end()) {
      RouteInfo info;
      if (a != b) {
        if (!routing_.reachable(a, b)) {
          throw std::runtime_error("BitTorrentSimulator: peer PoPs not connected");
        }
        for (net::LinkId e : routing_.path_view(a, b)) {
          info.links.push_back(static_cast<int>(e));
          ++info.hops;
        }
      }
      if (cfg_.tcp_window_bytes > 0) {
        const double one_way_ms =
            (a == b ? 0.0 : routing_.latency_ms(a, b)) + 2.0 * cfg_.access_latency_ms;
        const double rtt_sec = std::max(1e-4, 2.0 * one_way_ms / 1000.0);
        // Receive-window bound.
        info.rate_cap = cfg_.tcp_window_bytes * 8.0 / rtt_sec;
        // Loss bound (Mathis et al.): rate <= MSS / (RTT * sqrt(loss)).
        double path_loss = 0.0;
        for (int l : info.links) {
          path_loss += graph_.link(static_cast<net::LinkId>(l)).loss_rate;
        }
        if (path_loss > 0) {
          constexpr double kMssBits = 1460.0 * 8.0;
          info.rate_cap = std::min(
              info.rate_cap, kMssBits / (rtt_sec * std::sqrt(std::min(0.5, path_loss))));
        }
      }
      it = route_cache_.emplace(key, std::move(info)).first;
    }
    return it->second;
  }

  // --- neighbor slab ---
  int NeighborSlot(PeerId p, PeerId q) const {
    const auto base = static_cast<std::size_t>(p) * static_cast<std::size_t>(nb_cap_);
    for (int j = 0; j < nb_count_[static_cast<std::size_t>(p)]; ++j) {
      if (nb_[base + static_cast<std::size_t>(j)] == q) return j;
    }
    return -1;
  }

  /// Swap-and-pop removal. Any stream from the slot's occupant into `p`
  /// must already be cancelled; cached down_slot values for the displaced
  /// tail neighbor are fixed up through p's download list.
  void RemoveNeighborAt(PeerId p, int idx) {
    const auto pu = static_cast<std::size_t>(p);
    const auto base = pu * static_cast<std::size_t>(nb_cap_);
    const int last = nb_count_[pu] - 1;
    if (idx != last) {
      nb_[base + static_cast<std::size_t>(idx)] = nb_[base + static_cast<std::size_t>(last)];
      recv_win_[base + static_cast<std::size_t>(idx)] =
          recv_win_[base + static_cast<std::size_t>(last)];
      for (int si = in_head_[pu]; si != -1; si = streams_[static_cast<std::size_t>(si)].in_next) {
        if (streams_[static_cast<std::size_t>(si)].down_slot == last) {
          streams_[static_cast<std::size_t>(si)].down_slot = idx;
        }
      }
    }
    nb_[base + static_cast<std::size_t>(last)] = -1;
    nb_count_[pu] = last;
  }

  void AddEdge(PeerId a, PeerId b) {
    if (NeighborSlot(a, b) >= 0) return;
    const auto au = static_cast<std::size_t>(a);
    const auto bu = static_cast<std::size_t>(b);
    // Accept connections up to twice the target degree, as real clients do.
    if (nb_count_[au] >= nb_cap_ || nb_count_[bu] >= nb_cap_) return;
    const auto sa = au * static_cast<std::size_t>(nb_cap_) + static_cast<std::size_t>(nb_count_[au]);
    const auto sb = bu * static_cast<std::size_t>(nb_cap_) + static_cast<std::size_t>(nb_count_[bu]);
    nb_[sa] = b;
    recv_win_[sa] = 0.0;
    nb_[sb] = a;
    recv_win_[sb] = 0.0;
    ++nb_count_[au];
    ++nb_count_[bu];
  }

  // --- event-driven stream opening ---
  /// Queues `p` for the next open-streams pass. A failed StartStream has no
  /// side effects, and a failed pair (up, down) can only start succeeding
  /// after a rechoke, after `up` gains a block, or after a stream into
  /// `down` ends (freeing a download slot, a pending block or the pair
  /// itself). Those three events mark the uploaders they concern, so the
  /// pass that skips every unmarked uploader opens the same streams, in the
  /// same order and with the same draws, as one that tries every pair.
  void MarkUploader(PeerId p) {
    open_marks_[static_cast<std::size_t>(p) >> 6] |= 1ULL << (p & 63);
  }

  /// Rebuilds the reverse unchoke index (CSR over downloaders) and marks
  /// every uploader that unchoked someone.
  void IndexUnchokes() {
    const auto unchoked_of = [this](std::size_t i) {
      return std::span<const PeerId>(unchoked_).subspan(
          i * static_cast<std::size_t>(un_cap_), static_cast<std::size_t>(un_count_[i]));
    };
    std::fill(unchoked_by_off_.begin(), unchoked_by_off_.end(), 0);
    for (std::size_t i = 0; i < num_peers_; ++i) {
      if (un_count_[i] > 0) MarkUploader(static_cast<PeerId>(i));
      for (PeerId d : unchoked_of(i)) ++unchoked_by_off_[static_cast<std::size_t>(d)];
    }
    std::partial_sum(unchoked_by_off_.begin(), unchoked_by_off_.end(), unchoked_by_off_.begin());
    unchoked_by_.resize(static_cast<std::size_t>(unchoked_by_off_.back()));
    for (std::size_t i = num_peers_; i-- > 0;) {
      for (PeerId d : unchoked_of(i)) {
        const int at = --unchoked_by_off_[static_cast<std::size_t>(d)];
        unchoked_by_[static_cast<std::size_t>(at)] = static_cast<PeerId>(i);
      }
    }
  }

  // --- stream pool ---
  int FindStream(PeerId up, PeerId down) const {
    for (int si = in_head_[static_cast<std::size_t>(down)]; si != -1;
         si = streams_[static_cast<std::size_t>(si)].in_next) {
      if (streams_[static_cast<std::size_t>(si)].up == up) return si;
    }
    return -1;
  }

  /// Unlinks + frees the pool slot, unregisters the flow and marks every
  /// uploader of the downloader. Pending/active bookkeeping is the caller's
  /// (already settled on block completion).
  void ReleaseStream(int si) {
    StreamRec& s = streams_[static_cast<std::size_t>(si)];
    const auto du = static_cast<std::size_t>(s.down);
    const auto uu = static_cast<std::size_t>(s.up);
    if (s.in_prev >= 0) {
      streams_[static_cast<std::size_t>(s.in_prev)].in_next = s.in_next;
    } else {
      in_head_[du] = s.in_next;
    }
    if (s.in_next >= 0) streams_[static_cast<std::size_t>(s.in_next)].in_prev = s.in_prev;
    if (s.out_prev >= 0) {
      streams_[static_cast<std::size_t>(s.out_prev)].out_next = s.out_next;
    } else {
      out_head_[uu] = s.out_next;
    }
    if (s.out_next >= 0) streams_[static_cast<std::size_t>(s.out_next)].out_prev = s.out_prev;
    for (int k = unchoked_by_off_[du]; k < unchoked_by_off_[du + 1]; ++k) {
      MarkUploader(unchoked_by_[static_cast<std::size_t>(k)]);
    }
    alloc_.RemoveFlow(s.flow_slot);
    s.up = -1;
    s.down = -1;
    s.flow_slot = -1;
    free_streams_.push_back(si);
    --num_streams_;
  }

  void CancelStream(int si) {
    StreamRec& s = streams_[static_cast<std::size_t>(si)];
    PendingReset(s.down, s.block);
    --active_downloads_[static_cast<std::size_t>(s.down)];
    ReleaseStream(si);
  }

  void StartStream(PeerId up, PeerId down) {
    const auto du = static_cast<std::size_t>(down);
    if (completed_[du] != 0 || active_downloads_[du] >= cfg_.max_parallel_downloads) return;
    if (FindStream(up, down) >= 0) return;
    const int block = PickBlock(up, down);
    if (block < 0) return;
    const RouteInfo& route =
        RouteBetween(specs_[static_cast<std::size_t>(up)].node, specs_[du].node);
    route_scratch_.clear();
    route_scratch_.push_back(UplinkOf(up));
    route_scratch_.insert(route_scratch_.end(), route.links.begin(), route.links.end());
    route_scratch_.push_back(DownlinkOf(down));
    const int flow_slot = alloc_.AddFlow(route_scratch_, route.rate_cap);

    int si;
    if (!free_streams_.empty()) {
      si = free_streams_.back();
      free_streams_.pop_back();
    } else {
      si = static_cast<int>(streams_.size());
      streams_.emplace_back();
    }
    StreamRec& s = streams_[static_cast<std::size_t>(si)];
    s.up = up;
    s.down = down;
    s.block = block;
    s.remaining = cfg_.block_bytes;
    s.flow_slot = flow_slot;
    s.route = &route;
    s.down_slot = NeighborSlot(down, up);
    s.in_prev = -1;
    s.in_next = in_head_[du];
    if (s.in_next >= 0) streams_[static_cast<std::size_t>(s.in_next)].in_prev = si;
    in_head_[du] = si;
    const auto uu = static_cast<std::size_t>(up);
    s.out_prev = -1;
    s.out_next = out_head_[uu];
    if (s.out_next >= 0) streams_[static_cast<std::size_t>(s.out_next)].out_prev = si;
    out_head_[uu] = si;
    PendingSet(down, block);
    ++active_downloads_[du];
    ++num_streams_;
  }

  // --- tracker interaction ---
  void RequestNeighbors(PeerId id, int want) {
    if (want <= 0) return;
    const PeerInfo self = InfoOf(id);
    auto chosen = selector_.SelectFromBuckets(self, swarm_, want, rng_);
    for (PeerId q : chosen) {
      if (q == id || !IsActive(q)) continue;
      AddEdge(id, q);
    }
  }

  void PeerJoins(std::size_t idx, double now) {
    joined_[idx] = 1;
    if (specs_[idx].seed) {
      HaveSetAll(static_cast<PeerId>(idx));
      have_count_[idx] = num_blocks_;
      completed_[idx] = 1;
      for (int b = 0; b < num_blocks_; ++b) AvailInc(b);
    }
    swarm_.Insert(InfoOf(static_cast<PeerId>(idx)));
    RequestNeighbors(static_cast<PeerId>(idx), cfg_.max_neighbors);
    if (specs_[idx].leave_time <= now) PeerDeparts(idx);
  }

  void PeerDeparts(std::size_t idx) {
    const auto id = static_cast<PeerId>(idx);
    departed_[idx] = 1;
    // Cancel uploads first (their downloaders still reference this peer as a
    // neighbor), then own downloads.
    for (int si = out_head_[idx]; si != -1;) {
      const int next = streams_[static_cast<std::size_t>(si)].out_next;
      CancelStream(si);
      si = next;
    }
    for (int si = in_head_[idx]; si != -1;) {
      const int next = streams_[static_cast<std::size_t>(si)].in_next;
      CancelStream(si);
      si = next;
    }
    // Held blocks leave the availability index.
    const auto* hw = HaveWords(id);
    for (std::size_t w = 0; w < wpp_; ++w) {
      std::uint64_t bits = hw[w];
      while (bits != 0) {
        const int b = static_cast<int>(w * 64) + std::countr_zero(bits);
        bits &= bits - 1;
        AvailDec(b);
      }
    }
    // Drop the peer from every neighbor's slab (no ghost entries survive).
    const auto base = idx * static_cast<std::size_t>(nb_cap_);
    for (int j = 0; j < nb_count_[idx]; ++j) {
      const PeerId q = nb_[base + static_cast<std::size_t>(j)];
      const int slot = NeighborSlot(q, id);
      if (slot >= 0) RemoveNeighborAt(q, slot);
    }
    nb_count_[idx] = 0;
    un_count_[idx] = 0;
    swarm_.Erase(id);
    if (!specs_[idx].seed && completed_[idx] == 0) ++finished_or_gone_leechers_;
  }

  void OnLeecherCompleted(PeerId d, double now) {
    const auto du = static_cast<std::size_t>(d);
    completed_[du] = 1;
    completion_time_[du] = now + cfg_.dt - specs_[du].join_time;
    ++completed_leechers_;
    // Refresh the swarm store entry so selectors see the peer as a seed.
    swarm_.Erase(d);
    swarm_.Insert(InfoOf(d));
    completed_this_step_.push_back(d);
  }

  void ClearRecvWindow(PeerId p) {
    const auto base = static_cast<std::size_t>(p) * static_cast<std::size_t>(nb_cap_);
    std::fill(recv_win_.begin() + static_cast<std::ptrdiff_t>(base),
              recv_win_.begin() + static_cast<std::ptrdiff_t>(
                                      base + static_cast<std::size_t>(nb_cap_)),
              0.0);
  }

  void RechokeAll() {
    for (std::size_t i = 0; i < num_peers_; ++i) {
      un_count_[i] = 0;
      if (joined_[i] == 0 || departed_[i] != 0 || have_count_[i] == 0) continue;
      const auto id = static_cast<PeerId>(i);
      const auto base = i * static_cast<std::size_t>(nb_cap_);
      // Interested neighbors: active, incomplete, missing something we have.
      interested_.clear();
      for (int j = 0; j < nb_count_[i]; ++j) {
        const PeerId q = nb_[base + static_cast<std::size_t>(j)];
        if (!IsActive(q) || completed_[static_cast<std::size_t>(q)] != 0) continue;
        if (HasAnyMissingIn(id, q)) {
          interested_.push_back({recv_win_[base + static_cast<std::size_t>(j)], q});
        }
      }
      if (interested_.empty()) {
        ClearRecvWindow(id);
        continue;
      }
      const int regular = cfg_.unchoke_slots;
      const auto ubase = i * static_cast<std::size_t>(un_cap_);
      if (completed_[i] != 0) {
        // Seeds rotate uploads randomly among interested peers.
        ids_.clear();
        for (const auto& e : interested_) ids_.push_back(e.second);
        std::shuffle(ids_.begin(), ids_.end(), rng_);
        const auto take = std::min<std::size_t>(
            ids_.size(), static_cast<std::size_t>(regular + cfg_.optimistic_slots));
        for (std::size_t k = 0; k < take; ++k) unchoked_[ubase + k] = ids_[k];
        un_count_[i] = static_cast<int>(take);
      } else {
        // Tit-for-tat: prefer peers that uploaded the most to us recently.
        std::sort(interested_.begin(), interested_.end(),
                  [](const std::pair<double, PeerId>& a, const std::pair<double, PeerId>& b) {
                    if (a.first != b.first) return a.first > b.first;
                    return a.second < b.second;
                  });
        const auto take =
            std::min<std::size_t>(interested_.size(), static_cast<std::size_t>(regular));
        for (std::size_t k = 0; k < take; ++k) unchoked_[ubase + k] = interested_[k].second;
        int count = static_cast<int>(take);
        // Optimistic unchoke from the remainder.
        ids_.clear();
        for (std::size_t k = take; k < interested_.size(); ++k) {
          ids_.push_back(interested_[k].second);
        }
        std::shuffle(ids_.begin(), ids_.end(), rng_);
        for (int k = 0; k < cfg_.optimistic_slots && k < static_cast<int>(ids_.size()); ++k) {
          unchoked_[ubase + static_cast<std::size_t>(count++)] = ids_[static_cast<std::size_t>(k)];
        }
        un_count_[i] = count;
      }
      ClearRecvWindow(id);
    }
    IndexUnchokes();
  }

  /// Full from-scratch solve over all live flows (slot order), checked
  /// bitwise against the incremental rates — the honest baseline for the
  /// speedup metric. The flows are loaded into an empty store in slot
  /// order, so sample flow k is slot k; the timed part is the load plus
  /// the solve, and the store is emptied again (last slot first, so the
  /// next load reuses slots in ascending order).
  void SampleFullSolve(std::span<const double> rates) {
    sample_order_.clear();
    for (std::size_t si = 0; si < streams_.size(); ++si) {
      if (streams_[si].up >= 0) sample_order_.push_back(static_cast<int>(si));
    }
    std::sort(sample_order_.begin(), sample_order_.end(), [this](int a, int b) {
      return streams_[static_cast<std::size_t>(a)].flow_slot <
             streams_[static_cast<std::size_t>(b)].flow_slot;
    });
    const auto capacities = alloc_.capacities();
    for (std::size_t l = 0; l < capacities.size(); ++l) {
      sample_.SetCapacity(static_cast<int>(l), capacities[l]);
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int si : sample_order_) {
      const StreamRec& s = streams_[static_cast<std::size_t>(si)];
      route_scratch_.clear();
      route_scratch_.push_back(UplinkOf(s.up));
      route_scratch_.insert(route_scratch_.end(), s.route->links.begin(),
                            s.route->links.end());
      route_scratch_.push_back(DownlinkOf(s.down));
      sample_.AddFlow(route_scratch_, s.route->rate_cap);
    }
    const auto full = sample_.Rates();
    const auto t1 = std::chrono::steady_clock::now();
    full_ns_total_ +=
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    ++result_.maxmin_full_samples;
    for (std::size_t k = 0; k < sample_order_.size(); ++k) {
      const StreamRec& s = streams_[static_cast<std::size_t>(sample_order_[k])];
      if (full[k] != rates[static_cast<std::size_t>(s.flow_slot)]) {
        ++result_.maxmin_parity_mismatches;
      }
    }
    for (std::size_t k = sample_order_.size(); k-- > 0;) {
      sample_.RemoveFlow(static_cast<int>(k));
    }
  }

  // --- data ---
  const net::Graph& graph_;
  const net::RoutingTable& routing_;
  const BitTorrentConfig& cfg_;
  const BitTorrentSimulator::BackgroundFn& background_;
  const BitTorrentSimulator::EpochFn& on_epoch_;
  std::span<const PeerSpec> specs_;
  PeerSelector& selector_;

  const int num_blocks_;
  const std::size_t num_graph_links_;
  const std::size_t num_peers_;
  const std::size_t wpp_;  // bitset words per peer
  std::mt19937_64 rng_;
  IncrementalMaxMin alloc_;
  IntervalVolumeRecorder interval_rec_;

  std::vector<std::uint8_t> joined_, departed_, completed_;
  std::vector<double> completion_time_;
  std::vector<int> have_count_;
  std::vector<int> active_downloads_;
  std::vector<std::uint64_t> have_words_, pending_words_;

  int nb_cap_ = 0;
  std::vector<PeerId> nb_;
  std::vector<double> recv_win_;
  std::vector<int> nb_count_;

  int un_cap_ = 0;
  std::vector<PeerId> unchoked_;
  std::vector<int> un_count_;
  // Uploaders unchoking d: unchoked_by_[unchoked_by_off_[d] .. [d + 1]).
  std::vector<int> unchoked_by_off_;
  std::vector<PeerId> unchoked_by_;
  std::vector<std::uint64_t> open_marks_;  // one bit per peer

  std::vector<StreamRec> streams_;
  std::vector<int> free_streams_;
  std::vector<int> in_head_, out_head_;
  int num_streams_ = 0;

  std::vector<int> block_avail_;
  std::vector<int> block_pos_;
  std::vector<std::vector<int>> avail_buckets_;
  int min_avail_ = 0;

  std::unordered_map<std::uint64_t, RouteInfo> route_cache_;
  PeerBuckets swarm_;

  // Per-step scratch.
  std::vector<int> route_scratch_;
  std::vector<std::pair<double, PeerId>> interested_;
  std::vector<PeerId> ids_;
  std::vector<int> released_;
  std::vector<PeerId> completed_this_step_;
  std::vector<double> step_bytes_, epoch_bytes_, sample_bytes_;
  std::vector<int> sample_order_;
  IncrementalMaxMin sample_;
  double full_ns_total_ = 0.0;

  int num_leechers_ = 0;
  int completed_leechers_ = 0;
  int finished_or_gone_leechers_ = 0;

  BitTorrentResult result_;
};

BitTorrentResult Engine::Run() {
  // Join order by (join_time, index); departure order by (leave_time, index)
  // over finite leave times.
  std::vector<std::size_t> join_order(num_peers_);
  for (std::size_t i = 0; i < num_peers_; ++i) join_order[i] = i;
  std::sort(join_order.begin(), join_order.end(), [this](std::size_t a, std::size_t b) {
    if (specs_[a].join_time != specs_[b].join_time) {
      return specs_[a].join_time < specs_[b].join_time;
    }
    return a < b;
  });
  std::vector<std::size_t> leave_order;
  for (std::size_t i = 0; i < num_peers_; ++i) {
    if (std::isfinite(specs_[i].leave_time)) leave_order.push_back(i);
  }
  std::sort(leave_order.begin(), leave_order.end(), [this](std::size_t a, std::size_t b) {
    if (specs_[a].leave_time != specs_[b].leave_time) {
      return specs_[a].leave_time < specs_[b].leave_time;
    }
    return a < b;
  });
  std::size_t next_join = 0;
  std::size_t next_leave = 0;

  for (std::size_t i = 0; i < num_peers_; ++i) {
    if (!specs_[i].seed) ++num_leechers_;
  }

  double now = 0.0;
  double last_epoch = 0.0;
  double last_sample = 0.0;
  double last_rechoke = -1e18;
  double last_topup = 0.0;
  double last_refresh = 0.0;
  std::uint64_t passes_seen = 0;

  while (now < cfg_.horizon) {
    ++result_.rounds;
    // Joins due by now (a join may depart in place if its leave is past).
    while (next_join < num_peers_ &&
           specs_[join_order[next_join]].join_time <= now) {
      PeerJoins(join_order[next_join], now);
      ++next_join;
    }
    // Departures due by now. Entries not yet joined are handled at join.
    while (next_leave < leave_order.size() &&
           specs_[leave_order[next_leave]].leave_time <= now) {
      const std::size_t idx = leave_order[next_leave];
      if (joined_[idx] != 0 && departed_[idx] == 0) PeerDeparts(idx);
      ++next_leave;
    }

    // Periodic neighbor top-up for under-connected peers. Departed peers
    // are scrubbed from slabs eagerly, so the slab count is the live count.
    if (now - last_topup >= cfg_.neighbor_topup_interval) {
      last_topup = now;
      for (std::size_t i = 0; i < num_peers_; ++i) {
        if (joined_[i] == 0 || departed_[i] != 0) continue;
        if (nb_count_[i] < cfg_.min_neighbors) {
          RequestNeighbors(static_cast<PeerId>(i), cfg_.max_neighbors - nb_count_[i]);
        }
      }
    }

    // Optional neighbor refresh: re-query the tracker so updated (dynamic)
    // p-distances steer the live swarm.
    if (cfg_.selector_refresh_interval > 0 &&
        now - last_refresh >= cfg_.selector_refresh_interval && now > 0) {
      last_refresh = now;
      for (std::size_t i = 0; i < num_peers_; ++i) {
        if (joined_[i] == 0 || departed_[i] != 0 || completed_[i] != 0) continue;
        const auto id = static_cast<PeerId>(i);
        for (int k = 0; k < cfg_.refresh_drop && nb_count_[i] > 0; ++k) {
          std::uniform_int_distribution<int> pick(0, nb_count_[i] - 1);
          const int victim = pick(rng_);
          const PeerId q =
              nb_[i * static_cast<std::size_t>(nb_cap_) + static_cast<std::size_t>(victim)];
          const int s_in = FindStream(q, id);
          if (s_in >= 0) CancelStream(s_in);
          const int s_out = FindStream(id, q);
          if (s_out >= 0) CancelStream(s_out);
          RemoveNeighborAt(id, victim);
          const int back = NeighborSlot(q, id);
          if (back >= 0) RemoveNeighborAt(q, back);
        }
        RequestNeighbors(id, cfg_.refresh_drop);
      }
    }

    if (now - last_rechoke >= cfg_.rechoke_interval) {
      last_rechoke = now;
      RechokeAll();
    }

    // Open streams for unchoked pairs of the marked uploaders, in id order.
    for (std::size_t w = 0; w < open_marks_.size(); ++w) {
      for (std::uint64_t bits = std::exchange(open_marks_[w], 0); bits != 0;
           bits &= bits - 1) {
        const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (joined_[i] == 0 || departed_[i] != 0) continue;
        const auto ubase = i * static_cast<std::size_t>(un_cap_);
        for (int k = 0; k < un_count_[i]; ++k) {
          const PeerId d = unchoked_[ubase + static_cast<std::size_t>(k)];
          if (IsActive(d)) StartStream(static_cast<PeerId>(i), d);
        }
      }
    }

    if (num_streams_ == 0 && next_join >= num_peers_ &&
        completed_leechers_ + finished_or_gone_leechers_ >= num_leechers_) {
      break;  // nothing left to simulate
    }

    // Graph-link capacities net of background traffic. Static capacities
    // never dirty the allocator; only a background that moves a link's
    // capacity forces a re-solve.
    if (background_) {
      for (std::size_t l = 0; l < num_graph_links_; ++l) {
        alloc_.SetCapacity(
            static_cast<int>(l),
            std::max(0.0, graph_.link(static_cast<net::LinkId>(l)).capacity_bps -
                              background_(static_cast<net::LinkId>(l), now)));
      }
    }

    // Max-min fair rates: O(1) when no stream/capacity event occurred since
    // the previous step, one full progressive-filling solve otherwise.
    const auto t0 = std::chrono::steady_clock::now();
    const auto rates = alloc_.Rates();
    const auto t1 = std::chrono::steady_clock::now();
    const auto pull_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    result_.maxmin_incremental_ns += pull_ns;
    if (alloc_.recompute_passes() != passes_seen) {
      passes_seen = alloc_.recompute_passes();
      ++result_.maxmin_dirty_steps;
    }
    if (num_streams_ > 0) {
      ++result_.maxmin_live_steps;
      result_.maxmin_live_ns += pull_ns;
      if (cfg_.maxmin_full_sample_every > 0 &&
          result_.maxmin_live_steps % cfg_.maxmin_full_sample_every == 0) {
        SampleFullSolve(rates);
      }
    }

    // Advance transfers by dt; a stream may complete several blocks within
    // one step (it immediately continues with the next rarest block).
    released_.clear();
    completed_this_step_.clear();
    for (std::size_t si = 0; si < streams_.size(); ++si) {
      StreamRec& s = streams_[si];
      if (s.up < 0) continue;
      double budget = rates[static_cast<std::size_t>(s.flow_slot)] / 8.0 * cfg_.dt;
      bool release = false;
      while (budget > 0.0) {
        const double used = std::min(budget, s.remaining);
        if (used > 0.0) {
          budget -= used;
          s.remaining -= used;
          for (int l : s.route->links) step_bytes_[static_cast<std::size_t>(l)] += used;
          result_.pop_traffic[static_cast<std::size_t>(specs_[static_cast<std::size_t>(s.up)].node)]
                             [static_cast<std::size_t>(specs_[static_cast<std::size_t>(s.down)].node)] +=
              used;
          result_.byte_hops += used * s.route->hops;
          result_.total_bytes += used;
          if (s.down_slot >= 0) {
            recv_win_[static_cast<std::size_t>(s.down) * static_cast<std::size_t>(nb_cap_) +
                      static_cast<std::size_t>(s.down_slot)] += used;
          }
        }
        if (s.remaining > 1e-6) break;  // budget exhausted mid-block
        // Block completed.
        PendingReset(s.down, s.block);
        HaveSet(s.down, s.block);
        ++have_count_[static_cast<std::size_t>(s.down)];
        AvailInc(s.block);
        if (have_count_[static_cast<std::size_t>(s.down)] == num_blocks_) {
          OnLeecherCompleted(s.down, now);
          --active_downloads_[static_cast<std::size_t>(s.down)];
          release = true;
          break;
        }
        const int next_block = PickBlock(s.up, s.down);
        if (next_block < 0) {
          --active_downloads_[static_cast<std::size_t>(s.down)];
          release = true;
          break;
        }
        s.block = next_block;
        s.remaining = cfg_.block_bytes;
        PendingSet(s.down, next_block);
      }
      if (release) released_.push_back(static_cast<int>(si));
    }
    for (int si : released_) ReleaseStream(si);
    // A completed downloader's other incoming streams are now useless.
    for (PeerId d : completed_this_step_) {
      for (int si = in_head_[static_cast<std::size_t>(d)]; si != -1;) {
        const int next = streams_[static_cast<std::size_t>(si)].in_next;
        CancelStream(si);
        si = next;
      }
    }
    // Flush this step's per-link bytes into the accumulators in one pass
    // (all transfers in a step share the same timestamp).
    for (std::size_t l = 0; l < num_graph_links_; ++l) {
      const double v = step_bytes_[l];
      if (v != 0.0) {
        result_.link_bytes[l] += v;
        epoch_bytes_[l] += v;
        sample_bytes_[l] += v;
        interval_rec_.add(static_cast<int>(l), now, v);
        step_bytes_[l] = 0.0;
      }
    }

    now += cfg_.dt;

    // Utilization sampling.
    if (now - last_sample >= cfg_.util_sample_interval) {
      const double span = now - last_sample;
      result_.sample_times.push_back(now);
      for (std::size_t l = 0; l < num_graph_links_; ++l) {
        const double bg = background_ ? background_(static_cast<net::LinkId>(l), now) : 0.0;
        const double p2p_bps = sample_bytes_[l] * 8.0 / span;
        const double cap = graph_.link(static_cast<net::LinkId>(l)).capacity_bps;
        result_.link_utilization[l].push_back((p2p_bps + bg) / cap);
        sample_bytes_[l] = 0.0;
      }
      last_sample = now;
    }

    // iTracker epoch.
    if (on_epoch_ && now - last_epoch >= cfg_.epoch_interval) {
      const double span = now - last_epoch;
      std::vector<double> rates_bps(num_graph_links_, 0.0);
      for (std::size_t l = 0; l < num_graph_links_; ++l) {
        rates_bps[l] = epoch_bytes_[l] * 8.0 / span;
        epoch_bytes_[l] = 0.0;
      }
      on_epoch_(now, rates_bps);
      last_epoch = now;
    }
  }

  // Collect results.
  result_.per_peer_completion.assign(num_peers_, -1.0);
  for (std::size_t i = 0; i < num_peers_; ++i) {
    if (!specs_[i].seed && completed_[i] != 0 && completion_time_[i] >= 0.0) {
      result_.completion_times.push_back(completion_time_[i]);
      result_.per_peer_completion[i] = completion_time_[i];
    }
  }
  result_.completed_fraction =
      num_leechers_ > 0
          ? static_cast<double>(completed_leechers_) / static_cast<double>(num_leechers_)
          : 1.0;
  result_.interval_volumes.resize(num_graph_links_);
  for (std::size_t l = 0; l < num_graph_links_; ++l) {
    result_.interval_volumes[l] = interval_rec_.volumes(static_cast<int>(l));
  }
  if (result_.maxmin_full_samples > 0) {
    result_.maxmin_full_ns_est = full_ns_total_ /
                                 static_cast<double>(result_.maxmin_full_samples) *
                                 static_cast<double>(result_.maxmin_live_steps);
  }
  result_.maxmin_gather_ns = static_cast<double>(alloc_.total_gather_ns());
  result_.maxmin_solve_ns = static_cast<double>(alloc_.total_solve_ns());
  result_.maxmin_dense_solves = alloc_.recompute_passes();
  return std::move(result_);
}

}  // namespace

int BitTorrentResult::busiest_link() const {
  int best = -1;
  double best_bytes = -1.0;
  for (std::size_t l = 0; l < link_bytes.size(); ++l) {
    if (link_bytes[l] > best_bytes) {
      best_bytes = link_bytes[l];
      best = static_cast<int>(l);
    }
  }
  return best;
}

TimeSeries BitTorrentResult::busiest_link_series() const {
  TimeSeries ts;
  const int l = busiest_link();
  if (l < 0) return ts;
  ts.times = sample_times;
  ts.values = link_utilization.at(static_cast<std::size_t>(l));
  return ts;
}

BitTorrentSimulator::BitTorrentSimulator(const net::Graph& graph,
                                         const net::RoutingTable& routing,
                                         BitTorrentConfig config)
    : graph_(graph), routing_(routing), config_(config) {
  if (config_.file_bytes <= 0 || config_.block_bytes <= 0 ||
      config_.block_bytes > config_.file_bytes) {
    throw std::invalid_argument("BitTorrentSimulator: bad file/block sizes");
  }
  if (config_.dt <= 0 || config_.horizon <= 0) {
    throw std::invalid_argument("BitTorrentSimulator: bad dt/horizon");
  }
}

BitTorrentResult BitTorrentSimulator::Run(std::span<const PeerSpec> peer_specs,
                                          PeerSelector& selector) {
  Engine engine(graph_, routing_, config_, background_, on_epoch_, peer_specs, selector);
  return engine.Run();
}

}  // namespace p4p::sim
