// Flow-level BitTorrent swarm simulator.
//
// Follows the paper's simulation methodology (Section 7.1): the native
// BitTorrent protocol (rarest-first piece selection, tit-for-tat choking
// with optimistic unchoke) is simulated at session level, with TCP capacity
// sharing modeled as max-min fairness over routed links. Peer selection is
// pluggable: the appTracker policies (native random, delay-localized, P4P)
// are injected through the PeerSelector interface so the same swarm dynamics
// compare selection strategies — exactly the paper's experimental design.
#pragma once

#include <functional>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "net/graph.h"
#include "net/routing.h"
#include "sim/maxmin.h"
#include "sim/stats.h"
#include "sim/workload.h"

namespace p4p::sim {

/// Runtime facts about a peer that selection policies may use.
struct PeerInfo {
  PeerId id = -1;
  net::NodeId node = net::kInvalidNode;
  std::int32_t as_number = 0;
  double up_bps = 0.0;
  double down_bps = 0.0;
  bool seed = false;
};

class PeerBuckets;  // sim/peer_buckets.h

/// Strategy interface for appTracker peer selection. Implementations must
/// return at most `m` distinct candidate ids, never including the client.
class PeerSelector {
 public:
  virtual ~PeerSelector() = default;

  /// The one selection entry point: selects against a PeerBuckets swarm
  /// store, sampling its per-(AS, PID) buckets directly. The client may or
  /// may not already be a member of `swarm`; implementations must never
  /// return it.
  virtual std::vector<PeerId> SelectFromBuckets(const PeerInfo& client,
                                                const PeerBuckets& swarm,
                                                int m, std::mt19937_64& rng) = 0;

  /// Span adapter: loads `candidates` into a fresh store and calls
  /// SelectFromBuckets. No selector overrides it; it stays virtual only
  /// because the benchmark harness's timing wrapper (perfbench) does, and
  /// the benchmark change of ROADMAP item 2 can delete it.
  virtual std::vector<PeerId> SelectPeers(const PeerInfo& client,
                                          std::span<const PeerInfo> candidates,
                                          int m, std::mt19937_64& rng);

  /// Human-readable policy name for reports.
  virtual std::string name() const = 0;
};

struct BitTorrentConfig {
  double file_bytes = 12.0 * 1024 * 1024;
  double block_bytes = 256.0 * 1024;
  /// Fluid-model step (seconds).
  double dt = 1.0;
  double rechoke_interval = 10.0;
  int unchoke_slots = 4;
  int optimistic_slots = 1;
  /// Target neighbor count m requested from the selector.
  int max_neighbors = 20;
  /// Below this, a peer asks the tracker for more neighbors.
  int min_neighbors = 8;
  double neighbor_topup_interval = 60.0;
  /// If > 0, every interval each peer drops `refresh_drop` neighbors and
  /// re-queries the tracker — lets dynamic p-distances steer live swarms.
  double selector_refresh_interval = 0.0;
  int refresh_drop = 2;
  /// Hard stop (seconds).
  double horizon = 3.0 * 3600;
  /// Per-downloader cap on concurrent block downloads.
  int max_parallel_downloads = 8;
  /// Utilization sampling period for the time-series outputs.
  double util_sample_interval = 10.0;
  /// Charging-model interval (the "5-minute volumes").
  double charging_interval_sec = 300.0;
  /// iTracker epoch: on_epoch fires with average per-link P2P rates.
  double epoch_interval = 30.0;
  /// TCP receive-window model: when > 0, each stream's rate is additionally
  /// capped at window/RTT (RTT = 2 * (propagation + both access delays)).
  /// 64 KiB reproduces era-typical stacks, making long paths slower than
  /// short ones — "transport layer connections over low-latency network
  /// paths would be more efficient" (Section 4). 0 disables the cap.
  double tcp_window_bytes = 0.0;
  /// One-way last-mile latency used by the RTT model (ms).
  double access_latency_ms = 5.0;
  /// When > 0, every Nth fluid step that has live flows additionally runs
  /// a from-scratch max-min solve over them and checks it bitwise against
  /// the incremental allocator, recording both timings for the speedup
  /// metrics (see BitTorrentResult). 0 disables the sampling.
  int maxmin_full_sample_every = 0;
  std::uint64_t rng_seed = 1;
};

/// Everything the benchmark harness needs to reproduce the paper's figures.
struct BitTorrentResult {
  /// Download durations (seconds from join to completion), completed peers only.
  std::vector<double> completion_times;
  /// Per input peer (same order as the Run() span): completion duration, or
  /// -1 if the peer was a seed or did not finish before the horizon.
  std::vector<double> per_peer_completion;
  /// Fraction of leechers that completed before the horizon.
  double completed_fraction = 0.0;
  /// Cumulative P2P bytes per graph link.
  std::vector<double> link_bytes;
  /// Per-graph-link utilization samples, common time axis.
  std::vector<double> sample_times;
  std::vector<std::vector<double>> link_utilization;  // [link][sample]
  /// Traffic matrix: bytes sent from PoP i to PoP j (graph node ids).
  std::vector<std::vector<double>> pop_traffic;
  /// Per-link per-interval volumes for percentile charging.
  std::vector<std::vector<double>> interval_volumes;  // [link][interval]
  /// Sum over transfers of bytes * backbone hop count.
  double byte_hops = 0.0;
  double total_bytes = 0.0;
  /// Fluid-model steps executed (for swarm-rounds/sec throughput reporting).
  int rounds = 0;
  /// Incremental-allocator instrumentation. The _ns fields are wall-clock
  /// measurements and are NOT covered by same-seed determinism; comparisons
  /// across runs should zero them first.
  double maxmin_incremental_ns = 0.0;  ///< total time inside incremental rate pulls
  int maxmin_live_steps = 0;           ///< steps with at least one live flow
  double maxmin_live_ns = 0.0;         ///< incremental rate-pull time on those steps
  /// Sampled full-solve time extrapolated to every live step. A step with
  /// no live flow has nothing to solve either way, so the speedup is
  /// maxmin_full_ns_est / maxmin_live_ns.
  double maxmin_full_ns_est = 0.0;
  int maxmin_full_samples = 0;         ///< full solves actually run for parity/timing
  int maxmin_parity_mismatches = 0;    ///< bitwise divergences vs the full solve (expect 0)
  int maxmin_dirty_steps = 0;          ///< steps that re-solved the live flows
  /// Cumulative allocator time of the recompute passes, split as the
  /// engine splits it: gather is the slack-link screen, the isolated
  /// binding links and the heap set-up; solve is the heap's progressive
  /// filling.
  double maxmin_gather_ns = 0.0;
  double maxmin_solve_ns = 0.0;
  std::uint64_t maxmin_dense_solves = 0;  ///< recomputes (each solves every live flow)
  /// Always 0: the allocator has one solve path, counted in
  /// maxmin_dense_solves. Kept only because perfbench's
  /// `maxmin.incremental_solves` reads it.
  std::uint64_t maxmin_incremental_solves = 0;

  /// Unit bandwidth-distance product: average backbone links traversed per
  /// unit of P2P traffic.
  double unit_bdp() const { return total_bytes > 0 ? byte_hops / total_bytes : 0.0; }
  /// Index of the graph link carrying the most P2P bytes.
  int busiest_link() const;
  /// Utilization time series of the busiest link.
  TimeSeries busiest_link_series() const;
};

class BitTorrentSimulator {
 public:
  /// `routing` must outlive the simulator. Background traffic (bps, may vary
  /// with time) is queried per graph link each step; pass nullptr for none.
  using BackgroundFn = std::function<double(net::LinkId, double)>;
  /// Epoch callback: (now, average P2P bps per graph link since last epoch).
  using EpochFn = std::function<void(double, std::span<const double>)>;

  BitTorrentSimulator(const net::Graph& graph, const net::RoutingTable& routing,
                      BitTorrentConfig config);

  void set_background(BackgroundFn fn) { background_ = std::move(fn); }
  void set_on_epoch(EpochFn fn) { on_epoch_ = std::move(fn); }

  /// Runs one swarm of `peers` using `selector` and returns the metrics.
  BitTorrentResult Run(std::span<const PeerSpec> peers, PeerSelector& selector);

 private:
  struct Impl;
  const net::Graph& graph_;
  const net::RoutingTable& routing_;
  BitTorrentConfig config_;
  BackgroundFn background_;
  EpochFn on_epoch_;
};

}  // namespace p4p::sim
