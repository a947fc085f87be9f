#include "sim/bittorrent.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/topology.h"
#include "sim/peer_buckets.h"
#include "sim/stats.h"

namespace p4p::sim {
namespace {

/// Minimal uniform-random selector, keeping sim tests independent of core.
class TestRandomSelector final : public PeerSelector {
 public:
  std::vector<PeerId> SelectFromBuckets(const PeerInfo& client, const PeerBuckets& swarm,
                                        int m, std::mt19937_64& rng) override {
    std::vector<PeerId> pool;
    for (const auto& bucket : swarm.buckets()) {
      for (const auto& c : bucket.peers) {
        if (c.id != client.id) pool.push_back(c.id);
      }
    }
    std::shuffle(pool.begin(), pool.end(), rng);
    if (static_cast<int>(pool.size()) > m) pool.resize(static_cast<std::size_t>(m));
    return pool;
  }
  std::string name() const override { return "TestRandom"; }
};

/// A selector that prefers peers on the client's own PoP.
class TestLocalSelector final : public PeerSelector {
 public:
  std::vector<PeerId> SelectFromBuckets(const PeerInfo& client, const PeerBuckets& swarm,
                                        int m, std::mt19937_64& rng) override {
    std::vector<PeerId> local;
    std::vector<PeerId> remote;
    for (const auto& bucket : swarm.buckets()) {
      for (const auto& c : bucket.peers) {
        if (c.id == client.id) continue;
        (c.node == client.node ? local : remote).push_back(c.id);
      }
    }
    std::shuffle(local.begin(), local.end(), rng);
    std::shuffle(remote.begin(), remote.end(), rng);
    std::vector<PeerId> out;
    for (PeerId id : local) {
      if (static_cast<int>(out.size()) >= m) break;
      out.push_back(id);
    }
    for (PeerId id : remote) {
      if (static_cast<int>(out.size()) >= m) break;
      out.push_back(id);
    }
    return out;
  }
  std::string name() const override { return "TestLocal"; }
};

std::vector<PeerSpec> SmallSwarm(const net::Graph& g, int leechers,
                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  PopulationConfig cfg;
  cfg.num_peers = leechers;
  for (net::NodeId n = 0; n < static_cast<net::NodeId>(g.node_count()); ++n) {
    cfg.pops.push_back(n);
  }
  cfg.join_window = 30.0;
  auto peers = MakePopulation(cfg, rng);
  PeerSpec seed_peer;
  seed_peer.node = 0;
  seed_peer.as_number = 1;
  seed_peer.up_bps = 100e6;
  seed_peer.down_bps = 100e6;
  seed_peer.join_time = 0.0;
  seed_peer.seed = true;
  peers.push_back(seed_peer);
  return peers;
}

BitTorrentConfig FastConfig() {
  BitTorrentConfig cfg;
  cfg.file_bytes = 2.0 * 1024 * 1024;
  cfg.block_bytes = 256.0 * 1024;
  cfg.horizon = 4000.0;
  cfg.rng_seed = 11;
  return cfg;
}

class BitTorrentSimTest : public ::testing::Test {
 protected:
  BitTorrentSimTest() : graph_(net::MakeAbilene()), routing_(graph_) {}
  net::Graph graph_;
  net::RoutingTable routing_;
};

TEST_F(BitTorrentSimTest, AllPeersCompleteSmallSwarm) {
  const auto peers = SmallSwarm(graph_, 20, 1);
  BitTorrentSimulator sim(graph_, routing_, FastConfig());
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  EXPECT_DOUBLE_EQ(result.completed_fraction, 1.0);
  EXPECT_EQ(result.completion_times.size(), 20u);
  for (double t : result.completion_times) {
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 4000.0);
  }
}

TEST_F(BitTorrentSimTest, ConservationEveryLeecherDownloadsFileSize) {
  const auto peers = SmallSwarm(graph_, 15, 2);
  BitTorrentSimulator sim(graph_, routing_, FastConfig());
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  // Total transferred bytes equals leechers * file size (stream accounting
  // counts payload bytes exactly once).
  EXPECT_NEAR(result.total_bytes, 15.0 * 2.0 * 1024 * 1024,
              0.01 * result.total_bytes);
}

TEST_F(BitTorrentSimTest, PopTrafficMatrixConsistentWithTotal) {
  const auto peers = SmallSwarm(graph_, 12, 3);
  BitTorrentSimulator sim(graph_, routing_, FastConfig());
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  double matrix_total = 0.0;
  for (const auto& row : result.pop_traffic) {
    for (double v : row) matrix_total += v;
  }
  EXPECT_NEAR(matrix_total, result.total_bytes, 1.0);
}

TEST_F(BitTorrentSimTest, UnitBdpConsistentWithMatrixAndRouting) {
  const auto peers = SmallSwarm(graph_, 12, 4);
  BitTorrentSimulator sim(graph_, routing_, FastConfig());
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  double byte_hops = 0.0;
  for (std::size_t i = 0; i < result.pop_traffic.size(); ++i) {
    for (std::size_t j = 0; j < result.pop_traffic.size(); ++j) {
      if (i == j || result.pop_traffic[i][j] == 0.0) continue;
      byte_hops += result.pop_traffic[i][j] *
                   routing_.hop_count(static_cast<net::NodeId>(i),
                                      static_cast<net::NodeId>(j));
    }
  }
  EXPECT_NEAR(byte_hops, result.byte_hops, 1e-3 * std::max(1.0, byte_hops));
  EXPECT_NEAR(result.unit_bdp(), byte_hops / result.total_bytes, 1e-6);
}

TEST_F(BitTorrentSimTest, LinkBytesMatchByteHops) {
  const auto peers = SmallSwarm(graph_, 10, 5);
  BitTorrentSimulator sim(graph_, routing_, FastConfig());
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  double link_total = 0.0;
  for (double b : result.link_bytes) link_total += b;
  EXPECT_NEAR(link_total, result.byte_hops, 1e-3 * std::max(1.0, link_total));
}

TEST_F(BitTorrentSimTest, LocalSelectorReducesBackboneTraffic) {
  // Concentrate peers on two PoPs so locality has something to exploit.
  std::mt19937_64 rng(6);
  PopulationConfig cfg;
  cfg.num_peers = 30;
  cfg.pops = {net::kNewYork, net::kChicago};
  auto peers = MakePopulation(cfg, rng);
  PeerSpec seed_peer;
  seed_peer.node = net::kNewYork;
  seed_peer.up_bps = 100e6;
  seed_peer.down_bps = 100e6;
  seed_peer.seed = true;
  peers.push_back(seed_peer);

  BitTorrentSimulator sim(graph_, routing_, FastConfig());
  TestRandomSelector random_sel;
  TestLocalSelector local_sel;
  const auto random_result = sim.Run(peers, random_sel);
  const auto local_result = sim.Run(peers, local_sel);
  EXPECT_LT(local_result.unit_bdp(), random_result.unit_bdp());
  EXPECT_DOUBLE_EQ(local_result.completed_fraction, 1.0);
}

TEST_F(BitTorrentSimTest, DeterministicForSameSeed) {
  const auto peers = SmallSwarm(graph_, 15, 7);
  BitTorrentSimulator sim(graph_, routing_, FastConfig());
  TestRandomSelector selector;
  const auto r1 = sim.Run(peers, selector);
  const auto r2 = sim.Run(peers, selector);
  ASSERT_EQ(r1.completion_times.size(), r2.completion_times.size());
  for (std::size_t i = 0; i < r1.completion_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.completion_times[i], r2.completion_times[i]);
  }
  EXPECT_DOUBLE_EQ(r1.total_bytes, r2.total_bytes);
}

TEST_F(BitTorrentSimTest, SeedUploadCapLimitsFirstDistribution) {
  // With a slow seed and one leecher, completion is bounded below by
  // file_bytes / seed_upload.
  std::vector<PeerSpec> peers;
  PeerSpec seed_peer;
  seed_peer.node = 0;
  seed_peer.up_bps = 800e3;  // 100 KB/s
  seed_peer.down_bps = 800e3;
  seed_peer.seed = true;
  peers.push_back(seed_peer);
  PeerSpec leecher;
  leecher.node = 5;
  leecher.up_bps = 100e6;
  leecher.down_bps = 100e6;
  leecher.join_time = 0.0;
  peers.push_back(leecher);

  BitTorrentConfig cfg = FastConfig();
  cfg.horizon = 60000.0;
  BitTorrentSimulator sim(graph_, routing_, cfg);
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  ASSERT_EQ(result.completion_times.size(), 1u);
  const double lower_bound = 2.0 * 1024 * 1024 / (100.0 * 1024);
  EXPECT_GE(result.completion_times[0], lower_bound * 0.95);
}

TEST_F(BitTorrentSimTest, BackgroundTrafficShrinksCapacity) {
  // Saturating background on all links slows the swarm down.
  const auto peers = SmallSwarm(graph_, 12, 8);
  BitTorrentConfig cfg = FastConfig();
  BitTorrentSimulator slow_sim(graph_, routing_, cfg);
  slow_sim.set_background([](net::LinkId, double) { return 9.9e9; });
  BitTorrentSimulator fast_sim(graph_, routing_, cfg);
  TestRandomSelector selector;
  const auto slow = slow_sim.Run(peers, selector);
  const auto fast = fast_sim.Run(peers, selector);
  ASSERT_FALSE(fast.completion_times.empty());
  ASSERT_FALSE(slow.completion_times.empty());
  EXPECT_GT(Mean(slow.completion_times), Mean(fast.completion_times));
}

TEST_F(BitTorrentSimTest, EpochCallbackFires) {
  const auto peers = SmallSwarm(graph_, 10, 9);
  BitTorrentConfig cfg = FastConfig();
  cfg.epoch_interval = 5.0;
  BitTorrentSimulator sim(graph_, routing_, cfg);
  int epochs = 0;
  double traffic_seen = 0.0;
  sim.set_on_epoch([&](double, std::span<const double> rates) {
    ++epochs;
    for (double r : rates) traffic_seen += r;
  });
  TestRandomSelector selector;
  sim.Run(peers, selector);
  EXPECT_GT(epochs, 2);
  EXPECT_GT(traffic_seen, 0.0);
}

TEST_F(BitTorrentSimTest, UtilizationSamplesBounded) {
  const auto peers = SmallSwarm(graph_, 20, 10);
  BitTorrentSimulator sim(graph_, routing_, FastConfig());
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  ASSERT_FALSE(result.sample_times.empty());
  for (const auto& series : result.link_utilization) {
    ASSERT_EQ(series.size(), result.sample_times.size());
    for (double u : series) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.05);  // small overshoot tolerated from step quantization
    }
  }
}

TEST_F(BitTorrentSimTest, BusiestLinkIdentified) {
  const auto peers = SmallSwarm(graph_, 20, 11);
  BitTorrentSimulator sim(graph_, routing_, FastConfig());
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  const int busiest = result.busiest_link();
  ASSERT_GE(busiest, 0);
  for (double b : result.link_bytes) {
    EXPECT_LE(b, result.link_bytes[static_cast<std::size_t>(busiest)]);
  }
  const auto series = result.busiest_link_series();
  EXPECT_EQ(series.times.size(), result.sample_times.size());
}

TEST_F(BitTorrentSimTest, ChurnPeersLeavingMidDownload) {
  auto peers = SmallSwarm(graph_, 20, 12);
  // Half the leechers leave early.
  for (std::size_t i = 0; i < 10; ++i) {
    peers[i].leave_time = peers[i].join_time + 20.0;
  }
  BitTorrentConfig cfg = FastConfig();
  cfg.horizon = 8000.0;
  BitTorrentSimulator sim(graph_, routing_, cfg);
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  // The simulation must terminate and the remaining peers complete.
  EXPECT_GE(result.completion_times.size(), 9u);
  EXPECT_LE(result.completed_fraction, 1.0);
}

TEST_F(BitTorrentSimTest, HorizonCutsOffStragglers) {
  const auto peers = SmallSwarm(graph_, 10, 13);
  BitTorrentConfig cfg = FastConfig();
  cfg.horizon = 5.0;  // far too short to finish
  BitTorrentSimulator sim(graph_, routing_, cfg);
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  EXPECT_LT(result.completed_fraction, 1.0);
}

TEST_F(BitTorrentSimTest, IntervalVolumesCoverLinkBytes) {
  const auto peers = SmallSwarm(graph_, 12, 14);
  BitTorrentSimulator sim(graph_, routing_, FastConfig());
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  ASSERT_EQ(result.interval_volumes.size(), graph_.link_count());
  for (std::size_t l = 0; l < graph_.link_count(); ++l) {
    double sum = 0.0;
    for (double v : result.interval_volumes[l]) sum += v;
    EXPECT_NEAR(sum, result.link_bytes[l], 1e-3 * std::max(1.0, sum));
  }
}

TEST_F(BitTorrentSimTest, RejectsBadConfig) {
  BitTorrentConfig cfg;
  cfg.file_bytes = 0;
  EXPECT_THROW(BitTorrentSimulator(graph_, routing_, cfg), std::invalid_argument);
  cfg = BitTorrentConfig{};
  cfg.block_bytes = cfg.file_bytes * 2;
  EXPECT_THROW(BitTorrentSimulator(graph_, routing_, cfg), std::invalid_argument);
  cfg = BitTorrentConfig{};
  cfg.dt = 0;
  EXPECT_THROW(BitTorrentSimulator(graph_, routing_, cfg), std::invalid_argument);
}

TEST_F(BitTorrentSimTest, NoSeedMeansNoCompletion) {
  auto peers = SmallSwarm(graph_, 8, 15);
  peers.pop_back();  // drop the seed
  BitTorrentConfig cfg = FastConfig();
  cfg.horizon = 100.0;
  BitTorrentSimulator sim(graph_, routing_, cfg);
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  EXPECT_EQ(result.completion_times.size(), 0u);
  EXPECT_DOUBLE_EQ(result.total_bytes, 0.0);
}

TEST_F(BitTorrentSimTest, SelectorRefreshKeepsSwarmHealthy) {
  const auto peers = SmallSwarm(graph_, 15, 16);
  BitTorrentConfig cfg = FastConfig();
  cfg.selector_refresh_interval = 50.0;
  cfg.refresh_drop = 2;
  BitTorrentSimulator sim(graph_, routing_, cfg);
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  EXPECT_DOUBLE_EQ(result.completed_fraction, 1.0);
}

TEST_F(BitTorrentSimTest, PerPeerCompletionConsistentWithAggregate) {
  const auto peers = SmallSwarm(graph_, 14, 17);
  BitTorrentSimulator sim(graph_, routing_, FastConfig());
  TestRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  ASSERT_EQ(result.per_peer_completion.size(), peers.size());
  std::vector<double> collected;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i].seed) {
      EXPECT_LT(result.per_peer_completion[i], 0.0);
    } else if (result.per_peer_completion[i] >= 0.0) {
      collected.push_back(result.per_peer_completion[i]);
    }
  }
  ASSERT_EQ(collected.size(), result.completion_times.size());
  for (std::size_t k = 0; k < collected.size(); ++k) {
    EXPECT_DOUBLE_EQ(collected[k], result.completion_times[k]);
  }
}

TEST_F(BitTorrentSimTest, TcpWindowCapSlowsLongPaths) {
  // One leecher in NY downloading from a Seattle seed: with a tiny window
  // the coast-to-coast RTT caps the rate far below the access line rate.
  std::vector<PeerSpec> peers;
  PeerSpec seed_peer;
  seed_peer.node = net::kSeattle;
  seed_peer.up_bps = 100e6;
  seed_peer.down_bps = 100e6;
  seed_peer.seed = true;
  peers.push_back(seed_peer);
  PeerSpec leecher;
  leecher.node = net::kNewYork;
  leecher.up_bps = 100e6;
  leecher.down_bps = 100e6;
  peers.push_back(leecher);

  BitTorrentConfig cfg = FastConfig();
  cfg.horizon = 20000.0;
  BitTorrentSimulator no_window(graph_, routing_, cfg);
  cfg.tcp_window_bytes = 16.0 * 1024;
  BitTorrentSimulator windowed(graph_, routing_, cfg);
  TestRandomSelector selector;
  const auto fast = no_window.Run(peers, selector);
  const auto slow = windowed.Run(peers, selector);
  ASSERT_EQ(fast.completion_times.size(), 1u);
  ASSERT_EQ(slow.completion_times.size(), 1u);
  EXPECT_GT(slow.completion_times[0], 2.0 * fast.completion_times[0]);
}

TEST_F(BitTorrentSimTest, LossyLinkCapsThroughputViaMathis) {
  // Same pair, clean vs 5% loss on the path: Mathis cap must slow it down.
  net::Graph lossy = net::MakeAbilene();
  for (std::size_t e = 0; e < lossy.link_count(); ++e) {
    lossy.mutable_link(static_cast<net::LinkId>(e)).loss_rate = 0.05;
  }
  const net::RoutingTable lossy_routing(lossy);

  std::vector<PeerSpec> peers;
  PeerSpec seed_peer;
  seed_peer.node = net::kSeattle;
  seed_peer.up_bps = 100e6;
  seed_peer.down_bps = 100e6;
  seed_peer.seed = true;
  peers.push_back(seed_peer);
  PeerSpec leecher;
  leecher.node = net::kNewYork;
  leecher.up_bps = 100e6;
  leecher.down_bps = 100e6;
  peers.push_back(leecher);

  BitTorrentConfig cfg = FastConfig();
  cfg.horizon = 60000.0;
  cfg.tcp_window_bytes = 10.0 * 1024 * 1024;  // window never binds
  BitTorrentSimulator clean_sim(graph_, routing_, cfg);
  BitTorrentSimulator lossy_sim(lossy, lossy_routing, cfg);
  TestRandomSelector selector;
  const auto clean = clean_sim.Run(peers, selector);
  const auto bad = lossy_sim.Run(peers, selector);
  ASSERT_EQ(bad.completion_times.size(), 1u);
  EXPECT_GT(bad.completion_times[0], 1.5 * clean.completion_times[0]);
}

TEST_F(BitTorrentSimTest, SameNodeTransfersIgnoreWindowRtt) {
  // Co-located peers have only access latency; with a moderate window the
  // cap stays above the access rate and completion matches the no-window
  // run closely.
  std::vector<PeerSpec> peers;
  PeerSpec seed_peer;
  seed_peer.node = 0;
  seed_peer.up_bps = 10e6;
  seed_peer.down_bps = 10e6;
  seed_peer.seed = true;
  peers.push_back(seed_peer);
  PeerSpec leecher;
  leecher.node = 0;
  leecher.up_bps = 10e6;
  leecher.down_bps = 10e6;
  peers.push_back(leecher);

  BitTorrentConfig cfg = FastConfig();
  BitTorrentSimulator plain(graph_, routing_, cfg);
  cfg.tcp_window_bytes = 64.0 * 1024;  // 64K/20ms RTT = ~26 Mbps > 10 Mbps
  BitTorrentSimulator windowed(graph_, routing_, cfg);
  TestRandomSelector selector;
  const auto a = plain.Run(peers, selector);
  const auto b = windowed.Run(peers, selector);
  ASSERT_EQ(a.completion_times.size(), 1u);
  ASSERT_EQ(b.completion_times.size(), 1u);
  EXPECT_NEAR(a.completion_times[0], b.completion_times[0],
              0.2 * a.completion_times[0]);
}

}  // namespace
}  // namespace p4p::sim
