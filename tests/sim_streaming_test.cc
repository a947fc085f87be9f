#include "sim/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/topology.h"
#include "sim/peer_buckets.h"

namespace p4p::sim {
namespace {

class StreamRandomSelector final : public PeerSelector {
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
  std::string name() const override { return "StreamRandom"; }
};

std::vector<PeerSpec> StreamingSwarm(const net::Graph& g, int viewers,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  PopulationConfig cfg;
  cfg.num_peers = viewers;
  for (net::NodeId n = 0; n < static_cast<net::NodeId>(g.node_count()); ++n) {
    cfg.pops.push_back(n);
  }
  cfg.join_window = 0.0;
  auto peers = MakePopulation(cfg, rng);
  PeerSpec source;
  source.node = 0;
  source.up_bps = 1e9;
  source.down_bps = 1e9;
  source.seed = true;
  peers.push_back(source);
  return peers;
}

StreamingConfig FastStreamConfig() {
  StreamingConfig cfg;
  cfg.duration = 120.0;
  cfg.stream_rate_bps = 400e3;
  cfg.rng_seed = 21;
  return cfg;
}

class StreamingSimTest : public ::testing::Test {
 protected:
  StreamingSimTest() : graph_(net::MakeAbilene()), routing_(graph_) {}
  net::Graph graph_;
  net::RoutingTable routing_;
};

TEST_F(StreamingSimTest, ViewersReceiveNearStreamRate) {
  const auto peers = StreamingSwarm(graph_, 20, 1);
  StreamingSimulator sim(graph_, routing_, FastStreamConfig());
  StreamRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  ASSERT_EQ(result.peer_throughput_bps.size(), 20u);
  // Average goodput should be within a factor of ~2 of the stream rate
  // (startup transient included) and clearly nonzero.
  EXPECT_GT(result.mean_throughput_bps(), 100e3);
  EXPECT_LT(result.mean_throughput_bps(), 900e3);
}

TEST_F(StreamingSimTest, ContinuityIsReasonable) {
  const auto peers = StreamingSwarm(graph_, 20, 2);
  StreamingSimulator sim(graph_, routing_, FastStreamConfig());
  StreamRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  EXPECT_GT(result.mean_continuity(), 0.5);
  for (double c : result.peer_continuity) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST_F(StreamingSimTest, RequiresExactlyOneSource) {
  auto peers = StreamingSwarm(graph_, 5, 3);
  StreamingSimulator sim(graph_, routing_, FastStreamConfig());
  StreamRandomSelector selector;
  peers.pop_back();  // no source
  EXPECT_THROW(sim.Run(peers, selector), std::invalid_argument);
  auto two_sources = StreamingSwarm(graph_, 5, 3);
  two_sources.back().seed = true;
  two_sources[0].seed = true;
  EXPECT_THROW(sim.Run(two_sources, selector), std::invalid_argument);
}

TEST_F(StreamingSimTest, BackboneVolumeAccounted) {
  const auto peers = StreamingSwarm(graph_, 15, 4);
  StreamingSimulator sim(graph_, routing_, FastStreamConfig());
  StreamRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  EXPECT_GT(result.total_bytes, 0.0);
  EXPECT_GT(result.mean_backbone_volume_bytes(graph_), 0.0);
  double link_total = 0.0;
  for (double b : result.link_bytes) link_total += b;
  EXPECT_NEAR(link_total, result.byte_hops, 1e-3 * std::max(1.0, link_total));
}

TEST_F(StreamingSimTest, DeterministicForSameSeed) {
  const auto peers = StreamingSwarm(graph_, 10, 5);
  StreamingSimulator sim(graph_, routing_, FastStreamConfig());
  StreamRandomSelector selector;
  const auto r1 = sim.Run(peers, selector);
  const auto r2 = sim.Run(peers, selector);
  EXPECT_DOUBLE_EQ(r1.total_bytes, r2.total_bytes);
  EXPECT_DOUBLE_EQ(r1.mean_throughput_bps(), r2.mean_throughput_bps());
}

TEST_F(StreamingSimTest, LocalizedSwarmUsesLessBackbone) {
  // All viewers co-located with the source: zero backbone traffic expected
  // once a local selector keeps streams inside the PoP... but even a random
  // selector produces none here because every peer is at node 0.
  std::vector<PeerSpec> peers;
  for (int i = 0; i < 10; ++i) {
    PeerSpec p;
    p.node = 0;
    p.up_bps = 100e6;
    p.down_bps = 100e6;
    peers.push_back(p);
  }
  PeerSpec source;
  source.node = 0;
  source.up_bps = 1e9;
  source.down_bps = 1e9;
  source.seed = true;
  peers.push_back(source);
  StreamingSimulator sim(graph_, routing_, FastStreamConfig());
  StreamRandomSelector selector;
  const auto result = sim.Run(peers, selector);
  EXPECT_DOUBLE_EQ(result.byte_hops, 0.0);
  EXPECT_GT(result.total_bytes, 0.0);
}

TEST_F(StreamingSimTest, RejectsBadConfig) {
  StreamingConfig cfg;
  cfg.stream_rate_bps = 0;
  EXPECT_THROW(StreamingSimulator(graph_, routing_, cfg), std::invalid_argument);
  cfg = StreamingConfig{};
  cfg.dt = 0;
  EXPECT_THROW(StreamingSimulator(graph_, routing_, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace p4p::sim
