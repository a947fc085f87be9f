// End-to-end tests across modules: iTracker price dynamics driving peer
// selection inside the swarm simulator — miniature versions of the paper's
// experiments, asserting the qualitative results (who wins) rather than
// absolute numbers.
#include <gtest/gtest.h>

#include <cmath>

#include "core/apptracker.h"
#include "core/embedding.h"
#include "core/itracker.h"
#include "core/management.h"
#include "core/matching.h"
#include "core/selectors.h"
#include "net/synth.h"
#include "net/topology.h"
#include "proto/service.h"
#include "sim/bittorrent.h"

namespace p4p {
namespace {

std::vector<sim::PeerSpec> ClusteredSwarm(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  sim::PopulationConfig cfg;
  cfg.num_peers = n;
  // Heavy northeastern concentration as in the paper's motivation.
  cfg.pops = {net::kNewYork, net::kWashingtonDC, net::kChicago, net::kAtlanta,
              net::kSeattle, net::kSunnyvale};
  cfg.pop_weights = {6.0, 5.0, 3.0, 2.0, 1.0, 1.0};
  cfg.join_window = 60.0;
  auto peers = MakePopulation(cfg, rng);
  sim::PeerSpec seed_peer;
  seed_peer.node = net::kChicago;
  seed_peer.up_bps = 10e6;
  seed_peer.down_bps = 10e6;
  seed_peer.seed = true;
  peers.push_back(seed_peer);
  return peers;
}

sim::BitTorrentConfig SmallConfig() {
  sim::BitTorrentConfig cfg;
  cfg.file_bytes = 4.0 * 1024 * 1024;
  cfg.block_bytes = 256.0 * 1024;
  cfg.horizon = 6000.0;
  cfg.rng_seed = 5;
  return cfg;
}

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : graph_(net::MakeAbilene()), routing_(graph_) {}
  net::Graph graph_;
  net::RoutingTable routing_;
};

TEST_F(IntegrationTest, P4PReducesBottleneckTrafficVsNative) {
  const auto peers = ClusteredSwarm(60, 42);
  sim::BitTorrentSimulator sim(graph_, routing_, SmallConfig());

  core::NativeRandomSelector native;
  const auto native_result = sim.Run(peers, native);

  core::ITracker tracker(graph_, routing_);
  // Let prices adapt to the native traffic pattern first (warm start), as
  // the paper's iTracker would have converged on pre-arrival conditions.
  std::vector<double> native_rates(graph_.link_count(), 0.0);
  for (std::size_t l = 0; l < graph_.link_count(); ++l) {
    native_rates[l] = native_result.link_bytes[l] / 1000.0 * 8.0;
  }
  for (int i = 0; i < 50; ++i) tracker.Update(native_rates);

  core::P4PSelector p4p;
  p4p.RegisterITracker(1, &tracker);
  const auto p4p_result = sim.Run(peers, p4p);

  const double native_bottleneck =
      native_result.link_bytes[static_cast<std::size_t>(native_result.busiest_link())];
  const double p4p_bottleneck =
      p4p_result.link_bytes[static_cast<std::size_t>(p4p_result.busiest_link())];
  EXPECT_LT(p4p_bottleneck, native_bottleneck);
  // Application performance must not collapse (within 50% of native).
  ASSERT_FALSE(p4p_result.completion_times.empty());
  EXPECT_LT(sim::Mean(p4p_result.completion_times),
            1.5 * sim::Mean(native_result.completion_times));
  EXPECT_DOUBLE_EQ(p4p_result.completed_fraction, 1.0);
}

TEST_F(IntegrationTest, P4PReducesUnitBdp) {
  const auto peers = ClusteredSwarm(50, 43);
  sim::BitTorrentSimulator sim(graph_, routing_, SmallConfig());
  core::NativeRandomSelector native;
  core::ITracker tracker(graph_, routing_);
  core::P4PSelector p4p;
  p4p.RegisterITracker(1, &tracker);
  const auto native_result = sim.Run(peers, native);
  const auto p4p_result = sim.Run(peers, p4p);
  EXPECT_LT(p4p_result.unit_bdp(), native_result.unit_bdp());
}

TEST_F(IntegrationTest, DynamicPriceLoopSteersLiveSwarm) {
  // Protected-link mode as in the Fig. 6 experiment: the iTracker guards
  // DC -> NY and the appTracker refreshes neighbor sets periodically.
  const auto peers = ClusteredSwarm(50, 44);
  auto cfg = SmallConfig();
  cfg.selector_refresh_interval = 30.0;
  // Short epochs: the swarm drains fast, and the price loop must get
  // several updates before it does.
  cfg.epoch_interval = 5.0;
  sim::BitTorrentSimulator sim(graph_, routing_, cfg);

  core::ITrackerConfig tcfg;
  tcfg.mode = core::PriceMode::kProtectedLink;
  core::ITracker tracker(graph_, routing_, tcfg);
  const auto protected_link = graph_.find_link(net::kWashingtonDC, net::kNewYork);
  // The threshold is tiny relative to the 10 Gbps links so that even this
  // small swarm's traffic trips the protection rule.
  tracker.ProtectLink(protected_link, core::ProtectedLinkRule{0.0005, 50.0, 0.05});
  sim.set_on_epoch([&tracker](double, std::span<const double> rates) {
    tracker.Update(rates);
  });

  core::P4PSelector p4p;
  p4p.RegisterITracker(1, &tracker);
  const auto guarded = sim.Run(peers, p4p);

  core::NativeRandomSelector native;
  const auto baseline = sim.Run(peers, native);

  const auto e = static_cast<std::size_t>(protected_link);
  EXPECT_LT(guarded.link_bytes[e], baseline.link_bytes[e]);
  EXPECT_GT(tracker.link_price(protected_link), 0.0);
}

TEST_F(IntegrationTest, MatchingWeightsFlowIntoSelection) {
  // The Pando pipeline: aggregate per-PID capacities -> SolveMatching ->
  // weights -> P4PSelector -> swarm.
  core::ITracker tracker(graph_, routing_);
  const int n = tracker.num_pids();
  core::MatchingInput input;
  input.upload_bps.assign(static_cast<std::size_t>(n), 10e6);
  input.download_bps.assign(static_cast<std::size_t>(n), 10e6);
  const auto view = tracker.external_view();
  input.distances = &view;
  input.beta = 0.9;
  auto matched = core::SolveMatching(input);
  ASSERT_EQ(matched.status, lp::SolveStatus::kOptimal);
  core::ApplyConcaveTransform(matched.weights, 0.5);

  core::P4PSelector p4p;
  p4p.RegisterITracker(1, &tracker);
  p4p.SetMatchingWeights(1, matched.weights);

  const auto peers = ClusteredSwarm(40, 45);
  sim::BitTorrentSimulator sim(graph_, routing_, SmallConfig());
  const auto result = sim.Run(peers, p4p);
  EXPECT_DOUBLE_EQ(result.completed_fraction, 1.0);
}

TEST_F(IntegrationTest, PortalServedDistancesMatchDirectAccess) {
  // appTracker fetches the external view through the wire protocol and gets
  // exactly what the iTracker computes locally.
  core::ITracker tracker(graph_, routing_);
  std::vector<double> traffic(graph_.link_count(), 0.0);
  traffic[3] = 8e9;
  for (int i = 0; i < 10; ++i) tracker.Update(traffic);

  proto::ITrackerService service(&tracker);
  proto::TcpServer server(0, service.handler());
  proto::PortalClient client(std::make_unique<proto::TcpClient>(server.port()));
  const auto remote_view = client.GetExternalView();
  for (core::Pid i = 0; i < tracker.num_pids(); ++i) {
    for (core::Pid j = 0; j < tracker.num_pids(); ++j) {
      EXPECT_DOUBLE_EQ(remote_view.at(i, j), tracker.pdistance(i, j));
    }
  }
}

TEST_F(IntegrationTest, InterdomainDualSuppressesCrossLinkTraffic) {
  // Two virtual ASes (east/west of Abilene); the interdomain dual on the
  // Chicago-KansasCity link should reduce P4P traffic crossing it relative
  // to native.
  const auto inter_ab = graph_.find_link(net::kChicago, net::kKansasCity);
  const auto inter_ba = graph_.find_link(net::kKansasCity, net::kChicago);

  auto peers = ClusteredSwarm(50, 46);
  // Assign AS by side: east nodes AS 1, west AS 2.
  for (auto& p : peers) {
    const bool east = p.node == net::kNewYork || p.node == net::kWashingtonDC ||
                      p.node == net::kChicago || p.node == net::kAtlanta ||
                      p.node == net::kIndianapolis;
    p.as_number = east ? 1 : 2;
  }

  core::ITracker tracker(graph_, routing_);
  tracker.DeclareInterdomainLink(inter_ab, 1e6);  // tight virtual capacity
  tracker.DeclareInterdomainLink(inter_ba, 1e6);

  auto cfg = SmallConfig();
  cfg.epoch_interval = 30.0;
  cfg.selector_refresh_interval = 60.0;
  sim::BitTorrentSimulator sim(graph_, routing_, cfg);
  sim.set_on_epoch([&tracker](double, std::span<const double> rates) {
    tracker.Update(rates);
  });

  core::P4PSelector p4p;
  p4p.RegisterITracker(1, &tracker);
  p4p.RegisterITracker(2, &tracker);
  const auto p4p_result = sim.Run(peers, p4p);
  core::NativeRandomSelector native;
  const auto native_result = sim.Run(peers, native);

  const double p4p_cross =
      p4p_result.link_bytes[static_cast<std::size_t>(inter_ab)] +
      p4p_result.link_bytes[static_cast<std::size_t>(inter_ba)];
  const double native_cross =
      native_result.link_bytes[static_cast<std::size_t>(inter_ab)] +
      native_result.link_bytes[static_cast<std::size_t>(inter_ba)];
  EXPECT_LT(p4p_cross, native_cross);
}

TEST_F(IntegrationTest, WorksOnSynthromaticIspTopologies) {
  // The whole pipeline runs on each Table 1 topology.
  for (const auto& make : {net::MakeIspA, net::MakeIspC}) {
    const net::Graph g = make();
    const net::RoutingTable routing(g);
    core::ITracker tracker(g, routing);
    core::P4PSelector p4p;
    p4p.RegisterITracker(1, &tracker);

    std::mt19937_64 rng(9);
    sim::PopulationConfig pcfg;
    pcfg.num_peers = 30;
    for (net::NodeId n = 0; n < static_cast<net::NodeId>(g.node_count()); ++n) {
      pcfg.pops.push_back(n);
    }
    auto peers = MakePopulation(pcfg, rng);
    sim::PeerSpec seed_peer;
    seed_peer.node = 0;
    seed_peer.up_bps = 10e6;
    seed_peer.down_bps = 10e6;
    seed_peer.seed = true;
    peers.push_back(seed_peer);

    sim::BitTorrentSimulator sim(g, routing, SmallConfig());
    const auto result = sim.Run(peers, p4p);
    EXPECT_DOUBLE_EQ(result.completed_fraction, 1.0) << g.name();
  }
}

TEST_F(IntegrationTest, ManagementMonitorWatchesLiveControlLoop) {
  // Wire the monitor into the epoch callback of a live swarm and verify it
  // records the control loop's behavior.
  core::ITracker tracker(graph_, routing_);
  core::ManagementMonitor monitor;
  auto cfg = SmallConfig();
  cfg.epoch_interval = 10.0;
  sim::BitTorrentSimulator sim(graph_, routing_, cfg);
  sim.set_on_epoch([&](double now, std::span<const double> rates) {
    tracker.Update(rates);
    monitor.Observe(tracker, rates, now);
  });
  core::P4PSelector p4p;
  p4p.RegisterITracker(1, &tracker);
  const auto peers = ClusteredSwarm(40, 49);
  sim.Run(peers, p4p);
  EXPECT_GT(monitor.observation_count(), 1u);
  EXPECT_GT(monitor.MeanMlu(), 0.0);
  EXPECT_LE(monitor.MeanMlu(), 1.1);
}

TEST_F(IntegrationTest, EmbeddedViewPreservesSteering) {
  // The §10 scalability path: embed the view and steer a swarm with the P4P
  // selector weighing inter-PID choices by 1/d over embedded distances.
  core::ITrackerConfig tcfg;
  tcfg.mode = core::PriceMode::kStatic;
  core::ITracker tracker(graph_, routing_, tcfg);
  tracker.SetPricesFromOspf();
  const auto view = tracker.external_view();
  core::EmbeddingConfig ecfg;
  ecfg.dimensions = 6;
  ecfg.iterations = 4000;
  const auto emb = core::CoordinateEmbedding::Fit(view, ecfg);

  const auto n = static_cast<std::size_t>(tracker.num_pids());
  std::vector<std::vector<double>> weights(n, std::vector<double>(n, 0.0));
  for (core::Pid i = 0; i < tracker.num_pids(); ++i) {
    for (core::Pid j = 0; j < tracker.num_pids(); ++j) {
      const double d = emb.Distance(i, j);
      if (i != j && d > 0 && std::isfinite(d)) weights[i][j] = 1.0 / d;
    }
  }
  core::P4PSelector embedded;
  embedded.RegisterITracker(1, &tracker);
  embedded.SetMatchingWeights(1, std::move(weights));
  core::NativeRandomSelector native;
  const auto peers = ClusteredSwarm(50, 50);
  sim::BitTorrentSimulator sim(graph_, routing_, SmallConfig());
  const auto e_result = sim.Run(peers, embedded);
  const auto n_result = sim.Run(peers, native);
  EXPECT_LT(e_result.unit_bdp(), n_result.unit_bdp());
}

}  // namespace
}  // namespace p4p
