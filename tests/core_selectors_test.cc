#include "core/selectors.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <set>
#include <string>
#include <thread>

#include "net/synth.h"
#include "net/topology.h"

namespace p4p::core {
namespace {

std::vector<sim::PeerInfo> MakeCandidates(
    const std::vector<std::pair<net::NodeId, std::int32_t>>& placements) {
  std::vector<sim::PeerInfo> out;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    sim::PeerInfo p;
    p.id = static_cast<sim::PeerId>(i);
    p.node = placements[i].first;
    p.as_number = placements[i].second;
    p.up_bps = 1e6;
    p.down_bps = 1e6;
    out.push_back(p);
  }
  return out;
}

class SelectorsTest : public ::testing::Test {
 protected:
  SelectorsTest() : graph_(net::MakeAbilene()), routing_(graph_), rng_(1234) {}

  net::Graph graph_;
  net::RoutingTable routing_;
  std::mt19937_64 rng_;
};

TEST_F(SelectorsTest, NativeReturnsDistinctPeersWithoutSelf) {
  NativeRandomSelector sel;
  auto candidates =
      MakeCandidates({{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}});
  const auto client = candidates[0];
  const auto chosen = sel.SelectPeers(client, candidates, 4, rng_);
  EXPECT_EQ(chosen.size(), 4u);
  std::set<sim::PeerId> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), chosen.size());
  EXPECT_EQ(unique.count(client.id), 0u);
}

TEST_F(SelectorsTest, NativeHandlesSmallPools) {
  NativeRandomSelector sel;
  auto candidates = MakeCandidates({{0, 1}, {1, 1}});
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 10, rng_);
  EXPECT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0], 1);
}

TEST_F(SelectorsTest, NativeIsApproximatelyUniform) {
  NativeRandomSelector sel;
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 11; ++i) placements.push_back({i % 11, 1});
  auto candidates = MakeCandidates(placements);
  std::vector<int> counts(11, 0);
  for (int trial = 0; trial < 3000; ++trial) {
    for (sim::PeerId id : sel.SelectPeers(candidates[0], candidates, 3, rng_)) {
      ++counts[static_cast<std::size_t>(id)];
    }
  }
  EXPECT_EQ(counts[0], 0);  // never self
  for (int i = 1; i < 11; ++i) {
    EXPECT_GT(counts[static_cast<std::size_t>(i)], 600);
    EXPECT_LT(counts[static_cast<std::size_t>(i)], 1200);
  }
}

TEST_F(SelectorsTest, LocalizedPrefersNearby) {
  DelayLocalizedSelector sel(routing_, /*jitter=*/0.0);
  // Client in NY; candidates in NY, DC (close) and Seattle, LA (far).
  auto candidates = MakeCandidates({{net::kNewYork, 1},
                                    {net::kNewYork, 1},
                                    {net::kWashingtonDC, 1},
                                    {net::kSeattle, 1},
                                    {net::kLosAngeles, 1}});
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 2, rng_);
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0], 1);  // co-located peer first
  EXPECT_EQ(chosen[1], 2);  // then DC
}

TEST_F(SelectorsTest, LocalizedJitterStillFavorsLocalOverCoastToCoast) {
  DelayLocalizedSelector sel(routing_, /*jitter=*/0.1);
  auto candidates = MakeCandidates(
      {{net::kNewYork, 1}, {net::kWashingtonDC, 1}, {net::kSeattle, 1}});
  int dc_first = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto chosen = sel.SelectPeers(candidates[0], candidates, 1, rng_);
    ASSERT_EQ(chosen.size(), 1u);
    if (chosen[0] == 1) ++dc_first;
  }
  EXPECT_EQ(dc_first, 100);  // 10% jitter can't flip a 10x latency gap
}

TEST_F(SelectorsTest, P4PFallsBackToRandomWithoutTracker) {
  P4PSelector sel;
  auto candidates = MakeCandidates({{0, 1}, {1, 1}, {2, 1}});
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 2, rng_);
  EXPECT_EQ(chosen.size(), 2u);
}

TEST_F(SelectorsTest, P4PRegisterRejectsNull) {
  P4PSelector sel;
  EXPECT_THROW(sel.RegisterITracker(1, nullptr), std::invalid_argument);
}

TEST_F(SelectorsTest, P4PRespectsIntraPidBound) {
  ITracker tracker(graph_, routing_);
  P4PSelectorConfig cfg;
  cfg.upper_bound_intra_pid = 0.5;
  P4PSelector sel(cfg);
  sel.RegisterITracker(1, &tracker);
  // 30 co-located candidates + 30 at another PoP.
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 30; ++i) placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kChicago, 1});
  auto candidates = MakeCandidates(placements);
  for (int trial = 0; trial < 20; ++trial) {
    const auto chosen = sel.SelectPeers(candidates[0], candidates, 10, rng_);
    int local = 0;
    for (sim::PeerId id : chosen) {
      if (candidates[static_cast<std::size_t>(id)].node == net::kNewYork) ++local;
    }
    // Intra-PID quota is floor(0.5 * 10) = 5; the uniform backfill that tops
    // the set up to m (no second AS here) may add at most 2 more locals.
    EXPECT_LE(local, 7);
    EXPECT_EQ(chosen.size(), 10u);
  }
}

TEST_F(SelectorsTest, P4PPrefersLowDistancePids) {
  // Static prices: path through a specific link is expensive.
  ITrackerConfig tcfg;
  tcfg.mode = PriceMode::kStatic;
  ITracker tracker(graph_, routing_, tcfg);
  std::vector<double> prices(graph_.link_count(), 0.01);
  // Make everything toward Seattle very expensive from NY.
  for (net::LinkId e : routing_.path(net::kNewYork, net::kSeattle)) {
    prices[static_cast<std::size_t>(e)] = 10.0;
  }
  tracker.SetStaticPrices(prices);

  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});  // client
  for (int i = 0; i < 20; ++i) placements.push_back({net::kWashingtonDC, 1});
  for (int i = 0; i < 20; ++i) placements.push_back({net::kSeattle, 1});
  auto candidates = MakeCandidates(placements);

  int dc_total = 0;
  int sea_total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    for (sim::PeerId id : sel.SelectPeers(candidates[0], candidates, 10, rng_)) {
      const auto node = candidates[static_cast<std::size_t>(id)].node;
      if (node == net::kWashingtonDC) ++dc_total;
      if (node == net::kSeattle) ++sea_total;
    }
  }
  EXPECT_GT(dc_total, 2 * sea_total);
}

TEST_F(SelectorsTest, P4PInterAsStageFillsRemainder) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  // Client AS 1 has only 2 candidates; AS 2 supplies the rest.
  std::vector<std::pair<net::NodeId, std::int32_t>> placements = {
      {net::kNewYork, 1}, {net::kNewYork, 1}, {net::kChicago, 1}};
  for (int i = 0; i < 20; ++i) placements.push_back({net::kAtlanta, 2});
  auto candidates = MakeCandidates(placements);
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 10, rng_);
  EXPECT_EQ(chosen.size(), 10u);
  int external = 0;
  for (sim::PeerId id : chosen) {
    if (candidates[static_cast<std::size_t>(id)].as_number == 2) ++external;
  }
  EXPECT_GE(external, 7);  // most must come from AS 2
}

TEST_F(SelectorsTest, P4PUsesMatchingWeights) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  // Matching says: NY should peer only with Chicago, never Atlanta.
  std::vector<std::vector<double>> weights(
      graph_.node_count(), std::vector<double>(graph_.node_count(), 0.0));
  weights[net::kNewYork][net::kChicago] = 1.0;
  sel.SetMatchingWeights(1, weights);

  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 15; ++i) placements.push_back({net::kChicago, 1});
  for (int i = 0; i < 15; ++i) placements.push_back({net::kAtlanta, 1});
  auto candidates = MakeCandidates(placements);
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 8, rng_);
  for (sim::PeerId id : chosen) {
    EXPECT_EQ(candidates[static_cast<std::size_t>(id)].node, net::kChicago);
  }
  sel.ClearMatchingWeights(1);
  // After clearing, Atlanta becomes reachable again (eventually).
  int atlanta = 0;
  for (int trial = 0; trial < 30; ++trial) {
    for (sim::PeerId id : sel.SelectPeers(candidates[0], candidates, 8, rng_)) {
      if (candidates[static_cast<std::size_t>(id)].node == net::kAtlanta) ++atlanta;
    }
  }
  EXPECT_GT(atlanta, 0);
}

TEST_F(SelectorsTest, P4PNeverReturnsSelfOrDuplicates) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 40; ++i) {
    placements.push_back({static_cast<net::NodeId>(i % 11), i % 3 == 0 ? 2 : 1});
  }
  auto candidates = MakeCandidates(placements);
  for (int trial = 0; trial < 30; ++trial) {
    const auto client = candidates[static_cast<std::size_t>(trial % 40)];
    const auto chosen = sel.SelectPeers(client, candidates, 12, rng_);
    std::set<sim::PeerId> unique(chosen.begin(), chosen.end());
    EXPECT_EQ(unique.size(), chosen.size());
    EXPECT_EQ(unique.count(client.id), 0u);
    EXPECT_LE(chosen.size(), 12u);
  }
}

TEST_F(SelectorsTest, BlackBoxPicksCheaperSetThanInnerOnAverage) {
  ITracker tracker(graph_, routing_);
  auto inner = std::make_unique<NativeRandomSelector>();
  BlackBoxSelector bb(std::move(inner), tracker, 6);
  NativeRandomSelector plain;

  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 10; ++i) placements.push_back({net::kWashingtonDC, 1});
  for (int i = 0; i < 10; ++i) placements.push_back({net::kSeattle, 1});
  auto candidates = MakeCandidates(placements);

  auto cost_of = [&](const std::vector<sim::PeerId>& set) {
    double c = 0.0;
    for (sim::PeerId id : set) {
      c += tracker.pdistance(net::kNewYork, candidates[static_cast<std::size_t>(id)].node);
    }
    return c;
  };
  double bb_cost = 0.0;
  double plain_cost = 0.0;
  for (int trial = 0; trial < 40; ++trial) {
    bb_cost += cost_of(bb.SelectPeers(candidates[0], candidates, 5, rng_));
    plain_cost += cost_of(plain.SelectPeers(candidates[0], candidates, 5, rng_));
  }
  EXPECT_LT(bb_cost, plain_cost);
}

TEST_F(SelectorsTest, BlackBoxValidation) {
  ITracker tracker(graph_, routing_);
  EXPECT_THROW(BlackBoxSelector(nullptr, tracker, 3), std::invalid_argument);
  EXPECT_THROW(BlackBoxSelector(std::make_unique<NativeRandomSelector>(), tracker, 0),
               std::invalid_argument);
}

TEST_F(SelectorsTest, SelectorNames) {
  EXPECT_EQ(NativeRandomSelector().name(), "Native");
  EXPECT_EQ(DelayLocalizedSelector(routing_).name(), "Localized");
  EXPECT_EQ(P4PSelector().name(), "P4P");
  ITracker tracker(graph_, routing_);
  BlackBoxSelector bb(std::make_unique<NativeRandomSelector>(), tracker, 2);
  EXPECT_EQ(bb.name(), "BlackBox(Native)");
}

TEST_F(SelectorsTest, LocalizedSubsetLimitsVisibility) {
  // With a tracker-revealed subset much smaller than the swarm, even a
  // latency-ranking client must take peers beyond its own PoP.
  DelayLocalizedSelector sel(routing_, 0.0, 5.0, 0.0, /*subset=*/10);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});  // client
  for (int i = 0; i < 100; ++i) placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 100; ++i) placements.push_back({net::kWashingtonDC, 1});
  auto candidates = MakeCandidates(placements);
  int dc = 0;
  for (int trial = 0; trial < 50; ++trial) {
    for (sim::PeerId id : sel.SelectPeers(candidates[0], candidates, 8, rng_)) {
      if (candidates[static_cast<std::size_t>(id)].node == net::kWashingtonDC) ++dc;
    }
  }
  // A 10-peer subset of a 50/50 swarm averages ~5 NY peers; the other ~3-5
  // picks must come from DC.
  EXPECT_GT(dc, 50);
}

TEST_F(SelectorsTest, LocalizedSubsetZeroRanksEveryone) {
  DelayLocalizedSelector sel(routing_, 0.0, 5.0, 0.0, /*subset=*/0);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kSeattle, 1});
  auto candidates = MakeCandidates(placements);
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 10, rng_);
  for (sim::PeerId id : chosen) {
    EXPECT_EQ(candidates[static_cast<std::size_t>(id)].node, net::kNewYork);
  }
}

TEST_F(SelectorsTest, P4PZeroDistanceWeightScalesWithPriceMagnitude) {
  // Regression: with dual prices at ~1e-12 scale, a penalized PID must not
  // out-weigh free PIDs (1/p can exceed any fixed "large value").
  ITrackerConfig tcfg;
  tcfg.mode = PriceMode::kStatic;
  ITracker tracker(graph_, routing_, tcfg);
  std::vector<double> prices(graph_.link_count(), 0.0);
  for (net::LinkId e : routing_.path(net::kNewYork, net::kWashingtonDC)) {
    prices[static_cast<std::size_t>(e)] = 1e-12;  // tiny but positive
  }
  tracker.SetStaticPrices(prices);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);

  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 20; ++i) placements.push_back({net::kWashingtonDC, 1});
  for (int i = 0; i < 20; ++i) placements.push_back({net::kChicago, 1});
  auto candidates = MakeCandidates(placements);
  int dc = 0;
  int chi = 0;
  for (int trial = 0; trial < 60; ++trial) {
    for (sim::PeerId id : sel.SelectPeers(candidates[0], candidates, 8, rng_)) {
      const auto node = candidates[static_cast<std::size_t>(id)].node;
      if (node == net::kWashingtonDC) ++dc;
      if (node == net::kChicago) ++chi;
    }
  }
  // Chicago has p = 0 toward NY in this setup? No: Chicago path has no
  // priced link, so its distance is 0 and must dominate the penalized DC.
  EXPECT_GT(chi, dc);
}

// --- bucket-aware selection (SelectFromBuckets) ------------------------------
//
// The index-driven path must be a drop-in replacement for the span path:
// same invariants (distinctness, never the client, full sets when the swarm
// allows), same stage quotas, and the same locality preferences — checked
// against the flat candidate array as the oracle.

sim::PeerBuckets MakeStore(std::span<const sim::PeerInfo> candidates) {
  sim::PeerBuckets store;
  for (const auto& c : candidates) store.Insert(c);
  return store;
}

TEST_F(SelectorsTest, BucketNativeMatchesSpanInvariants) {
  NativeRandomSelector sel;
  auto candidates =
      MakeCandidates({{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}});
  const auto store = MakeStore(candidates);
  // Client is a member of the store: must be excluded by slot.
  const auto chosen = sel.SelectFromBuckets(candidates[0], store, 4, rng_);
  EXPECT_EQ(chosen.size(), 4u);
  std::set<sim::PeerId> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), chosen.size());
  EXPECT_EQ(unique.count(candidates[0].id), 0u);
  // Asking for more than available returns everyone else.
  const auto all = sel.SelectFromBuckets(candidates[0], store, 50, rng_);
  EXPECT_EQ(all.size(), 5u);
  // m <= 0 and empty swarms are no-ops.
  EXPECT_TRUE(sel.SelectFromBuckets(candidates[0], store, 0, rng_).empty());
  sim::PeerBuckets empty;
  EXPECT_TRUE(sel.SelectFromBuckets(candidates[0], empty, 4, rng_).empty());
}

TEST_F(SelectorsTest, BucketNativeIsApproximatelyUniform) {
  NativeRandomSelector sel;
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 11; ++i) placements.push_back({i % 11, 1 + i % 2});
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  std::vector<int> counts(11, 0);
  for (int trial = 0; trial < 3000; ++trial) {
    for (sim::PeerId id : sel.SelectFromBuckets(candidates[0], store, 3, rng_)) {
      ++counts[static_cast<std::size_t>(id)];
    }
  }
  EXPECT_EQ(counts[0], 0);  // never self
  for (int i = 1; i < 11; ++i) {
    EXPECT_GT(counts[static_cast<std::size_t>(i)], 600);
    EXPECT_LT(counts[static_cast<std::size_t>(i)], 1200);
  }
}

TEST_F(SelectorsTest, BucketP4PRespectsIntraPidBound) {
  ITracker tracker(graph_, routing_);
  P4PSelectorConfig cfg;
  cfg.upper_bound_intra_pid = 0.5;
  P4PSelector sel(cfg);
  sel.RegisterITracker(1, &tracker);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 30; ++i) placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kChicago, 1});
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  for (int trial = 0; trial < 20; ++trial) {
    const auto chosen = sel.SelectFromBuckets(candidates[0], store, 10, rng_);
    int local = 0;
    for (sim::PeerId id : chosen) {
      if (candidates[static_cast<std::size_t>(id)].node == net::kNewYork) ++local;
    }
    // Same bound as the span path: quota floor(0.5 * 10) = 5, plus at most
    // 2 locals from the uniform backfill.
    EXPECT_LE(local, 7);
    EXPECT_EQ(chosen.size(), 10u);
  }
}

TEST_F(SelectorsTest, BucketP4PMatchesSpanPathPreferences) {
  // Same expensive-toward-Seattle setup as the span test; the bucket path
  // must show the same preference ordering at comparable rates.
  ITrackerConfig tcfg;
  tcfg.mode = PriceMode::kStatic;
  ITracker tracker(graph_, routing_, tcfg);
  std::vector<double> prices(graph_.link_count(), 0.01);
  for (net::LinkId e : routing_.path(net::kNewYork, net::kSeattle)) {
    prices[static_cast<std::size_t>(e)] = 10.0;
  }
  tracker.SetStaticPrices(prices);

  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});  // client
  for (int i = 0; i < 20; ++i) placements.push_back({net::kWashingtonDC, 1});
  for (int i = 0; i < 20; ++i) placements.push_back({net::kSeattle, 1});
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);

  int span_dc = 0, span_sea = 0, bucket_dc = 0, bucket_sea = 0;
  for (int trial = 0; trial < 50; ++trial) {
    for (sim::PeerId id : sel.SelectPeers(candidates[0], candidates, 10, rng_)) {
      const auto node = candidates[static_cast<std::size_t>(id)].node;
      span_dc += node == net::kWashingtonDC;
      span_sea += node == net::kSeattle;
    }
    for (sim::PeerId id : sel.SelectFromBuckets(candidates[0], store, 10, rng_)) {
      const auto node = candidates[static_cast<std::size_t>(id)].node;
      bucket_dc += node == net::kWashingtonDC;
      bucket_sea += node == net::kSeattle;
    }
  }
  EXPECT_GT(bucket_dc, 2 * bucket_sea);  // same shape as the span assertion
  // Rates agree between paths within a loose statistical band.
  EXPECT_NEAR(static_cast<double>(bucket_dc) / (bucket_dc + bucket_sea),
              static_cast<double>(span_dc) / (span_dc + span_sea), 0.15);
}

TEST_F(SelectorsTest, BucketP4PInterAsStageFillsRemainder) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements = {
      {net::kNewYork, 1}, {net::kNewYork, 1}, {net::kChicago, 1}};
  for (int i = 0; i < 20; ++i) placements.push_back({net::kAtlanta, 2});
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  const auto chosen = sel.SelectFromBuckets(candidates[0], store, 10, rng_);
  EXPECT_EQ(chosen.size(), 10u);
  int external = 0;
  for (sim::PeerId id : chosen) {
    if (candidates[static_cast<std::size_t>(id)].as_number == 2) ++external;
  }
  EXPECT_GE(external, 7);
}

TEST_F(SelectorsTest, BucketP4PUsesMatchingWeights) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  std::vector<std::vector<double>> weights(
      graph_.node_count(), std::vector<double>(graph_.node_count(), 0.0));
  weights[net::kNewYork][net::kChicago] = 1.0;
  sel.SetMatchingWeights(1, weights);

  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 15; ++i) placements.push_back({net::kChicago, 1});
  for (int i = 0; i < 15; ++i) placements.push_back({net::kAtlanta, 1});
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  const auto chosen = sel.SelectFromBuckets(candidates[0], store, 8, rng_);
  for (sim::PeerId id : chosen) {
    EXPECT_EQ(candidates[static_cast<std::size_t>(id)].node, net::kChicago);
  }
}

TEST_F(SelectorsTest, BucketP4PFallsBackToRandomWithoutTracker) {
  P4PSelector sel;
  auto candidates = MakeCandidates({{0, 1}, {1, 1}, {2, 1}});
  const auto store = MakeStore(candidates);
  const auto chosen = sel.SelectFromBuckets(candidates[0], store, 2, rng_);
  EXPECT_EQ(chosen.size(), 2u);
}

TEST_F(SelectorsTest, BucketP4PNeverReturnsSelfOrDuplicates) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  sel.RegisterITracker(2, &tracker);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 40; ++i) {
    placements.push_back({static_cast<net::NodeId>(i % 11), i % 3 == 0 ? 2 : 1});
  }
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  for (int trial = 0; trial < 30; ++trial) {
    const auto client = candidates[static_cast<std::size_t>(trial % 40)];
    const auto chosen = sel.SelectFromBuckets(client, store, 12, rng_);
    std::set<sim::PeerId> unique(chosen.begin(), chosen.end());
    EXPECT_EQ(unique.size(), chosen.size());
    EXPECT_EQ(unique.count(client.id), 0u);
    EXPECT_EQ(chosen.size(), 12u);  // 39 other members: always a full set
  }
}

TEST_F(SelectorsTest, BucketP4PHandlesNonMemberClient) {
  // The announce plane selects before inserting the client: the client is
  // not in the store and every member is fair game.
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  auto candidates = MakeCandidates({{0, 1}, {0, 1}, {1, 1}});
  const auto store = MakeStore(candidates);
  sim::PeerInfo joiner;
  joiner.id = 999;
  joiner.node = 0;
  joiner.as_number = 1;
  const auto chosen = sel.SelectFromBuckets(joiner, store, 3, rng_);
  EXPECT_EQ(chosen.size(), 3u);
}

TEST_F(SelectorsTest, DefaultBucketShimDelegatesToSpanPath) {
  // Selectors without a bucket-aware override (e.g. delay-localized) run
  // through the flatten shim and keep their semantics.
  DelayLocalizedSelector sel(routing_, 0.0, 5.0, 0.0, /*subset=*/0);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kSeattle, 1});
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  const auto chosen = sel.SelectFromBuckets(candidates[0], store, 10, rng_);
  ASSERT_EQ(chosen.size(), 10u);
  for (sim::PeerId id : chosen) {
    EXPECT_EQ(candidates[static_cast<std::size_t>(id)].node, net::kNewYork);
  }
}


// Golden peer sets for a fixed swarm and seed. They fix which p-distances
// each selection reads and the order of its RNG draws: a change to either
// shows up here as a different id list.
std::string FormatSets(const std::vector<std::vector<sim::PeerId>>& sets) {
  std::string out;
  for (const auto& set : sets) {
    out += "{";
    for (std::size_t i = 0; i < set.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(set[i]);
    }
    out += "},\n";
  }
  return out;
}

class SelectorsGoldenTest : public SelectorsTest {
 protected:
  SelectorsGoldenTest() : tracker_(graph_, routing_, StaticNoisy()) {
    std::vector<double> prices(graph_.link_count());
    for (std::size_t e = 0; e < prices.size(); ++e) {
      prices[e] = 0.01 * static_cast<double>(1 + e % 5);
    }
    tracker_.SetStaticPrices(prices);
    std::vector<std::pair<net::NodeId, std::int32_t>> placements;
    for (int i = 0; i < 90; ++i) {
      placements.push_back({static_cast<net::NodeId>((i * 7) % 11), i % 3 == 0 ? 2 : 1});
    }
    candidates_ = MakeCandidates(placements);
    joiner_.id = 500;
    joiner_.node = net::kAtlanta;
    joiner_.as_number = 2;
  }

  static ITrackerConfig StaticNoisy() {
    ITrackerConfig cfg;
    cfg.mode = PriceMode::kStatic;
    cfg.privacy_noise = 0.05;
    return cfg;
  }

  ITracker tracker_;
  std::vector<sim::PeerInfo> candidates_;
  sim::PeerInfo joiner_;
};

TEST_F(SelectorsGoldenTest, BucketAndSpanPeerSetsAreBitIdentical) {
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker_);
  sel.RegisterITracker(2, &tracker_);
  P4PSelector matched;
  matched.RegisterITracker(1, &tracker_);
  std::vector<std::vector<double>> weights(
      graph_.node_count(), std::vector<double>(graph_.node_count(), 0.0));
  weights[7][3] = 2.0;  // candidates_[1] sits at PID 7
  weights[7][5] = 1.0;
  matched.SetMatchingWeights(1, weights);
  const auto store = MakeStore(candidates_);
  const std::span<const sim::PeerInfo> few(candidates_.data(), 6);
  const auto small = MakeStore(few);

  std::mt19937_64 rng(2024);
  std::vector<std::vector<sim::PeerId>> sets;
  for (const auto& client : {candidates_[0], candidates_[5], candidates_[13], joiner_}) {
    for (int m : {12, 30}) {
      sets.push_back(sel.SelectFromBuckets(client, store, m, rng));
      sets.push_back(sel.SelectPeers(client, candidates_, m, rng));
    }
  }
  sets.push_back(sel.SelectFromBuckets(candidates_[1], small, 10, rng));
  sets.push_back(sel.SelectPeers(candidates_[1], few, 10, rng));
  sets.push_back(matched.SelectFromBuckets(candidates_[1], store, 12, rng));
  sets.push_back(matched.SelectPeers(candidates_[1], candidates_, 12, rng));
  BlackBoxSelector bb(std::make_unique<NativeRandomSelector>(), tracker_, 4);
  sets.push_back(bb.SelectPeers(candidates_[0], candidates_, 12, rng));

  const std::vector<std::vector<sim::PeerId>> golden = {
      {9, 33, 48, 44, 66, 63, 11, 30, 24, 69, 62, 81},
      {33, 66, 30, 15, 63, 9, 57, 24, 84, 11, 55, 46},
      {54, 87, 30, 44, 82, 36, 48, 84, 75, 60, 51, 12, 78, 63, 81,
       42, 47, 69, 77, 27, 57, 16, 25, 21, 66, 33, 15, 24, 3, 45},
      {66, 33, 15, 30, 87, 48, 54, 75, 18, 63, 84, 27, 60, 81, 36,
       51, 21, 3, 9, 12, 24, 39, 57, 6, 59, 11, 55, 10, 40, 22},
      {30, 62, 49, 16, 68, 56, 38, 71, 60, 82, 45, 74},
      {71, 38, 16, 82, 49, 64, 32, 25, 2, 27, 54, 60},
      {65, 50, 26, 49, 79, 59, 85, 20, 76, 32, 38, 19, 60, 68, 45,
       28, 2, 35, 55, 52, 43, 56, 87, 17, 16, 27, 84, 18, 82, 71},
      {38, 49, 82, 16, 71, 10, 22, 23, 41, 19, 70, 64, 59, 83, 26,
       37, 13, 4, 52, 65, 43, 61, 40, 79, 12, 6, 60, 27, 78, 36},
      {24, 79, 51, 46, 57, 68, 53, 2, 35, 8, 83, 32},
      {35, 2, 68, 46, 79, 52, 11, 55, 65, 0, 57, 48},
      {38, 16, 2, 35, 11, 62, 83, 79, 49, 28, 89, 65, 32, 36, 57,
       86, 84, 54, 40, 85, 52, 68, 8, 58, 82, 46, 10, 45, 64, 24},
      {79, 2, 46, 35, 68, 41, 43, 65, 52, 74, 25, 17, 4, 76, 37,
       19, 26, 23, 8, 59, 85, 62, 82, 67, 21, 24, 45, 54, 51, 63},
      {66, 75, 39, 89, 9, 82, 42, 63, 60, 54, 34, 84},
      {9, 75, 42, 45, 66, 87, 27, 12, 60, 89, 44, 10},
      {27, 14, 54, 60, 15, 47, 20, 39, 72, 75, 78, 30, 57, 9, 87,
       3, 84, 63, 12, 85, 45, 67, 6, 68, 24, 36, 51, 18, 42, 48},
      {42, 9, 75, 30, 51, 27, 45, 60, 63, 36, 6, 3, 24, 0, 78,
       39, 87, 12, 72, 48, 33, 84, 54, 69, 32, 64, 20, 34, 53, 37},
      {2, 0, 5, 4, 3},
      {5, 2, 4, 3, 0},
      {67, 34, 79, 7, 73, 56, 89, 78, 46, 54, 23, 12},
      {89, 56, 23, 67, 34, 46, 35, 13, 68, 12, 24, 45},
      {87, 88, 39, 8, 19, 27, 30, 64, 86, 89, 16, 70},
  };
  EXPECT_EQ(sets, golden) << FormatSets(sets);
}

// A three-PID network whose PID 2 has no links: every pair with it is
// unreachable.
class SelectorsErrorTest : public ::testing::Test {
 protected:
  SelectorsErrorTest()
      : graph_(Islanded()), routing_(graph_), tracker_(graph_, routing_) {
    sel_.RegisterITracker(1, &tracker_);
  }

  static net::Graph Islanded() {
    net::Graph g;
    for (int i = 0; i < 3; ++i) g.add_node("pid" + std::to_string(i));
    g.add_duplex_link(0, 1, 1e9);
    return g;
  }

  net::Graph graph_;
  net::RoutingTable routing_;
  ITracker tracker_;
  P4PSelector sel_;
  std::mt19937_64 rng_{7};
};

TEST_F(SelectorsErrorTest, UnreachablePidThrowsRuntimeError) {
  const auto candidates = MakeCandidates({{0, 1}, {1, 1}, {2, 1}});
  const auto store = MakeStore(candidates);
  EXPECT_THROW(sel_.SelectFromBuckets(candidates[0], store, 2, rng_), std::runtime_error);
  EXPECT_THROW(sel_.SelectPeers(candidates[0], candidates, 2, rng_), std::runtime_error);
  BlackBoxSelector bb(std::make_unique<NativeRandomSelector>(), tracker_, 2);
  EXPECT_THROW(bb.SelectPeers(candidates[0], candidates, 2, rng_), std::runtime_error);
}

TEST_F(SelectorsErrorTest, BadPidThrowsOutOfRange) {
  // A candidate PID outside the client's view, and a client PID outside it.
  const auto far = MakeCandidates({{0, 1}, {1, 1}, {9, 1}});
  const auto far_store = MakeStore(far);
  EXPECT_THROW(sel_.SelectFromBuckets(far[0], far_store, 2, rng_), std::out_of_range);
  EXPECT_THROW(sel_.SelectPeers(far[0], far, 2, rng_), std::out_of_range);
  const auto lost = MakeCandidates({{9, 1}, {0, 1}, {1, 1}});
  const auto lost_store = MakeStore(lost);
  EXPECT_THROW(sel_.SelectFromBuckets(lost[0], lost_store, 2, rng_), std::out_of_range);
  EXPECT_THROW(sel_.SelectPeers(lost[0], lost, 2, rng_), std::out_of_range);
}

TEST_F(SelectorsErrorTest, LocalOnlySwarmNeverReadsADistance) {
  // Every candidate shares the client's PID, so no pair is priced: PIDs are
  // checked only when a distance is read, and this client's is never read.
  const auto candidates = MakeCandidates({{9, 1}, {9, 1}, {9, 1}});
  const auto store = MakeStore(candidates);
  EXPECT_EQ(sel_.SelectFromBuckets(candidates[0], store, 2, rng_).size(), 2u);
  EXPECT_EQ(sel_.SelectPeers(candidates[0], candidates, 2, rng_).size(), 2u);
}

// --- weight rows per snapshot --------------------------------------------
//
// SelectWithWorkspace caches each PID's concave weight per pinned snapshot
// and gamma. The cache must leave every peer set as the normalized
// arithmetic chose it, stay correct as prices, gammas and trackers change
// under one workspace, and stay consistent while another thread reprices.

constexpr int kDigestAses = 4;

ITrackerConfig StaticConfig() {
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  return cfg;
}

/// Link prices for repricing round `round`, with a zero price on every
/// fifth link so some PID pairs sit at zero distance.
std::vector<double> RoundPrices(const net::Graph& graph, int round) {
  std::vector<double> prices(graph.link_count());
  for (std::size_t e = 0; e < prices.size(); ++e) {
    const std::size_t k = e + static_cast<std::size_t>(round);
    prices[e] = k % 5 == 0 ? 0.0 : 0.01 * static_cast<double>(1 + k % 7);
  }
  return prices;
}

/// A swarm of `size` peers on random PIDs of `num_pids` over kDigestAses
/// ASes, with ids starting at `first_id`.
std::vector<sim::PeerInfo> RandomSwarm(int size, int num_pids, sim::PeerId first_id,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<sim::PeerInfo> out;
  for (int i = 0; i < size; ++i) {
    sim::PeerInfo p;
    p.id = first_id + i;
    p.node = static_cast<net::NodeId>(rng() % static_cast<std::uint64_t>(num_pids));
    p.as_number = static_cast<std::int32_t>(1 + rng() % kDigestAses);
    p.up_bps = 1e6;
    p.down_bps = 1e6;
    out.push_back(p);
  }
  return out;
}

std::uint64_t Fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// ISP-B x 4 ASes: AS 1 and 2 are priced by OSPF weights, AS 3 and 4 by a
/// second tracker that tests reprice.
class SelectorsWeightRowTest : public ::testing::Test {
 protected:
  SelectorsWeightRowTest()
      : graph_(net::MakeIspB()),
        routing_(graph_),
        ospf_(graph_, routing_, StaticConfig()),
        moving_(graph_, routing_, StaticConfig()),
        big_(RandomSwarm(2000, num_pids(), 0, 11)),
        sparse_(RandomSwarm(200, num_pids(), 30000, 14)),
        mid_(RandomSwarm(30, num_pids(), 10000, 12)),
        tiny_(RandomSwarm(5, num_pids(), 20000, 13)),
        big_store_(MakeStore(big_)),
        sparse_store_(MakeStore(sparse_)),
        mid_store_(MakeStore(mid_)),
        tiny_store_(MakeStore(tiny_)) {
    ospf_.SetPricesFromOspf();
    moving_.SetStaticPrices(RoundPrices(graph_, 0));
  }

  int num_pids() const { return static_cast<int>(graph_.node_count()); }

  void Register(P4PSelector& sel) {
    sel.RegisterITracker(1, &ospf_);
    sel.RegisterITracker(2, &ospf_);
    sel.RegisterITracker(3, &moving_);
    sel.RegisterITracker(4, &moving_);
  }

  /// Sparse matching weights for AS 1: each source PID matches three PIDs.
  std::vector<std::vector<double>> SparseMatching() const {
    const auto n = static_cast<std::size_t>(num_pids());
    std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 1; k <= 3; ++k) w[i][(i * 7 + k * 11) % n] = static_cast<double>(k);
    }
    return w;
  }

  /// Selects with `ws` and with a cold workspace from the same rng state,
  /// expects the same set, and advances `rng` past the draw.
  void ExpectWarmEqualsCold(P4PSelector& sel, const sim::PeerInfo& client,
                            const sim::PeerBuckets& store, int m, std::mt19937_64& rng,
                            SelectionWorkspace& ws) {
    std::mt19937_64 cold_rng = rng;
    const auto warm = sel.SelectWithWorkspace(client, store, m, rng, ws);
    SelectionWorkspace cold;
    EXPECT_EQ(warm, sel.SelectWithWorkspace(client, store, m, cold_rng, cold));
    EXPECT_EQ(rng, cold_rng);
  }

  net::Graph graph_;
  net::RoutingTable routing_;
  ITracker ospf_;
  ITracker moving_;
  std::vector<sim::PeerInfo> big_;
  std::vector<sim::PeerInfo> sparse_;
  std::vector<sim::PeerInfo> mid_;
  std::vector<sim::PeerInfo> tiny_;
  sim::PeerBuckets big_store_;
  sim::PeerBuckets sparse_store_;
  sim::PeerBuckets mid_store_;
  sim::PeerBuckets tiny_store_;
};

TEST_F(SelectorsWeightRowTest, PeerSetDigestMatchesNormalizedWeights) {
  // 7000 peer sets over stages that cannot run dry (2000 peers at m=20)
  // and stages that must (30 peers at m=20, 5 peers at m=10), with and
  // without matching weights, while `moving_` reprices every 100 calls. In
  // the 200-peer swarm a matched stage has more candidates than its quota
  // but only a few on matched PIDs, so it runs dry by its weights.
  // kDigest was recorded by running this test against the selector as it
  // was before the weight cache, when every stage normalized and called
  // pow() per bucket: a peer set the cache changed would change it.
  constexpr std::uint64_t kDigest = 0xD49E4DF1DE51E40CULL;
  P4PSelector sel;
  Register(sel);
  P4PSelector matched;
  Register(matched);
  matched.SetMatchingWeights(1, SparseMatching());

  std::mt19937_64 rng(77);
  std::mt19937_64 pick(78);
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  int round = 0;
  constexpr int kCalls = 7000;
  for (int call = 0; call < kCalls; ++call) {
    if (call % 100 == 99) moving_.SetStaticPrices(RoundPrices(graph_, ++round));
    const int c = call % 7;
    const auto& swarm = c == 2 || c == 5 ? mid_ : c == 3 ? tiny_ : c == 6 ? sparse_ : big_;
    const auto& store = c == 2 || c == 5 ? mid_store_
                        : c == 3         ? tiny_store_
                        : c == 6         ? sparse_store_
                                         : big_store_;
    P4PSelector& s = c >= 4 ? matched : sel;
    // Mostly members; every eighth client is a newcomer.
    sim::PeerInfo client = swarm[pick() % swarm.size()];
    if (call % 8 == 7) {
      client.id = 90000 + call;
      client.node = static_cast<net::NodeId>(pick() % static_cast<std::uint64_t>(num_pids()));
    }
    const auto set = s.SelectFromBuckets(client, store, c == 3 ? 10 : 20, rng);
    digest = Fnv1a(digest, set.size());
    for (sim::PeerId id : set) digest = Fnv1a(digest, static_cast<std::uint64_t>(id));
  }
  EXPECT_EQ(digest, kDigest) << std::hex << digest;
}

TEST_F(SelectorsWeightRowTest, RepricedViewMatchesColdWorkspace) {
  P4PSelector sel;
  Register(sel);
  SelectionWorkspace ws;
  std::mt19937_64 rng(5);
  sim::PeerInfo client = big_[3];
  client.as_number = 3;
  for (int round = 1; round <= 4; ++round) {
    for (int i = 0; i < 50; ++i) ExpectWarmEqualsCold(sel, client, big_store_, 20, rng, ws);
    moving_.SetStaticPrices(RoundPrices(graph_, round));
  }
  for (int i = 0; i < 50; ++i) ExpectWarmEqualsCold(sel, client, big_store_, 20, rng, ws);
}

TEST_F(SelectorsWeightRowTest, GammasShareOneWorkspace) {
  P4PSelector soft;
  Register(soft);
  P4PSelectorConfig cfg;
  cfg.concave_gamma = 2.0;
  P4PSelector sharp(cfg);
  Register(sharp);
  SelectionWorkspace ws;
  std::mt19937_64 rng(6);
  for (int i = 0; i < 200; ++i) {
    ExpectWarmEqualsCold(i % 2 ? sharp : soft, big_[static_cast<std::size_t>(i)], big_store_,
                         20, rng, ws);
  }
}

TEST_F(SelectorsWeightRowTest, TrackersAlternateOnOneWorkspace) {
  P4PSelector sel;
  Register(sel);
  moving_.SetStaticPrices(RoundPrices(graph_, 3));
  sim::PeerInfo ospf_client = big_[0];
  sim::PeerInfo moving_client = big_[0];
  ospf_client.id = moving_client.id = 50000;
  ospf_client.as_number = 1;
  moving_client.as_number = 3;
  SelectionWorkspace ws;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 200; ++i) {
    ExpectWarmEqualsCold(sel, i % 2 ? moving_client : ospf_client, big_store_, 20, rng, ws);
  }
}

class SelectorsConcurrency : public SelectorsWeightRowTest {};

TEST_F(SelectorsConcurrency, RepriceMatchesColdReplay) {
  // Four announce threads select through their warm per-thread workspaces
  // while a fifth thread reprices `moving_`. Each thread replays every
  // selection on a cold workspace and compares whenever no reprice landed
  // in between. The repricer waits for two more selections per thread
  // after each reprice, so every round is compared at least once.
  constexpr int kThreads = 4;
  constexpr int kRounds = 30;
  P4PSelector sel;
  Register(sel);
  std::array<std::atomic<int>, kThreads> iterations{};
  std::array<std::atomic<int>, kThreads> compared{};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(100 + static_cast<std::uint64_t>(t));
      for (std::size_t i = 0; !stop.load(); ++i) {
        sim::PeerInfo client = big_[(i * 37 + static_cast<std::size_t>(t)) % big_.size()];
        client.as_number = 3 + t % 2;
        const std::uint64_t before = moving_.version();
        std::mt19937_64 cold_rng = rng;
        const auto warm = sel.SelectFromBuckets(client, big_store_, 20, rng);
        SelectionWorkspace cold;
        const auto replay = sel.SelectWithWorkspace(client, big_store_, 20, cold_rng, cold);
        if (moving_.version() == before) {
          EXPECT_EQ(warm, replay);
          compared[t].fetch_add(1);
        }
        iterations[t].fetch_add(1);
      }
    });
  }
  for (int round = 1; round <= kRounds; ++round) {
    moving_.SetStaticPrices(RoundPrices(graph_, round));
    std::array<int, kThreads> base{};
    for (int t = 0; t < kThreads; ++t) base[t] = iterations[t].load();
    for (int t = 0; t < kThreads; ++t) {
      while (iterations[t].load() < base[t] + 2) std::this_thread::yield();
    }
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_GE(compared[t].load(), kRounds);
}

}  // namespace
}  // namespace p4p::core
