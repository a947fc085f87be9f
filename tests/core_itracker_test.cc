#include "core/itracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "net/synth.h"
#include "net/topology.h"

namespace p4p::core {
namespace {

class ITrackerTest : public ::testing::Test {
 protected:
  ITrackerTest() : graph_(net::MakeAbilene()), routing_(graph_) {}

  double SimplexSum(const ITracker& tracker) const {
    double s = 0.0;
    for (std::size_t e = 0; e < graph_.link_count(); ++e) {
      s += tracker.link_price(static_cast<net::LinkId>(e)) *
           graph_.link(static_cast<net::LinkId>(e)).capacity_bps;
    }
    return s;
  }

  std::vector<double> ZeroTraffic() const {
    return std::vector<double>(graph_.link_count(), 0.0);
  }

  net::Graph graph_;
  net::RoutingTable routing_;
};

TEST_F(ITrackerTest, SuperGradientInitializesOnSimplex) {
  ITracker tracker(graph_, routing_);
  EXPECT_NEAR(SimplexSum(tracker), 1.0, 1e-9);
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    EXPECT_GE(tracker.link_price(static_cast<net::LinkId>(e)), 0.0);
  }
}

TEST_F(ITrackerTest, RejectsBadConfig) {
  ITrackerConfig cfg;
  cfg.step_size = -1.0;
  EXPECT_THROW(ITracker(graph_, routing_, cfg), std::invalid_argument);
  cfg = ITrackerConfig{};
  cfg.privacy_noise = 1.5;
  EXPECT_THROW(ITracker(graph_, routing_, cfg), std::invalid_argument);
}

TEST_F(ITrackerTest, PDistanceSumsLinkPricesOnPath) {
  ITracker tracker(graph_, routing_);
  std::vector<double> prices(graph_.link_count(), 0.0);
  // Price only the links on the NY -> DC path.
  double expected = 0.0;
  int idx = 1;
  for (net::LinkId e : routing_.path(net::kNewYork, net::kWashingtonDC)) {
    prices[static_cast<std::size_t>(e)] = idx * 0.5;
    expected += idx * 0.5;
    ++idx;
  }
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  ITracker stat(graph_, routing_, cfg);
  stat.SetStaticPrices(prices);
  EXPECT_NEAR(stat.pdistance(net::kNewYork, net::kWashingtonDC), expected, 1e-12);
}

TEST_F(ITrackerTest, IntraPidDistanceConfigurable) {
  ITrackerConfig cfg;
  cfg.intra_pid_distance = 0.25;
  ITracker tracker(graph_, routing_, cfg);
  EXPECT_DOUBLE_EQ(tracker.pdistance(3, 3), 0.25);
}

TEST_F(ITrackerTest, PDistanceRangeChecked) {
  ITracker tracker(graph_, routing_);
  EXPECT_THROW(tracker.pdistance(-1, 0), std::out_of_range);
  EXPECT_THROW(tracker.pdistance(0, 99), std::out_of_range);
}

TEST_F(ITrackerTest, UpdateRaisesPriceOfHotLink) {
  ITracker tracker(graph_, routing_);
  const auto hot = static_cast<std::size_t>(
      graph_.find_link(net::kNewYork, net::kWashingtonDC));
  std::vector<double> traffic(graph_.link_count(), 1e8);
  traffic[hot] = 9e9;  // near saturation
  const double before = tracker.link_price(static_cast<net::LinkId>(hot));
  for (int i = 0; i < 10; ++i) tracker.Update(traffic);
  const double after = tracker.link_price(static_cast<net::LinkId>(hot));
  EXPECT_GT(after, before);
  // Prices remain on the dual simplex after updates.
  EXPECT_NEAR(SimplexSum(tracker), 1.0, 1e-6);
  // The hot link must now be the most expensive.
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    EXPECT_LE(tracker.link_price(static_cast<net::LinkId>(e)), after + 1e-18);
  }
}

TEST_F(ITrackerTest, UpdateDrivesPDistanceSteering) {
  ITracker tracker(graph_, routing_);
  const auto hot_link = graph_.find_link(net::kNewYork, net::kWashingtonDC);
  std::vector<double> traffic(graph_.link_count(), 0.0);
  traffic[static_cast<std::size_t>(hot_link)] = 9.5e9;
  for (int i = 0; i < 20; ++i) tracker.Update(traffic);
  // NY->DC (via the hot link) must now cost more than NY->Chicago.
  EXPECT_GT(tracker.pdistance(net::kNewYork, net::kWashingtonDC),
            tracker.pdistance(net::kNewYork, net::kChicago));
}

TEST_F(ITrackerTest, StaticModeIgnoresUpdates) {
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  ITracker tracker(graph_, routing_, cfg);
  std::vector<double> prices(graph_.link_count(), 0.5);
  tracker.SetStaticPrices(prices);
  std::vector<double> traffic(graph_.link_count(), 9e9);
  tracker.Update(traffic);
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    EXPECT_DOUBLE_EQ(tracker.link_price(static_cast<net::LinkId>(e)), 0.5);
  }
}

TEST_F(ITrackerTest, OspfPricesProportionalToWeights) {
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  ITracker tracker(graph_, routing_, cfg);
  tracker.SetPricesFromOspf();
  EXPECT_NEAR(SimplexSum(tracker), 1.0, 1e-9);
  // Longer (higher-weight) links cost more.
  const auto short_link = graph_.find_link(net::kNewYork, net::kWashingtonDC);
  const auto long_link = graph_.find_link(net::kSeattle, net::kDenver);
  EXPECT_GT(tracker.link_price(long_link), tracker.link_price(short_link));
}

TEST_F(ITrackerTest, ProtectedLinkModeOnlyMovesProtectedPrices) {
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kProtectedLink;
  ITracker tracker(graph_, routing_, cfg);
  const auto protected_link = graph_.find_link(net::kWashingtonDC, net::kNewYork);
  tracker.ProtectLink(protected_link, ProtectedLinkRule{0.5, 1.0, 0.1});

  std::vector<double> traffic(graph_.link_count(), 8e9);  // util 0.8 everywhere
  tracker.Update(traffic);
  EXPECT_GT(tracker.link_price(protected_link), 0.0);
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    if (static_cast<net::LinkId>(e) == protected_link) continue;
    EXPECT_DOUBLE_EQ(tracker.link_price(static_cast<net::LinkId>(e)), 0.0);
  }
}

TEST_F(ITrackerTest, ProtectedLinkPriceDecaysWhenClear) {
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kProtectedLink;
  ITracker tracker(graph_, routing_, cfg);
  const auto link = graph_.find_link(net::kWashingtonDC, net::kNewYork);
  tracker.ProtectLink(link, ProtectedLinkRule{0.5, 1.0, 0.5});
  std::vector<double> hot(graph_.link_count(), 0.0);
  hot[static_cast<std::size_t>(link)] = 9e9;
  tracker.Update(hot);
  const double peak = tracker.link_price(link);
  ASSERT_GT(peak, 0.0);
  tracker.Update(ZeroTraffic());
  EXPECT_LT(tracker.link_price(link), peak);
}

TEST_F(ITrackerTest, BdpObjectiveIncludesLinkDistances) {
  ITrackerConfig cfg;
  cfg.objective = IspObjective::kBandwidthDistanceProduct;
  ITracker tracker(graph_, routing_, cfg);
  // With zero congestion prices, the p-distance equals the geographic route
  // distance.
  const double d = tracker.pdistance(net::kSeattle, net::kNewYork);
  EXPECT_NEAR(d, routing_.route_distance(net::kSeattle, net::kNewYork), 1.0);
}

TEST_F(ITrackerTest, BdpPricesStayNonNegativeAndReactToOverload) {
  ITrackerConfig cfg;
  cfg.objective = IspObjective::kBandwidthDistanceProduct;
  ITracker tracker(graph_, routing_, cfg);
  std::vector<double> traffic(graph_.link_count(), 0.0);
  const auto hot = graph_.find_link(net::kChicago, net::kNewYork);
  traffic[static_cast<std::size_t>(hot)] = 20e9;  // 2x overload
  const double base = tracker.pdistance(net::kChicago, net::kNewYork);
  for (int i = 0; i < 5; ++i) tracker.Update(traffic);
  EXPECT_GT(tracker.pdistance(net::kChicago, net::kNewYork), base);
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    EXPECT_GE(tracker.link_price(static_cast<net::LinkId>(e)), 0.0);
  }
}

TEST_F(ITrackerTest, PeakBandwidthUsesRunningPeak) {
  ITrackerConfig cfg;
  cfg.objective = IspObjective::kPeakBandwidth;
  ITracker tracker(graph_, routing_, cfg);
  // Feed a peak background, then drop it; the peak must persist.
  std::vector<double> bg(graph_.link_count(), 0.0);
  const auto hot = static_cast<std::size_t>(graph_.find_link(net::kDenver, net::kKansasCity));
  bg[hot] = 9e9;
  tracker.set_background_bps(bg);
  bg[hot] = 0.0;
  tracker.set_background_bps(bg);
  // Updating with zero P4P traffic: the hot link still gets the highest
  // price because its peak background dominates.
  for (int i = 0; i < 10; ++i) tracker.Update(ZeroTraffic());
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    EXPECT_LE(tracker.link_price(static_cast<net::LinkId>(e)),
              tracker.link_price(static_cast<net::LinkId>(hot)) + 1e-18);
  }
}

TEST_F(ITrackerTest, MluComputation) {
  ITracker tracker(graph_, routing_);
  std::vector<double> traffic(graph_.link_count(), 0.0);
  traffic[0] = 5e9;
  EXPECT_NEAR(tracker.Mlu(traffic), 0.5, 1e-12);
  std::vector<double> bg(graph_.link_count(), 0.0);
  bg[1] = 8e9;
  tracker.set_background_bps(bg);
  EXPECT_NEAR(tracker.Mlu(traffic), 0.8, 1e-12);
}

TEST_F(ITrackerTest, InterdomainPriceRisesOnViolation) {
  ITracker tracker(graph_, routing_);
  const auto inter = graph_.find_link(net::kChicago, net::kKansasCity);
  tracker.DeclareInterdomainLink(inter, 1e9);
  std::vector<double> traffic(graph_.link_count(), 0.0);
  traffic[static_cast<std::size_t>(inter)] = 3e9;  // 3x the virtual capacity
  tracker.Update(traffic);
  const double q1 = tracker.interdomain_price(inter);
  EXPECT_GT(q1, 0.0);
  tracker.Update(traffic);
  EXPECT_GT(tracker.interdomain_price(inter), q1);
}

TEST_F(ITrackerTest, InterdomainPriceDecaysWhenWithinCapacity) {
  ITracker tracker(graph_, routing_);
  const auto inter = graph_.find_link(net::kChicago, net::kKansasCity);
  tracker.DeclareInterdomainLink(inter, 1e9);
  std::vector<double> heavy(graph_.link_count(), 0.0);
  heavy[static_cast<std::size_t>(inter)] = 3e9;
  tracker.Update(heavy);
  const double peak = tracker.interdomain_price(inter);
  std::vector<double> light(graph_.link_count(), 0.0);
  light[static_cast<std::size_t>(inter)] = 1e8;
  tracker.Update(light);
  EXPECT_LT(tracker.interdomain_price(inter), peak);
  EXPECT_GE(tracker.interdomain_price(inter), 0.0);
}

TEST_F(ITrackerTest, InterdomainPriceAffectsPDistanceAcrossLink) {
  ITracker tracker(graph_, routing_);
  const auto inter = graph_.find_link(net::kChicago, net::kKansasCity);
  tracker.DeclareInterdomainLink(inter, 1e9);
  const double before = tracker.pdistance(net::kChicago, net::kKansasCity);
  std::vector<double> heavy(graph_.link_count(), 0.0);
  heavy[static_cast<std::size_t>(inter)] = 5e9;
  for (int i = 0; i < 5; ++i) tracker.Update(heavy);
  EXPECT_GT(tracker.pdistance(net::kChicago, net::kKansasCity), before);
}

TEST_F(ITrackerTest, VirtualCapacityAccessors) {
  ITracker tracker(graph_, routing_);
  const auto inter = graph_.find_link(net::kAtlanta, net::kHouston);
  EXPECT_DOUBLE_EQ(tracker.virtual_capacity(inter), 0.0);
  tracker.DeclareInterdomainLink(inter, 2e9);
  EXPECT_DOUBLE_EQ(tracker.virtual_capacity(inter), 2e9);
  tracker.set_virtual_capacity(inter, 3e9);
  EXPECT_DOUBLE_EQ(tracker.virtual_capacity(inter), 3e9);
  EXPECT_THROW(tracker.set_virtual_capacity(0, 1e9), std::invalid_argument);
  EXPECT_THROW(tracker.DeclareInterdomainLink(inter, -1.0), std::invalid_argument);
}

TEST_F(ITrackerTest, PrivacyNoiseIsDeterministicAndBounded) {
  ITrackerConfig cfg;
  cfg.privacy_noise = 0.1;
  ITracker noisy(graph_, routing_, cfg);
  ITracker clean(graph_, routing_);
  for (Pid i = 0; i < noisy.num_pids(); ++i) {
    for (Pid j = 0; j < noisy.num_pids(); ++j) {
      const double a = noisy.pdistance(i, j);
      const double b = noisy.pdistance(i, j);
      EXPECT_DOUBLE_EQ(a, b);  // consistent across queries
      const double truth = clean.pdistance(i, j);
      EXPECT_LE(std::abs(a - truth), 0.1 * truth + 1e-15);
    }
  }
}

TEST_F(ITrackerTest, ExternalViewMatchesPDistances) {
  ITracker tracker(graph_, routing_);
  const auto view = tracker.external_view();
  ASSERT_EQ(view.size(), tracker.num_pids());
  for (Pid i = 0; i < view.size(); ++i) {
    for (Pid j = 0; j < view.size(); ++j) {
      EXPECT_DOUBLE_EQ(view.at(i, j), tracker.pdistance(i, j));
    }
  }
}

TEST_F(ITrackerTest, GetPDistancesRow) {
  ITracker tracker(graph_, routing_);
  const auto row = tracker.GetPDistances(net::kChicago);
  ASSERT_EQ(row.size(), graph_.node_count());
  for (Pid j = 0; j < tracker.num_pids(); ++j) {
    EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>(j)],
                     tracker.pdistance(net::kChicago, j));
  }
}

TEST_F(ITrackerTest, VersionBumpsOnMutation) {
  ITracker tracker(graph_, routing_);
  const auto v0 = tracker.version();
  tracker.Update(ZeroTraffic());
  EXPECT_GT(tracker.version(), v0);
  const auto v1 = tracker.version();
  std::vector<double> bg(graph_.link_count(), 1.0);
  tracker.set_background_bps(bg);
  EXPECT_GT(tracker.version(), v1);
}

TEST_F(ITrackerTest, UpdateRejectsWrongSize) {
  ITracker tracker(graph_, routing_);
  std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(tracker.Update(wrong), std::invalid_argument);
  EXPECT_THROW(tracker.Mlu(wrong), std::invalid_argument);
  EXPECT_THROW(tracker.set_background_bps(wrong), std::invalid_argument);
}

TEST_F(ITrackerTest, MemoizedViewIsStableAcrossRepeatedQueries) {
  ITracker tracker(graph_, routing_);
  const auto first = tracker.external_view();
  // Hammer the read path; nothing mutates, so every later read must be
  // bit-identical to the first (the memo may not drift).
  for (int round = 0; round < 3; ++round) {
    const auto again = tracker.external_view();
    for (Pid i = 0; i < first.size(); ++i) {
      const auto row = tracker.GetPDistances(i);
      for (Pid j = 0; j < first.size(); ++j) {
        EXPECT_DOUBLE_EQ(again.at(i, j), first.at(i, j));
        EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>(j)], first.at(i, j));
        EXPECT_DOUBLE_EQ(tracker.pdistance(i, j), first.at(i, j));
      }
    }
  }
}

TEST_F(ITrackerTest, MemoInvalidatesOnUpdate) {
  ITracker tracker(graph_, routing_);
  (void)tracker.external_view();  // warm the memo
  const auto hot = static_cast<std::size_t>(
      graph_.find_link(net::kNewYork, net::kWashingtonDC));
  std::vector<double> traffic(graph_.link_count(), 1e8);
  traffic[hot] = 9e9;
  for (int i = 0; i < 10; ++i) tracker.Update(traffic);
  // Post-update distances must equal a from-scratch sum of the new prices
  // over the routed path, i.e. the memo was rebuilt, not reused.
  for (Pid i = 0; i < tracker.num_pids(); ++i) {
    for (Pid j = 0; j < tracker.num_pids(); ++j) {
      if (i == j) continue;
      double expected = 0.0;
      for (net::LinkId e : routing_.path(i, j)) expected += tracker.link_price(e);
      EXPECT_NEAR(tracker.pdistance(i, j), expected, 1e-15);
    }
  }
}

TEST_F(ITrackerTest, MemoInvalidatesOnSetStaticPrices) {
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  ITracker tracker(graph_, routing_, cfg);
  std::vector<double> prices(graph_.link_count(), 0.25);
  tracker.SetStaticPrices(prices);
  const double before = tracker.pdistance(net::kNewYork, net::kChicago);
  std::fill(prices.begin(), prices.end(), 0.5);
  tracker.SetStaticPrices(prices);
  EXPECT_DOUBLE_EQ(tracker.pdistance(net::kNewYork, net::kChicago), 2.0 * before);
}

TEST_F(ITrackerTest, MemoizedViewMatchesUnmemoizedRecompute) {
  // Two identical trackers driven through the same mutations must agree
  // whether queried continuously (memo reads) or only at the end (fresh
  // rebuild), for every objective.
  for (const auto objective :
       {IspObjective::kMinMlu, IspObjective::kBandwidthDistanceProduct,
        IspObjective::kPeakBandwidth}) {
    ITrackerConfig cfg;
    cfg.objective = objective;
    ITracker queried(graph_, routing_, cfg);
    ITracker quiet(graph_, routing_, cfg);
    std::vector<double> traffic(graph_.link_count(), 2e9);
    traffic[0] = 9e9;
    for (int i = 0; i < 5; ++i) {
      queried.Update(traffic);
      (void)queried.external_view();  // touch the memo between updates
      quiet.Update(traffic);
    }
    const auto a = queried.external_view();
    const auto b = quiet.external_view();
    for (Pid i = 0; i < a.size(); ++i) {
      for (Pid j = 0; j < a.size(); ++j) {
        EXPECT_DOUBLE_EQ(a.at(i, j), b.at(i, j));
      }
    }
  }
}

TEST_F(ITrackerTest, SuperGradientConvergesTowardBalancedPrices) {
  // Drive with a fixed traffic pattern; the price mass should concentrate
  // on the unique max-utilization link and stop oscillating wildly.
  ITracker tracker(graph_, routing_);
  std::vector<double> traffic(graph_.link_count(), 1e9);
  const auto hot = static_cast<std::size_t>(graph_.find_link(net::kNewYork, net::kWashingtonDC));
  traffic[hot] = 8e9;
  for (int i = 0; i < 200; ++i) tracker.Update(traffic);
  double hot_price = tracker.link_price(static_cast<net::LinkId>(hot));
  double others = 0.0;
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    if (e != hot) others += tracker.link_price(static_cast<net::LinkId>(e));
  }
  EXPECT_GT(hot_price, others);  // dominant dual on the bottleneck
}

// --- the tree build against the per-pair path sum ---------------------------

/// The tracker's privacy perturbation, restated: SplitMix64 of the seed and
/// the (i, j) pair mapped to a factor in [1 - noise, 1 + noise).
double Perturbed(const ITrackerConfig& cfg, Pid i, Pid j, double value) {
  if (cfg.privacy_noise <= 0.0) return value;
  const auto hi = static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32;
  std::uint64_t x = cfg.noise_seed ^ (hi | static_cast<std::uint32_t>(j));
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0) * 2.0 - 1.0;
  return value * (1.0 + cfg.privacy_noise * u);
}

/// p_ij as the paper writes it, summed pair by pair: the revealed cost of
/// every link on the routed path (price, plus the BDP distance term and
/// the interdomain dual of each declared link), added left to right.
PDistanceMatrix PathSumReference(const ITracker& tracker,
                                 const net::RoutingTable& routing,
                                 const std::vector<net::LinkId>& interdomain) {
  const net::Graph& g = tracker.graph();
  const ITrackerConfig& cfg = tracker.config();
  std::vector<double> cost(g.link_count());
  for (std::size_t e = 0; e < cost.size(); ++e) {
    cost[e] = tracker.link_price(static_cast<net::LinkId>(e));
    if (cfg.objective == IspObjective::kBandwidthDistanceProduct) {
      cost[e] += g.link(static_cast<net::LinkId>(e)).distance;
    }
  }
  for (const net::LinkId e : interdomain) {
    cost[static_cast<std::size_t>(e)] += tracker.interdomain_price(e);
  }
  const int n = tracker.num_pids();
  PDistanceMatrix m(n);
  for (Pid i = 0; i < n; ++i) {
    for (Pid j = 0; j < n; ++j) {
      if (i == j) {
        m.set(i, j, cfg.intra_pid_distance);
      } else if (!routing.reachable(i, j)) {
        m.set(i, j, std::numeric_limits<double>::infinity());
      } else {
        double total = 0.0;
        for (const net::LinkId e : routing.path_view(i, j)) {
          total += cost[static_cast<std::size_t>(e)];
        }
        m.set(i, j, Perturbed(cfg, i, j, total));
      }
    }
  }
  return m;
}

/// Bit-for-bit equality of the tracker's view and the reference.
void ExpectMatchesPathSum(const ITracker& tracker, const net::RoutingTable& routing,
                          const std::vector<net::LinkId>& interdomain,
                          const std::string& what) {
  const auto built = tracker.external_view();
  const auto want = PathSumReference(tracker, routing, interdomain);
  ASSERT_EQ(built.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(built.values().data(), want.values().data(),
                        want.values().size() * sizeof(double)),
            0)
      << what;
}

/// Skewed P4P traffic: every link carries some, link 0 and every seventh
/// link run hot, so the super-gradient moves many prices per step.
std::vector<double> SkewedTraffic(const net::Graph& g) {
  std::vector<double> traffic(g.link_count());
  for (std::size_t e = 0; e < traffic.size(); ++e) {
    const double utilization = e % 7 == 0 ? 0.9 : 0.2;
    traffic[e] = g.link(static_cast<net::LinkId>(e)).capacity_bps * utilization;
  }
  return traffic;
}

TEST(ITrackerTreeBuild, MatchesPathSumBitForBit) {
  net::SynthConfig loop_topology;
  loop_topology.name = "synth-144";
  loop_topology.num_pops = 144;
  loop_topology.num_metros = 12;
  const std::vector<std::pair<std::string, std::function<net::Graph()>>> topologies = {
      {"Abilene", net::MakeAbilene},
      {"ISP-A", net::MakeIspA},
      {"ISP-B", net::MakeIspB},
      {"synth-144", [&] { return net::MakeSynthTopology(loop_topology); }},
  };
  for (const auto& [name, make] : topologies) {
    const net::Graph g = make();
    const net::RoutingTable routing(g);
    const auto traffic = SkewedTraffic(g);

    ITrackerConfig static_cfg;
    static_cfg.mode = PriceMode::kStatic;
    ITracker ospf(g, routing, static_cfg);
    ospf.SetPricesFromOspf();
    ExpectMatchesPathSum(ospf, routing, {}, name + " OSPF prices");

    ITracker mlu(g, routing);
    mlu.SetPricesFromOspf();
    for (int step = 1; step <= 4; ++step) {
      mlu.Update(traffic);
      ExpectMatchesPathSum(mlu, routing, {},
                           name + " MLU update " + std::to_string(step));
    }

    ITrackerConfig bdp_cfg;
    bdp_cfg.objective = IspObjective::kBandwidthDistanceProduct;
    ITracker bdp(g, routing, bdp_cfg);
    for (int step = 0; step < 3; ++step) bdp.Update(traffic);
    ExpectMatchesPathSum(bdp, routing, {}, name + " BDP");

    // An interdomain link whose P4P load exceeds its virtual capacity
    // earns a positive dual on top of its price.
    const std::vector<net::LinkId> declared = {
        0, static_cast<net::LinkId>(g.link_count() / 2)};
    ITracker multihomed(g, routing);
    for (const net::LinkId e : declared) multihomed.DeclareInterdomainLink(e, 1e6);
    for (int step = 0; step < 3; ++step) multihomed.Update(traffic);
    ASSERT_GT(multihomed.interdomain_price(declared[0]), 0.0) << name;
    ExpectMatchesPathSum(multihomed, routing, declared, name + " interdomain");

    ITrackerConfig private_cfg;
    private_cfg.privacy_noise = 0.05;
    private_cfg.intra_pid_distance = 0.25;
    ITracker noisy(g, routing, private_cfg);
    for (int step = 0; step < 2; ++step) noisy.Update(traffic);
    ExpectMatchesPathSum(noisy, routing, {}, name + " privacy noise");
  }
}

TEST(ITrackerTreeBuild, UnreachablePairsAreInfinite) {
  // a -> b -> c one way only, and d cut off: every route back, and every
  // route to or from d, is missing.
  net::Graph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto c = g.add_node("c");
  const auto d = g.add_node("d");
  g.add_link(a, b, 1e9, /*ospf_weight=*/2.0);
  g.add_link(b, c, 1e9, /*ospf_weight=*/3.0);
  const net::RoutingTable routing(g);
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  cfg.privacy_noise = 0.1;
  cfg.intra_pid_distance = 0.5;
  ITracker tracker(g, routing, cfg);
  tracker.SetStaticPrices(std::vector<double>{0.25, 0.75});
  ExpectMatchesPathSum(tracker, routing, {}, "one-way chain");
  const auto view = tracker.external_view();
  EXPECT_TRUE(std::isfinite(view.at(a, c)));
  EXPECT_EQ(view.at(c, c), 0.5);
  for (const auto& [i, j] : {std::pair{b, a}, std::pair{c, a}, std::pair{c, b},
                            std::pair{a, d}, std::pair{d, a}}) {
    EXPECT_TRUE(std::isinf(view.at(i, j))) << i << "->" << j;
    EXPECT_THROW(tracker.pdistance(i, j), std::runtime_error);
  }
}

}  // namespace
}  // namespace p4p::core
