#include "net/topology.h"

#include <gtest/gtest.h>

#include "net/routing.h"
#include "net/synth.h"

namespace p4p::net {
namespace {

TEST(Abilene, MatchesTable1Counts) {
  const Graph g = MakeAbilene();
  EXPECT_EQ(g.node_count(), 11u);   // Table 1: 11 nodes
  EXPECT_EQ(g.link_count(), 28u);   // Table 1: 28 (directed) links
}

TEST(Abilene, AllLinksAreOc192Backbone) {
  const Graph g = MakeAbilene();
  for (const Link& l : g.links()) {
    EXPECT_DOUBLE_EQ(l.capacity_bps, 10e9);
    EXPECT_EQ(l.type, LinkType::kBackbone);
  }
}

TEST(Abilene, FullyConnected) {
  const Graph g = MakeAbilene();
  const RoutingTable rt(g);
  for (NodeId s = 0; s < 11; ++s) {
    for (NodeId t = 0; t < 11; ++t) {
      EXPECT_TRUE(rt.reachable(s, t)) << s << " -> " << t;
    }
  }
}

TEST(Abilene, KnownAdjacency) {
  const Graph g = MakeAbilene();
  EXPECT_NE(g.find_link(kNewYork, kWashingtonDC), kInvalidLink);
  EXPECT_NE(g.find_link(kWashingtonDC, kNewYork), kInvalidLink);
  EXPECT_NE(g.find_link(kChicago, kNewYork), kInvalidLink);
  EXPECT_NE(g.find_link(kDenver, kKansasCity), kInvalidLink);
  // Not directly connected:
  EXPECT_EQ(g.find_link(kSeattle, kNewYork), kInvalidLink);
  EXPECT_EQ(g.find_link(kLosAngeles, kAtlanta), kInvalidLink);
}

TEST(Abilene, LinkDistancesArePlausible) {
  const Graph g = MakeAbilene();
  const LinkId nydc = g.find_link(kNewYork, kWashingtonDC);
  ASSERT_NE(nydc, kInvalidLink);
  EXPECT_GT(g.link(nydc).distance, 150.0);
  EXPECT_LT(g.link(nydc).distance, 260.0);
  const LinkId sea_den = g.find_link(kSeattle, kDenver);
  ASSERT_NE(sea_den, kInvalidLink);
  EXPECT_GT(g.link(sea_den).distance, 800.0);
}

TEST(Abilene, CoastToCoastTakesMultipleHops) {
  const Graph g = MakeAbilene();
  const RoutingTable rt(g);
  EXPECT_GE(rt.hop_count(kSeattle, kNewYork), 3);
  EXPECT_GE(rt.hop_count(kSunnyvale, kWashingtonDC), 3);
}

TEST(Abilene, NodeNamesUnique) {
  const Graph g = MakeAbilene();
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    for (std::size_t j = i + 1; j < g.node_count(); ++j) {
      EXPECT_NE(g.node(static_cast<NodeId>(i)).name,
                g.node(static_cast<NodeId>(j)).name);
    }
  }
}

struct SynthCase {
  const char* name;
  int pops;
  int metros;
};

// Without this, gtest prints the raw bytes of the case, which include the
// address of `name`; the discovered ctest names would then change per build.
void PrintTo(const SynthCase& c, std::ostream* os) {
  *os << c.name << " (" << c.pops << " pops, " << c.metros << " metros)";
}

class SynthTopologyTest : public ::testing::TestWithParam<SynthCase> {};

TEST_P(SynthTopologyTest, HasRequestedPopCount) {
  SynthConfig c;
  c.num_pops = GetParam().pops;
  c.num_metros = GetParam().metros;
  c.seed = 7;
  const Graph g = MakeSynthTopology(c);
  EXPECT_EQ(g.node_count(), static_cast<std::size_t>(GetParam().pops));
}

TEST_P(SynthTopologyTest, FullyConnected) {
  SynthConfig c;
  c.num_pops = GetParam().pops;
  c.num_metros = GetParam().metros;
  c.seed = 7;
  const Graph g = MakeSynthTopology(c);
  const RoutingTable rt(g);
  for (NodeId s = 0; s < static_cast<NodeId>(g.node_count()); ++s) {
    for (NodeId t = 0; t < static_cast<NodeId>(g.node_count()); ++t) {
      EXPECT_TRUE(rt.reachable(s, t)) << GetParam().name << ": " << s << "->" << t;
    }
  }
}

TEST_P(SynthTopologyTest, DeterministicForSeed) {
  SynthConfig c;
  c.num_pops = GetParam().pops;
  c.num_metros = GetParam().metros;
  c.seed = 99;
  const Graph g1 = MakeSynthTopology(c);
  const Graph g2 = MakeSynthTopology(c);
  ASSERT_EQ(g1.link_count(), g2.link_count());
  for (std::size_t e = 0; e < g1.link_count(); ++e) {
    EXPECT_EQ(g1.link(static_cast<LinkId>(e)).src, g2.link(static_cast<LinkId>(e)).src);
    EXPECT_EQ(g1.link(static_cast<LinkId>(e)).dst, g2.link(static_cast<LinkId>(e)).dst);
    EXPECT_DOUBLE_EQ(g1.link(static_cast<LinkId>(e)).distance,
                     g2.link(static_cast<LinkId>(e)).distance);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SynthTopologyTest,
                         ::testing::Values(SynthCase{"tiny", 3, 2},
                                           SynthCase{"small", 10, 4},
                                           SynthCase{"ispA", 20, 8},
                                           SynthCase{"ispC", 37, 14},
                                           SynthCase{"ispB", 52, 20}),
                         [](const auto& info) { return info.param.name; });

TEST(SynthTopology, RejectsBadCounts) {
  SynthConfig c;
  c.num_pops = 2;
  c.num_metros = 5;
  EXPECT_THROW(MakeSynthTopology(c), std::invalid_argument);
  c.num_pops = 0;
  c.num_metros = 0;
  EXPECT_THROW(MakeSynthTopology(c), std::invalid_argument);
}

TEST(SynthTopology, IspAMatchesTable1) {
  const Graph g = MakeIspA();
  EXPECT_EQ(g.node_count(), 20u);
  EXPECT_EQ(g.name(), "ISP-A");
}

TEST(SynthTopology, IspBMatchesTable1) {
  const Graph g = MakeIspB();
  EXPECT_EQ(g.node_count(), 52u);
  // Field-test accounting needs multiple metros.
  int max_metro = 0;
  for (const auto& n : g.nodes()) max_metro = std::max(max_metro, n.metro);
  EXPECT_GE(max_metro, 10);
}

TEST(SynthTopology, IspCMatchesTable1AndIsInternational) {
  const Graph g = MakeIspC();
  EXPECT_EQ(g.node_count(), 37u);
  // International topology spans wide longitudes.
  double min_lon = 1e9;
  double max_lon = -1e9;
  for (const auto& n : g.nodes()) {
    min_lon = std::min(min_lon, n.longitude);
    max_lon = std::max(max_lon, n.longitude);
  }
  EXPECT_GT(max_lon - min_lon, 100.0);
}

TEST(SynthTopology, MetroPopsClusterGeographically) {
  const Graph g = MakeIspB();
  // PoPs in the same metro should be within ~2 degrees of each other.
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    for (std::size_t j = i + 1; j < g.node_count(); ++j) {
      const auto& a = g.node(static_cast<NodeId>(i));
      const auto& b = g.node(static_cast<NodeId>(j));
      if (a.metro != b.metro) continue;
      EXPECT_LT(std::abs(a.latitude - b.latitude), 2.0);
      EXPECT_LT(std::abs(a.longitude - b.longitude), 2.0);
    }
  }
}

TEST(SynthTopology, ZipfSkewConcentratesPops) {
  // Metro 0 (highest Zipf weight) should have at least as many PoPs as the
  // median metro.
  const Graph g = MakeIspB();
  std::vector<int> counts(20, 0);
  for (const auto& n : g.nodes()) ++counts[static_cast<std::size_t>(n.metro)];
  std::vector<int> sorted = counts;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GE(counts[0], sorted[sorted.size() / 2]);
}

}  // namespace
}  // namespace p4p::net
