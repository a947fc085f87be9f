#include "net/routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/synth.h"
#include "net/topology.h"

namespace p4p::net {
namespace {

// A small diamond: a-b-d and a-c-d, with a-c-d cheaper.
Graph Diamond() {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  const NodeId d = g.add_node("d");
  g.add_duplex_link(a, b, 1e9, /*w=*/10.0);
  g.add_duplex_link(b, d, 1e9, /*w=*/10.0);
  g.add_duplex_link(a, c, 1e9, /*w=*/5.0);
  g.add_duplex_link(c, d, 1e9, /*w=*/5.0);
  return g;
}

TEST(Routing, PicksCheapestPath) {
  const Graph g = Diamond();
  const RoutingTable rt(g);
  const auto p = rt.path_view(0, 3);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(g.link(p[0]).dst, 2);  // via c
  EXPECT_EQ(g.link(p[1]).dst, 3);
  EXPECT_DOUBLE_EQ(rt.route_cost(0, 3), 10.0);
}

TEST(Routing, EmptyPathForSelf) {
  const Graph g = Diamond();
  const RoutingTable rt(g);
  EXPECT_TRUE(rt.path_view(1, 1).empty());
  EXPECT_DOUBLE_EQ(rt.route_cost(1, 1), 0.0);
}

TEST(Routing, PathLinksAreContiguous) {
  const Graph g = MakeAbilene();
  const RoutingTable rt(g);
  for (NodeId s = 0; s < static_cast<NodeId>(g.node_count()); ++s) {
    for (NodeId t = 0; t < static_cast<NodeId>(g.node_count()); ++t) {
      if (s == t) continue;
      const auto p = rt.path_view(s, t);
      ASSERT_FALSE(p.empty());
      EXPECT_EQ(g.link(p.front()).src, s);
      EXPECT_EQ(g.link(p.back()).dst, t);
      for (std::size_t i = 1; i < p.size(); ++i) {
        EXPECT_EQ(g.link(p[i - 1]).dst, g.link(p[i]).src);
      }
    }
  }
}

TEST(Routing, CostEqualsSumOfWeights) {
  const Graph g = MakeAbilene();
  const RoutingTable rt(g);
  for (NodeId s = 0; s < static_cast<NodeId>(g.node_count()); ++s) {
    for (NodeId t = 0; t < static_cast<NodeId>(g.node_count()); ++t) {
      if (s == t) continue;
      double sum = 0.0;
      for (LinkId e : rt.path_view(s, t)) sum += g.link(e).ospf_weight;
      EXPECT_NEAR(sum, rt.route_cost(s, t), 1e-9);
    }
  }
}

TEST(Routing, UnreachableThrows) {
  Graph g;
  g.add_node("a");
  g.add_node("island");
  const RoutingTable rt(g);
  EXPECT_FALSE(rt.reachable(0, 1));
  EXPECT_TRUE(rt.path_view(0, 1).empty());
  EXPECT_THROW(rt.route_distance(0, 1), std::runtime_error);
}

TEST(Routing, ReachabilityIsDirected) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_link(a, b, 1e9);  // one-way only
  const RoutingTable rt(g);
  EXPECT_TRUE(rt.reachable(a, b));
  EXPECT_FALSE(rt.reachable(b, a));
}

TEST(Routing, SkipsAccessLinksByDefault) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_duplex_link(a, b, 1e9, 1.0, 1.0, LinkType::kAccess);
  const RoutingTable rt(g);
  EXPECT_FALSE(rt.reachable(a, b));
  const RoutingTable rt_with_access(g, /*include_access=*/true);
  EXPECT_TRUE(rt_with_access.reachable(a, b));
}

TEST(Routing, OnRoute) {
  const Graph g = Diamond();
  const RoutingTable rt(g);
  const auto p = rt.path_view(0, 3);
  for (LinkId e : p) EXPECT_TRUE(rt.on_route(e, 0, 3));
  // The expensive a-b link is not on the route.
  const LinkId ab = g.find_link(0, 1);
  EXPECT_FALSE(rt.on_route(ab, 0, 3));
  EXPECT_FALSE(rt.on_route(ab, 2, 2));
}

TEST(Routing, HopCountMatchesPathLength) {
  const Graph g = MakeAbilene();
  const RoutingTable rt(g);
  EXPECT_EQ(rt.hop_count(kSeattle, kNewYork),
            static_cast<int>(rt.path_view(kSeattle, kNewYork).size()));
}

TEST(Routing, LatencyGrowsWithDistance) {
  const Graph g = MakeAbilene();
  const RoutingTable rt(g);
  EXPECT_DOUBLE_EQ(rt.latency_ms(kChicago, kChicago), 0.0);
  const double short_path = rt.latency_ms(kNewYork, kWashingtonDC);
  const double long_path = rt.latency_ms(kSeattle, kNewYork);
  EXPECT_GT(long_path, short_path);
  EXPECT_GT(short_path, 0.0);
}

TEST(Routing, RouteDistanceSumsLinkDistances) {
  const Graph g = Diamond();
  const RoutingTable rt(g);
  // Each link has distance 1.0 by default.
  EXPECT_DOUBLE_EQ(rt.route_distance(0, 3), 2.0);
}

TEST(Routing, TriangleInequalityOfCosts) {
  const Graph g = MakeAbilene();
  const RoutingTable rt(g);
  for (NodeId a = 0; a < static_cast<NodeId>(g.node_count()); ++a) {
    for (NodeId b = 0; b < static_cast<NodeId>(g.node_count()); ++b) {
      for (NodeId c = 0; c < static_cast<NodeId>(g.node_count()); ++c) {
        EXPECT_LE(rt.route_cost(a, c),
                  rt.route_cost(a, b) + rt.route_cost(b, c) + 1e-9);
      }
    }
  }
}

/// A route is empty exactly for s == t and for an unreachable pair, and a
/// non-empty one adds up to the Dijkstra cost of the pair. That the arena
/// holds the shortest-path tree's routes is ExpectTreeMatchesPaths' check.
void ExpectPathViewAgreesWithReachability(const Graph& g) {
  const RoutingTable rt(g);
  for (NodeId s = 0; s < static_cast<NodeId>(g.node_count()); ++s) {
    for (NodeId t = 0; t < static_cast<NodeId>(g.node_count()); ++t) {
      const auto view = rt.path_view(s, t);
      EXPECT_EQ(view.empty(), s == t || !rt.reachable(s, t)) << s << "->" << t;
      if (view.empty()) continue;
      EXPECT_EQ(rt.hop_count(s, t), static_cast<int>(view.size()));
      double weight = 0.0;
      for (LinkId e : view) weight += g.link(e).ospf_weight;
      EXPECT_DOUBLE_EQ(weight, rt.route_cost(s, t)) << s << "->" << t;
    }
  }
}

TEST(Routing, PathViewAgreesWithReachabilityOnAbilene) {
  ExpectPathViewAgreesWithReachability(MakeAbilene());
}

TEST(Routing, PathViewAgreesWithReachabilityOnSynthTopology) {
  SynthConfig cfg;
  cfg.num_pops = 80;
  cfg.num_metros = 16;
  cfg.seed = 7;
  ExpectPathViewAgreesWithReachability(MakeSynthTopology(cfg));
}

/// Every source's tree names each reachable destination once, parents
/// first, and unrolls to exactly the routed paths.
void ExpectTreeMatchesPaths(const Graph& g, bool include_access = false) {
  const RoutingTable rt(g, include_access);
  const auto n = static_cast<NodeId>(g.node_count());
  for (NodeId s = 0; s < n; ++s) {
    std::vector<std::vector<LinkId>> unrolled(g.node_count());
    std::vector<bool> seen(g.node_count(), false);
    seen[static_cast<std::size_t>(s)] = true;
    std::size_t prev_hops = 0;
    for (const TreeStep& step : rt.tree(s)) {
      ASSERT_TRUE(seen[static_cast<std::size_t>(step.parent)]) << s << "->" << step.dst;
      ASSERT_FALSE(seen[static_cast<std::size_t>(step.dst)]) << s << "->" << step.dst;
      seen[static_cast<std::size_t>(step.dst)] = true;
      EXPECT_EQ(g.link(step.link).src, step.parent);
      EXPECT_EQ(g.link(step.link).dst, step.dst);
      auto& path = unrolled[static_cast<std::size_t>(step.dst)];
      path = unrolled[static_cast<std::size_t>(step.parent)];
      path.push_back(step.link);
      EXPECT_GE(path.size(), prev_hops);  // hop order
      prev_hops = path.size();
    }
    for (NodeId t = 0; t < n; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)], s == t || rt.reachable(s, t));
      const auto view = rt.path_view(s, t);
      EXPECT_EQ(unrolled[static_cast<std::size_t>(t)],
                std::vector<LinkId>(view.begin(), view.end()))
          << s << "->" << t;
    }
  }
}

TEST(Routing, TreeUnrollsToPathsOnAbilene) { ExpectTreeMatchesPaths(MakeAbilene()); }

TEST(Routing, TreeUnrollsToPathsOnSynthTopology) {
  SynthConfig cfg;
  cfg.num_pops = 80;
  cfg.num_metros = 16;
  cfg.seed = 7;
  ExpectTreeMatchesPaths(MakeSynthTopology(cfg));
}

TEST(Routing, TreeSkipsUnreachableDestinations) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_node("isolated");
  g.add_link(a, b, 1e9);
  const RoutingTable rt(g);
  ASSERT_EQ(rt.tree(a).size(), 1u);
  EXPECT_EQ(rt.tree(a)[0].dst, b);
  EXPECT_EQ(rt.tree(a)[0].parent, a);
  EXPECT_TRUE(rt.tree(b).empty());
  EXPECT_TRUE(rt.tree(2).empty());
  EXPECT_THROW(rt.tree(3), std::out_of_range);
  ExpectTreeMatchesPaths(g);
  ExpectPathViewAgreesWithReachability(g);
}

TEST(Routing, PathViewRejectsBadIds) {
  const Graph g = Diamond();
  const RoutingTable rt(g);
  EXPECT_THROW(rt.path_view(-1, 0), std::out_of_range);
  EXPECT_THROW(rt.path_view(0, 99), std::out_of_range);
}

TEST(Routing, PathViewSpansStayValidAcrossQueries) {
  const Graph g = MakeAbilene();
  const RoutingTable rt(g);
  const auto first = rt.path_view(kSeattle, kNewYork);
  // Interleave other queries; the span must still read the same links.
  const auto snapshot = std::vector<LinkId>(first.begin(), first.end());
  for (NodeId s = 0; s < static_cast<NodeId>(g.node_count()); ++s) {
    for (NodeId t = 0; t < static_cast<NodeId>(g.node_count()); ++t) {
      (void)rt.path_view(s, t);
    }
  }
  EXPECT_TRUE(std::equal(first.begin(), first.end(), snapshot.begin()));
}

TEST(Routing, DeterministicAcrossRebuilds) {
  const Graph g = MakeAbilene();
  const RoutingTable rt1(g);
  const RoutingTable rt2(g);
  for (NodeId s = 0; s < static_cast<NodeId>(g.node_count()); ++s) {
    for (NodeId t = 0; t < static_cast<NodeId>(g.node_count()); ++t) {
      if (s == t) continue;
      EXPECT_TRUE(std::ranges::equal(rt1.path_view(s, t), rt2.path_view(s, t)));
    }
  }
}

}  // namespace
}  // namespace p4p::net
