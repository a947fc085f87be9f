#include "sim/maxmin.h"

#include <gtest/gtest.h>

#include <random>

namespace p4p::sim {
namespace {

constexpr double kTol = 1e-6;

TEST(MaxMin, SingleFlowGetsFullLink) {
  const std::vector<double> caps = {10.0};
  const std::vector<Flow> flows = {{{0}, std::numeric_limits<double>::infinity()}};
  const auto rates = MaxMinFairRates(caps, flows);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0], 10.0, kTol);
}

TEST(MaxMin, EqualShareOnSharedLink) {
  const std::vector<double> caps = {9.0};
  const std::vector<Flow> flows = {{{0}, std::numeric_limits<double>::infinity()}, {{0}, std::numeric_limits<double>::infinity()}, {{0}, std::numeric_limits<double>::infinity()}};
  const auto rates = MaxMinFairRates(caps, flows);
  for (double r : rates) EXPECT_NEAR(r, 3.0, kTol);
}

TEST(MaxMin, ClassicTwoBottleneckExample) {
  // Link 0 cap 10 shared by flows A,B; link 1 cap 4 used by B only.
  // B is capped at 4 by link 1; A gets the residual 6.
  const std::vector<double> caps = {10.0, 4.0};
  const std::vector<Flow> flows = {{{0}, std::numeric_limits<double>::infinity()}, {{0, 1}, std::numeric_limits<double>::infinity()}};
  const auto rates = MaxMinFairRates(caps, flows);
  EXPECT_NEAR(rates[1], 4.0, kTol);
  EXPECT_NEAR(rates[0], 6.0, kTol);
}

TEST(MaxMin, ThreeLinkChainParkingLot) {
  // Parking-lot: long flow over links 0,1,2 (cap 1 each) + one short flow
  // per link. Each link splits 0.5/0.5.
  const std::vector<double> caps = {1.0, 1.0, 1.0};
  const std::vector<Flow> flows = {
      {{0, 1, 2}, std::numeric_limits<double>::infinity()}, {{0}, std::numeric_limits<double>::infinity()}, {{1}, std::numeric_limits<double>::infinity()}, {{2}, std::numeric_limits<double>::infinity()}};
  const auto rates = MaxMinFairRates(caps, flows);
  EXPECT_NEAR(rates[0], 0.5, kTol);
  for (int f = 1; f < 4; ++f) EXPECT_NEAR(rates[static_cast<std::size_t>(f)], 0.5, kTol);
}

TEST(MaxMin, RateCapActsAsVirtualLink) {
  const std::vector<double> caps = {10.0};
  std::vector<Flow> flows = {{{0}, 2.0}, {{0}, std::numeric_limits<double>::infinity()}};
  const auto rates = MaxMinFairRates(caps, flows);
  EXPECT_NEAR(rates[0], 2.0, kTol);
  EXPECT_NEAR(rates[1], 8.0, kTol);
}

TEST(MaxMin, CapOnlyFlowIsAllowed) {
  std::vector<Flow> flows = {{{}, 3.5}};
  const auto rates = MaxMinFairRates(std::vector<double>{}, flows);
  EXPECT_NEAR(rates[0], 3.5, kTol);
}

TEST(MaxMin, UncappedFlowWithNoLinksThrows) {
  std::vector<Flow> flows = {{{}, std::numeric_limits<double>::infinity()}};
  EXPECT_THROW(MaxMinFairRates(std::vector<double>{}, flows), std::invalid_argument);
}

TEST(MaxMin, RejectsNegativeCapacity) {
  const std::vector<double> caps = {-1.0};
  std::vector<Flow> flows = {{{0}, std::numeric_limits<double>::infinity()}};
  EXPECT_THROW(MaxMinFairRates(caps, flows), std::invalid_argument);
}

TEST(MaxMin, RejectsUnknownLink) {
  const std::vector<double> caps = {1.0};
  std::vector<Flow> flows = {{{3}, std::numeric_limits<double>::infinity()}};
  EXPECT_THROW(MaxMinFairRates(caps, flows), std::invalid_argument);
}

TEST(MaxMin, RejectsNegativeRateCap) {
  const std::vector<double> caps = {1.0};
  std::vector<Flow> flows = {{{0}, -2.0}};
  EXPECT_THROW(MaxMinFairRates(caps, flows), std::invalid_argument);
}

TEST(MaxMin, ZeroCapacityLinkGivesZeroRates) {
  const std::vector<double> caps = {0.0, 5.0};
  std::vector<Flow> flows = {{{0, 1}, std::numeric_limits<double>::infinity()}, {{1}, std::numeric_limits<double>::infinity()}};
  const auto rates = MaxMinFairRates(caps, flows);
  EXPECT_NEAR(rates[0], 0.0, kTol);
  EXPECT_NEAR(rates[1], 5.0, kTol);
}

TEST(MaxMin, NoFlowsYieldsEmpty) {
  const std::vector<double> caps = {1.0};
  EXPECT_TRUE(MaxMinFairRates(caps, std::vector<Flow>{}).empty());
}

TEST(MaxMin, UnusedLinksAreIgnored) {
  const std::vector<double> caps = {1.0, 99.0};
  std::vector<Flow> flows = {{{0}, std::numeric_limits<double>::infinity()}};
  const auto rates = MaxMinFairRates(caps, flows);
  EXPECT_NEAR(rates[0], 1.0, kTol);
}

// ---- property-based validation against the max-min definition ----

struct RandomCase {
  int num_links;
  int num_flows;
  std::uint64_t seed;
};

class MaxMinPropertyTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(MaxMinPropertyTest, FeasibleAndMaxMin) {
  const auto& param = GetParam();
  std::mt19937_64 rng(param.seed);
  std::uniform_real_distribution<double> cap(1.0, 20.0);
  std::uniform_int_distribution<int> link_count(1, 4);
  std::uniform_int_distribution<int> link_pick(0, param.num_links - 1);

  std::vector<double> caps(static_cast<std::size_t>(param.num_links));
  for (auto& c : caps) c = cap(rng);
  std::vector<Flow> flows(static_cast<std::size_t>(param.num_flows));
  for (auto& f : flows) {
    const int k = link_count(rng);
    for (int i = 0; i < k; ++i) {
      const int l = link_pick(rng);
      if (std::find(f.links.begin(), f.links.end(), l) == f.links.end()) {
        f.links.push_back(l);
      }
    }
    if (f.links.empty()) f.links.push_back(link_pick(rng));
  }

  const auto rates = MaxMinFairRates(caps, flows);
  ASSERT_EQ(rates.size(), flows.size());

  // Feasibility: per-link loads within capacity.
  std::vector<double> load(caps.size(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_GE(rates[f], -kTol);
    for (int l : flows[f].links) load[static_cast<std::size_t>(l)] += rates[f];
  }
  for (std::size_t l = 0; l < caps.size(); ++l) {
    EXPECT_LE(load[l], caps[l] + 1e-4);
  }

  // Max-min property: every flow has a bottleneck link that is saturated and
  // on which it has a maximal rate.
  for (std::size_t f = 0; f < flows.size(); ++f) {
    bool has_bottleneck = false;
    for (int l : flows[f].links) {
      const auto lu = static_cast<std::size_t>(l);
      if (load[lu] < caps[lu] - 1e-4) continue;  // not saturated
      double max_rate_on_l = 0.0;
      for (std::size_t f2 = 0; f2 < flows.size(); ++f2) {
        if (std::find(flows[f2].links.begin(), flows[f2].links.end(), l) !=
            flows[f2].links.end()) {
          max_rate_on_l = std::max(max_rate_on_l, rates[f2]);
        }
      }
      if (rates[f] >= max_rate_on_l - 1e-4) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck) << "flow " << f << " has no bottleneck";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, MaxMinPropertyTest,
    ::testing::Values(RandomCase{3, 5, 1}, RandomCase{5, 10, 2}, RandomCase{8, 30, 3},
                      RandomCase{10, 100, 4}, RandomCase{20, 200, 5},
                      RandomCase{4, 50, 6}, RandomCase{30, 300, 7}));

// ---- workspace fast path: stress + reuse determinism ----

TEST(MaxMinWorkspace, StressSharedBottlenecksWithRateCaps) {
  // >= 500 flows over a small link set so bottlenecks are heavily shared;
  // half the flows carry a finite rate cap. Checks feasibility, bottleneck
  // saturation, and that the workspace matches the one-shot API while
  // giving bit-identical rates across repeated reuse.
  constexpr int kNumLinks = 40;
  constexpr int kNumFlows = 600;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> cap(5.0, 50.0);
  std::uniform_int_distribution<int> link_pick(0, kNumLinks - 1);
  std::uniform_int_distribution<int> len_pick(1, 5);

  std::vector<double> caps(kNumLinks);
  for (auto& c : caps) c = cap(rng);
  std::vector<Flow> flows(kNumFlows);
  for (int f = 0; f < kNumFlows; ++f) {
    const int len = len_pick(rng);
    // Link 0 is a shared bottleneck for every third flow.
    if (f % 3 == 0) flows[static_cast<std::size_t>(f)].links.push_back(0);
    for (int k = 0; k < len; ++k) {
      const int l = link_pick(rng);
      auto& ls = flows[static_cast<std::size_t>(f)].links;
      if (std::find(ls.begin(), ls.end(), l) == ls.end()) ls.push_back(l);
    }
    if (f % 2 == 0) flows[static_cast<std::size_t>(f)].rate_cap = 0.05 + 0.01 * (f % 7);
  }

  const auto reference = MaxMinFairRates(caps, flows);

  std::vector<FlowSpec> specs;
  for (const Flow& f : flows) specs.push_back(FlowSpec{f.links, f.rate_cap});
  MaxMinWorkspace ws;
  const auto first_span = ws.Compute(caps, specs);
  const std::vector<double> first(first_span.begin(), first_span.end());
  ASSERT_EQ(first.size(), reference.size());
  for (std::size_t f = 0; f < first.size(); ++f) {
    EXPECT_EQ(first[f], reference[f]) << "workspace diverges from one-shot at flow " << f;
  }
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto again = ws.Compute(caps, specs);
    for (std::size_t f = 0; f < first.size(); ++f) {
      EXPECT_EQ(again[f], first[f]) << "reused workspace not bit-identical at flow " << f;
    }
  }

  // Feasibility + rate caps respected.
  std::vector<double> load(caps.size(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_GE(reference[f], 0.0);
    EXPECT_LE(reference[f], flows[f].rate_cap + kTol);
    for (int l : flows[f].links) load[static_cast<std::size_t>(l)] += reference[f];
  }
  for (std::size_t l = 0; l < caps.size(); ++l) EXPECT_LE(load[l], caps[l] + 1e-4);

  // The shared link 0 must be saturated: it carries 200 uncapped-or-capped
  // flows against a capacity of at most 50.
  EXPECT_NEAR(load[0], caps[0], 1e-4);

  // Max-min: every flow is either at its cap or has a saturated bottleneck
  // on which no other flow gets a higher rate.
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (reference[f] >= flows[f].rate_cap - kTol) continue;
    bool has_bottleneck = false;
    for (int l : flows[f].links) {
      const auto lu = static_cast<std::size_t>(l);
      if (load[lu] < caps[lu] - 1e-4) continue;
      double max_rate_on_l = 0.0;
      for (std::size_t f2 = 0; f2 < flows.size(); ++f2) {
        if (std::find(flows[f2].links.begin(), flows[f2].links.end(), l) !=
            flows[f2].links.end()) {
          max_rate_on_l = std::max(max_rate_on_l, reference[f2]);
        }
      }
      if (reference[f] >= max_rate_on_l - 1e-4) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck) << "flow " << f << " below cap with no bottleneck";
  }
}

TEST(MaxMinWorkspace, ValidatesLikeOneShotApi) {
  MaxMinWorkspace ws;
  const std::vector<double> caps = {1.0};
  std::vector<int> bad_link = {3};
  std::vector<FlowSpec> unknown = {FlowSpec{bad_link, std::numeric_limits<double>::infinity()}};
  EXPECT_THROW(ws.Compute(caps, unknown), std::invalid_argument);
  std::vector<FlowSpec> unbounded = {FlowSpec{{}, std::numeric_limits<double>::infinity()}};
  EXPECT_THROW(ws.Compute(caps, unbounded), std::invalid_argument);
  std::vector<int> ok_link = {0};
  std::vector<FlowSpec> negative_cap = {FlowSpec{ok_link, -1.0}};
  EXPECT_THROW(ws.Compute(caps, negative_cap), std::invalid_argument);
  // The workspace stays usable after a failed call.
  std::vector<FlowSpec> fine = {FlowSpec{ok_link, std::numeric_limits<double>::infinity()}};
  EXPECT_NEAR(ws.Compute(caps, fine)[0], 1.0, kTol);
}

}  // namespace
}  // namespace p4p::sim
