// IncrementalMaxMin tests: randomized flow/capacity/rate-cap churn checked
// bit-identical against the frozen reference solve, the
// clean-call skip and full-recompute accounting, slot reuse, validation,
// and the gather/solve time attribution.
#include "sim/maxmin_incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>

#include "sim/maxmin.h"
#include "support/maxmin_reference.h"

namespace p4p::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Full-solve reference over the live slots in ascending slot order, the
/// same enumeration the store hands to its own solve.
void ExpectMatchesOracle(IncrementalMaxMin& inc,
                         const std::vector<double>& capacities,
                         const std::map<int, Flow>& model) {
  std::vector<Flow> flows;
  flows.reserve(model.size());
  for (const auto& [slot, flow] : model) flows.push_back(flow);
  const auto expect = reference::MaxMinFairRates(capacities, flows);
  const auto rates = inc.Rates();
  std::size_t i = 0;
  for (const auto& [slot, flow] : model) {
    // Bitwise equality, not tolerance: the store must replay the exact
    // arithmetic sequence of the full solve.
    EXPECT_EQ(rates[static_cast<std::size_t>(slot)], expect[i])
        << "slot " << slot << " diverged from oracle";
    ++i;
  }
}

TEST(MaxMinIncremental, MatchesOracleOnStaticTopologies) {
  // The classic shapes from sim_maxmin_test, driven through AddFlow.
  {
    IncrementalMaxMin inc({10.0, 4.0});
    const std::vector<int> a = {0}, b = {0, 1};
    inc.AddFlow(a);
    inc.AddFlow(b);
    const auto rates = inc.Rates();
    EXPECT_DOUBLE_EQ(rates[1], 4.0);
    EXPECT_DOUBLE_EQ(rates[0], 6.0);
  }
  {
    IncrementalMaxMin inc({10.0});
    const std::vector<int> l = {0};
    inc.AddFlow(l, 2.0);
    inc.AddFlow(l);
    const auto rates = inc.Rates();
    EXPECT_DOUBLE_EQ(rates[0], 2.0);
    EXPECT_DOUBLE_EQ(rates[1], 8.0);
  }
  {
    // Cap-only flow: its virtual link is the sole bottleneck.
    IncrementalMaxMin inc({});
    inc.AddFlow(std::span<const int>{}, 3.5);
    EXPECT_DOUBLE_EQ(inc.Rates()[0], 3.5);
  }
}

TEST(MaxMinIncremental, RandomChurnBitIdenticalToOracleMultiSeed) {
  for (std::uint32_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    std::mt19937_64 rng(seed);
    const int num_links = 24;
    std::vector<double> capacities(num_links);
    std::uniform_real_distribution<double> cap_dist(0.5, 50.0);
    for (double& c : capacities) c = cap_dist(rng);

    IncrementalMaxMin inc(capacities);
    std::map<int, Flow> model;  // slot -> flow

    std::uniform_int_distribution<int> op_dist(0, 99);
    std::uniform_int_distribution<int> link_dist(0, num_links - 1);
    std::uniform_int_distribution<int> len_dist(1, 5);

    for (int step = 0; step < 400; ++step) {
      const int op = op_dist(rng);
      if (op < 45 || model.empty()) {
        // Add a flow over distinct random links, sometimes rate-capped.
        const int len = len_dist(rng);
        std::vector<int> links;
        while (static_cast<int>(links.size()) < len) {
          const int l = link_dist(rng);
          if (std::find(links.begin(), links.end(), l) == links.end()) {
            links.push_back(l);
          }
        }
        double cap = kInf;
        if (op_dist(rng) < 40) cap = cap_dist(rng) * 0.2;
        const int slot = inc.AddFlow(links, cap);
        ASSERT_TRUE(model.emplace(slot, Flow{links, cap}).second)
            << "allocator handed out a live slot twice";
      } else if (op < 70) {
        // Remove a random live flow.
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng() % model.size()));
        inc.RemoveFlow(it->first);
        model.erase(it);
      } else if (op < 85) {
        // Retune a rate cap (set, change, or clear).
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng() % model.size()));
        double cap = kInf;
        if (it->second.links.empty() || op_dist(rng) < 70) {
          cap = cap_dist(rng) * 0.2;
        }
        inc.SetRateCap(it->first, cap);
        it->second.rate_cap = cap;
      } else {
        // Change a link capacity.
        const int l = link_dist(rng);
        const double c = cap_dist(rng);
        inc.SetCapacity(l, c);
        capacities[static_cast<std::size_t>(l)] = c;
      }

      // Compare every few steps (and always near the end) so the store is
      // exercised across multi-op dirty batches.
      if (step % 3 == 0 || step > 390) {
        ExpectMatchesOracle(inc, capacities, model);
      }
    }
    ASSERT_GT(inc.recompute_passes(), 0u);
  }
}

TEST(MaxMinIncremental, CleanCallDoesNotRecompute) {
  IncrementalMaxMin inc({10.0, 5.0});
  const std::vector<int> a = {0}, b = {1};
  inc.AddFlow(a);
  inc.AddFlow(b);
  (void)inc.Rates();
  const auto passes = inc.recompute_passes();
  const auto total = inc.total_recomputed_flows();
  const auto r0 = inc.Rates()[0];
  EXPECT_EQ(inc.recompute_passes(), passes);
  EXPECT_EQ(inc.total_recomputed_flows(), total);
  EXPECT_DOUBLE_EQ(r0, 10.0);
}

TEST(MaxMinIncremental, DirtyPassRecomputesEveryLiveFlow) {
  // Two disjoint link groups: {0,1} and {2,3}. A change in either one
  // re-solves every live flow, not just the touched group.
  IncrementalMaxMin inc({10.0, 10.0, 8.0, 8.0});
  const std::vector<int> a = {0, 1}, b = {0}, c = {2, 3}, d = {2};
  inc.AddFlow(a);
  inc.AddFlow(b);
  const int right1 = inc.AddFlow(c);
  inc.AddFlow(d);
  (void)inc.Rates();
  EXPECT_EQ(inc.last_recomputed_flows(), 4u);

  inc.SetRateCap(right1, 1.5);
  const auto rates = inc.Rates();
  EXPECT_EQ(inc.last_recomputed_flows(), 4u);
  EXPECT_DOUBLE_EQ(rates[static_cast<std::size_t>(right1)], 1.5);
  EXPECT_DOUBLE_EQ(rates[0], 5.0);

  inc.SetCapacity(0, 6.0);
  (void)inc.Rates();
  EXPECT_EQ(inc.last_recomputed_flows(), 4u);
  EXPECT_EQ(inc.total_recomputed_flows(), 12u);
  EXPECT_EQ(inc.recompute_passes(), 3u);
}

TEST(MaxMinIncremental, RemovingLastFlowYieldsZeroRates) {
  IncrementalMaxMin inc({10.0, 4.0});
  const std::vector<int> a = {0}, b = {0, 1};
  const int s0 = inc.AddFlow(a);
  const int s1 = inc.AddFlow(b, 3.0);
  const auto before = inc.Rates();
  EXPECT_DOUBLE_EQ(before[static_cast<std::size_t>(s0)], 7.0);
  EXPECT_DOUBLE_EQ(before[static_cast<std::size_t>(s1)], 3.0);
  inc.RemoveFlow(s0);
  inc.RemoveFlow(s1);
  EXPECT_EQ(inc.num_flows(), 0u);
  const auto after = inc.Rates();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0], 0.0);
  EXPECT_EQ(after[1], 0.0);
  EXPECT_EQ(inc.last_recomputed_flows(), 0u);
}

TEST(MaxMinIncremental, SlotReuseAfterRemove) {
  IncrementalMaxMin inc({10.0});
  const std::vector<int> l = {0};
  const int s0 = inc.AddFlow(l);
  const int s1 = inc.AddFlow(l);
  inc.RemoveFlow(s0);
  const int s2 = inc.AddFlow(l, 2.0);
  EXPECT_EQ(s2, s0);  // freed slot recycled
  const auto rates = inc.Rates();
  EXPECT_DOUBLE_EQ(rates[static_cast<std::size_t>(s2)], 2.0);
  EXPECT_DOUBLE_EQ(rates[static_cast<std::size_t>(s1)], 8.0);
  EXPECT_EQ(inc.num_flows(), 2u);
}

TEST(MaxMinIncremental, ValidationMatchesOracle) {
  EXPECT_THROW(IncrementalMaxMin({-1.0}), std::invalid_argument);
  IncrementalMaxMin inc({10.0});
  const std::vector<int> unknown = {1};
  const std::vector<int> ok = {0};
  EXPECT_THROW(inc.AddFlow(unknown), std::invalid_argument);
  EXPECT_THROW(inc.AddFlow(ok, -2.0), std::invalid_argument);
  EXPECT_THROW(inc.AddFlow(std::span<const int>{}), std::invalid_argument);
  const int s = inc.AddFlow(ok);
  EXPECT_THROW(inc.SetRateCap(s, -1.0), std::invalid_argument);
  EXPECT_THROW(inc.SetCapacity(0, -1.0), std::invalid_argument);
  // Unknown link: same error contract as every other mutator (not the
  // std::out_of_range a bare capacities_.at() would raise).
  EXPECT_THROW(inc.SetCapacity(1, 5.0), std::invalid_argument);
  EXPECT_THROW(inc.SetCapacity(-1, 5.0), std::invalid_argument);
  inc.RemoveFlow(s);
  EXPECT_THROW(inc.RemoveFlow(s), std::invalid_argument);
  EXPECT_THROW(inc.SetRateCap(s, 1.0), std::invalid_argument);
  // A cap-only flow may never have its cap cleared to infinity.
  const int c = inc.AddFlow(std::span<const int>{}, 2.0);
  EXPECT_THROW(inc.SetRateCap(c, kInf), std::invalid_argument);
}

TEST(MaxMinIncrementalPaths, SetCapacityUnknownLinkThrowsInvalidArgument) {
  IncrementalMaxMin inc({1.0, 2.0});
  EXPECT_THROW(inc.SetCapacity(2, 1.0), std::invalid_argument);
  EXPECT_THROW(inc.SetCapacity(-1, 1.0), std::invalid_argument);
}

TEST(MaxMinIncrementalPaths, AttributionCountersAdvanceOnRecompute) {
  IncrementalMaxMin inc({10.0, 5.0});
  const std::vector<int> a = {0}, b = {1};
  inc.AddFlow(a);
  inc.AddFlow(b);
  (void)inc.Rates();
  EXPECT_GE(inc.last_gather_ns(), 0);
  EXPECT_GE(inc.last_solve_ns(), 0);
  const auto g1 = inc.total_gather_ns();
  const auto s1 = inc.total_solve_ns();
  // Clean call: attribution untouched.
  (void)inc.Rates();
  EXPECT_EQ(inc.total_gather_ns(), g1);
  EXPECT_EQ(inc.total_solve_ns(), s1);
  // Dirty call: cumulative totals only grow.
  inc.SetCapacity(0, 8.0);
  (void)inc.Rates();
  EXPECT_GE(inc.total_gather_ns(), g1);
  EXPECT_GE(inc.total_solve_ns(), s1);
  EXPECT_EQ(inc.recompute_passes(), 2u);
}

}  // namespace
}  // namespace p4p::sim
