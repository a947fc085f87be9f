// The max-min engine against the frozen reference solve
// (tests/support/maxmin_reference), bitwise. The engine fills only the
// links that can bind and walks a persistent flow-on-link index; the
// reference fills every link from a freshly built adjacency. The inputs
// are chosen where a screen or an ordering change would show: exact ties
// on integer capacities, slack and binding rate caps, zero and infinite
// capacities, link bound sums within a few ulps of the slack threshold, and
// capacity/rate-cap churn on a live store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <random>

#include "sim/maxmin.h"
#include "sim/maxmin_incremental.h"
#include "support/maxmin_reference.h"

namespace p4p::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kSeeds[] = {1, 2, 3, 17, 404, 90001};

/// The store's rates must equal the reference fed the live flows in slot
/// order, and so must the one-shot wrapper.
void ExpectMatchesReference(IncrementalMaxMin& store,
                            const std::vector<double>& capacities,
                            const std::map<int, Flow>& model) {
  std::vector<Flow> flows;
  for (const auto& [slot, flow] : model) flows.push_back(flow);
  const auto expect = reference::MaxMinFairRates(capacities, flows);
  const auto one_shot = MaxMinFairRates(capacities, flows);
  const auto rates = store.Rates();
  std::size_t i = 0;
  for (const auto& [slot, flow] : model) {
    EXPECT_EQ(rates[static_cast<std::size_t>(slot)], expect[i]) << "slot " << slot;
    EXPECT_EQ(one_shot[i], expect[i]) << "one-shot flow " << i;
    ++i;
  }
}

/// Draws capacities, caps and link lists; one generator per input class.
struct Draw {
  std::function<double(std::mt19937_64&)> capacity;
  std::function<double(std::mt19937_64&)> rate_cap;  // kInf for uncapped
};

/// Random add/remove/SetRateCap/SetCapacity churn on one store, checked
/// against the reference after every operation.
void Churn(std::uint32_t seed, int num_links, int steps, const Draw& draw,
           int capacity_op_share) {
  std::mt19937_64 rng(seed);
  std::vector<double> capacities(static_cast<std::size_t>(num_links));
  for (double& c : capacities) c = draw.capacity(rng);
  IncrementalMaxMin store(capacities);
  std::map<int, Flow> model;
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_int_distribution<int> link_dist(0, num_links - 1);
  std::uniform_int_distribution<int> len_dist(0, 4);
  for (int step = 0; step < steps; ++step) {
    const int op = op_dist(rng);
    if (op < 40 || model.empty()) {
      std::vector<int> links(static_cast<std::size_t>(len_dist(rng)));
      for (int& l : links) l = link_dist(rng);  // repeats allowed
      double cap = draw.rate_cap(rng);
      if (links.empty() && !std::isfinite(cap)) cap = 1.0 + static_cast<double>(seed % 5);
      const int slot = store.AddFlow(links, cap);
      ASSERT_TRUE(model.emplace(slot, Flow{links, cap}).second);
    } else if (op < 60) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng() % model.size()));
      store.RemoveFlow(it->first);
      model.erase(it);
    } else if (op < 100 - capacity_op_share) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng() % model.size()));
      double cap = draw.rate_cap(rng);
      if (it->second.links.empty() && !std::isfinite(cap)) cap = 2.0;
      store.SetRateCap(it->first, cap);
      it->second.rate_cap = cap;
    } else {
      const int l = link_dist(rng);
      const double c = draw.capacity(rng);
      store.SetCapacity(l, c);
      capacities[static_cast<std::size_t>(l)] = c;
    }
    ExpectMatchesReference(store, capacities, model);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(MaxMinOracle, IntegerCapacitiesWithExactTies) {
  // Small integer capacities and caps: many links reach the same fair
  // share at once, so the (share, link) tie-break decides the pop order.
  const Draw draw{
      [](std::mt19937_64& rng) { return static_cast<double>(1 + rng() % 6); },
      [](std::mt19937_64& rng) {
        return rng() % 10 < 3 ? static_cast<double>(1 + rng() % 4) : kInf;
      }};
  for (std::uint32_t seed : kSeeds) Churn(seed, 10, 250, draw, 15);
}

TEST(MaxMinOracle, RateCapsIncludingSlackVirtualLinks) {
  // Caps from far below to far above the path capacity: a cap above its
  // path's tightest link is a slack virtual link the engine never fills.
  const Draw draw{
      [](std::mt19937_64& rng) {
        return 1.0 + static_cast<double>(rng() % 1000) / 100.0;
      },
      [](std::mt19937_64& rng) {
        static constexpr double kCaps[] = {0.05, 0.5, 2.0, 7.5, 40.0, 1e6, 1e13};
        return rng() % 5 == 0 ? kInf : kCaps[rng() % 7];
      }};
  for (std::uint32_t seed : kSeeds) Churn(seed, 8, 250, draw, 15);
}

TEST(MaxMinOracle, ZeroAndInfiniteCapacities) {
  // Zero links freeze their flows at 0; links of infinite capacity carry
  // flows bounded elsewhere, or unbounded flows that get an infinite rate.
  const Draw draw{
      [](std::mt19937_64& rng) {
        const auto k = rng() % 6;
        return k == 0 ? 0.0 : k == 1 ? kInf : static_cast<double>(k) * 1.5;
      },
      [](std::mt19937_64& rng) {
        const auto k = rng() % 6;
        return k == 0 ? 0.0 : k == 1 ? 3.0 : kInf;
      }};
  for (std::uint32_t seed : kSeeds) Churn(seed, 7, 250, draw, 30);
}

TEST(MaxMinOracle, CapacityAndRateCapChurn) {
  // Mostly capacity and cap updates on a live store, with bps-sized
  // values: every update re-bounds the flows it touches.
  const Draw draw{
      [](std::mt19937_64& rng) {
        return std::uniform_real_distribution<double>(1e5, 1e8)(rng);
      },
      [](std::mt19937_64& rng) {
        return rng() % 2 == 0 ? kInf
                              : std::uniform_real_distribution<double>(1e5, 5e7)(rng);
      }};
  for (std::uint32_t seed : kSeeds) Churn(seed, 16, 300, draw, 45);
}

TEST(MaxMinOracle, LinkSumsNearTheSlackThreshold) {
  // Link 0 is shared by n flows, each bounded by a private link. The sum
  // of the private bounds is set to within a few units of the slack
  // threshold c_0 * (1 - 1e-9), and c_0 is moved by a few ulps, so the
  // screen's decision flips inside the sweep; the rates must not.
  int cases = 0;
  for (std::uint32_t seed : kSeeds) {
    std::mt19937_64 rng(seed);
    for (double base : {1e9, 1048576.5, 12345678.0, 3e10, 999.0}) {
      for (int ulps = -3; ulps <= 3; ++ulps) {
        double c0 = base;
        for (int k = 0; k < std::abs(ulps); ++k) {
          c0 = std::nextafter(c0, ulps < 0 ? 0.0 : kInf);
        }
        const double threshold = c0 * (1.0 - 1e-9);
        for (int off = -2; off <= 2; ++off) {
          const int n = 2 + static_cast<int>(rng() % 6);
          const double target = std::ceil(threshold) + off;
          std::vector<double> caps = {c0};
          std::vector<Flow> flows;
          double left = target;
          for (int f = 0; f < n; ++f) {
            // Integer bounds summing to the target; one flow in three
            // takes a fractional bound whose ceiling keeps the sum.
            double b = f + 1 < n ? std::floor(target / n) : left;
            left -= b;
            if (f % 3 == 1 && b > 1.0) b -= 0.25;
            const bool capped = rng() % 2 == 0;
            caps.push_back(capped ? b * 2.0 : b);
            const int own = static_cast<int>(caps.size()) - 1;
            flows.push_back(Flow{{0, own}, capped ? b : kInf});
          }
          // In half the cases one more flow is bounded by c_0 alone, so
          // link 0 cannot be screened and binds after the others freeze.
          if (rng() % 2 == 0) {
            caps.push_back(c0);
            flows.push_back(Flow{{static_cast<int>(caps.size()) - 1, 0}, kInf});
          }
          const auto expect = reference::MaxMinFairRates(caps, flows);
          const auto got = MaxMinFairRates(caps, flows);
          for (std::size_t f = 0; f < flows.size(); ++f) {
            ASSERT_EQ(got[f], expect[f])
                << "c0=" << c0 << " target=" << target << " flow " << f;
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 6 * 5 * 7 * 5);
}

TEST(MaxMinOracle, IsolatedAndSharedBindingLinks) {
  // Swarm-shaped flows: uploader access link -> (backbone) -> downloader
  // access link. Wide downlinks and a wide backbone are screened, so a
  // binding uplink whose flows touch no other unscreened link is isolated
  // and frozen without the heap. Narrow downlinks bind and are shared
  // between uploaders, a cap at or below its path's capacity keeps a
  // flow's virtual link unscreened beside its uplink, and zero-capacity
  // uplinks freeze their flows at 0.
  constexpr int kUp = 6;
  constexpr int kDown = 6;
  constexpr int kBackbone = kUp + kDown;
  const auto flow = [](int up, int down, bool backbone, double cap) {
    return backbone ? Flow{{up, kBackbone, kUp + down}, cap} : Flow{{up, kUp + down}, cap};
  };

  {
    // Uplink 0 (cap 6, three flows) and zero uplink 1 are isolated; uplinks
    // 2 and 3 share narrow downlink 1; uplink 4's capped flow keeps its
    // virtual link unscreened beside it.
    std::vector<double> capacities(kBackbone + 1, 1e9);
    capacities[0] = 6.0;
    capacities[1] = 0.0;
    capacities[2] = 8.0;
    capacities[3] = 8.0;
    capacities[4] = 6.0;
    capacities[kUp + 1] = 3.0;
    IncrementalMaxMin store(capacities);
    std::map<int, Flow> model;
    for (const Flow& f : {flow(0, 0, false, kInf), flow(0, 2, true, kInf),
                          flow(0, 3, false, kInf), flow(1, 0, true, kInf),
                          flow(1, 4, false, kInf), flow(2, 1, true, kInf),
                          flow(2, 5, false, kInf), flow(3, 1, false, kInf),
                          flow(4, 4, false, 2.0), flow(4, 5, true, kInf)}) {
      model.emplace(store.AddFlow(f.links, f.rate_cap), f);
    }
    ExpectMatchesReference(store, capacities, model);
    const auto rates = store.Rates();
    EXPECT_EQ(rates[0], 2.0);
    EXPECT_EQ(rates[3], 0.0);
    EXPECT_EQ(rates[5], 1.5);
    EXPECT_EQ(rates[6], 6.5);
    EXPECT_EQ(rates[8], 2.0);
    EXPECT_EQ(rates[9], 4.0);
  }

  for (std::uint32_t seed : kSeeds) {
    std::mt19937_64 rng(seed);
    const auto up_capacity = [&rng] {
      return rng() % 5 == 0 ? 0.0 : static_cast<double>(1 + rng() % 8);
    };
    const auto down_capacity = [&rng] {
      return rng() % 3 == 0 ? static_cast<double>(1 + rng() % 4) : 1e9;
    };
    std::vector<double> capacities;
    for (int l = 0; l < kUp; ++l) capacities.push_back(up_capacity());
    for (int l = 0; l < kDown; ++l) capacities.push_back(down_capacity());
    capacities.push_back(1e12);
    IncrementalMaxMin store(capacities);
    std::map<int, Flow> model;
    const auto draw_cap = [&rng] {
      return rng() % 4 == 0 ? static_cast<double>(1 + rng() % 6) : kInf;
    };
    for (int step = 0; step < 300; ++step) {
      const auto op = rng() % 100;
      if (op < 45 || model.empty()) {
        const Flow f = flow(static_cast<int>(rng() % kUp), static_cast<int>(rng() % kDown),
                            rng() % 2 == 0, draw_cap());
        const int slot = store.AddFlow(f.links, f.rate_cap);
        ASSERT_TRUE(model.emplace(slot, f).second);
      } else if (op < 70) {
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng() % model.size()));
        store.RemoveFlow(it->first);
        model.erase(it);
      } else if (op < 80) {
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng() % model.size()));
        it->second.rate_cap = draw_cap();
        store.SetRateCap(it->first, it->second.rate_cap);
      } else {
        const auto l = static_cast<int>(rng() % (kBackbone + 1));
        const double c = l < kUp ? up_capacity()
                         : l < kBackbone ? down_capacity()
                                         : (rng() % 4 == 0 ? 20.0 : 1e12);
        store.SetCapacity(l, c);
        capacities[static_cast<std::size_t>(l)] = c;
      }
      ExpectMatchesReference(store, capacities, model);
      if (testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace p4p::sim
