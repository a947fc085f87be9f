#include "core/matching.h"

#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "core/itracker.h"
#include "net/routing.h"
#include "net/synth.h"
#include "net/topology.h"

namespace p4p::core {
namespace {

PDistanceMatrix UniformDistances(int n, double value) {
  PDistanceMatrix m(n, value);
  for (Pid i = 0; i < n; ++i) m.set(i, i, 0.0);
  return m;
}

TEST(Matching, TwoPidSymmetric) {
  // Two PIDs, each 10 up / 10 down: OPT total = 20 (10 each way).
  const auto dist = UniformDistances(2, 1.0);
  MatchingInput in;
  in.upload_bps = {10.0, 10.0};
  in.download_bps = {10.0, 10.0};
  in.distances = &dist;
  in.beta = 1.0;
  const auto out = SolveMatching(in);
  ASSERT_EQ(out.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(out.opt_total, 20.0, 1e-6);
  EXPECT_NEAR(out.achieved_total, 20.0, 1e-6);
  EXPECT_NEAR(out.traffic[0][1], 10.0, 1e-6);
  EXPECT_NEAR(out.traffic[1][0], 10.0, 1e-6);
}

TEST(Matching, UploadLimited) {
  const auto dist = UniformDistances(2, 1.0);
  MatchingInput in;
  in.upload_bps = {4.0, 0.0};
  in.download_bps = {100.0, 100.0};
  in.distances = &dist;
  in.beta = 1.0;
  const auto out = SolveMatching(in);
  ASSERT_EQ(out.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(out.opt_total, 4.0, 1e-6);
  EXPECT_NEAR(out.traffic[0][1], 4.0, 1e-6);
}

TEST(Matching, PrefersCheapPids) {
  // PID 0 can send to 1 (cheap) or 2 (expensive); both can absorb all of it.
  PDistanceMatrix dist(3, 0.0);
  dist.set(0, 1, 1.0);
  dist.set(0, 2, 10.0);
  MatchingInput in;
  in.upload_bps = {6.0, 0.0, 0.0};
  in.download_bps = {0.0, 10.0, 10.0};
  in.distances = &dist;
  in.beta = 1.0;
  const auto out = SolveMatching(in);
  ASSERT_EQ(out.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(out.traffic[0][1], 6.0, 1e-6);
  EXPECT_NEAR(out.traffic[0][2], 0.0, 1e-6);
  EXPECT_NEAR(out.weights[0][1], 1.0, 1e-6);
}

TEST(Matching, BetaRelaxationTradesVolumeForCost) {
  // Cheap path has capacity 5; expensive path adds 5 more. With beta = 1
  // both are used; with beta = 0.5 only the cheap one.
  PDistanceMatrix dist(3, 0.0);
  dist.set(0, 1, 1.0);
  dist.set(0, 2, 100.0);
  MatchingInput in;
  in.upload_bps = {10.0, 0.0, 0.0};
  in.download_bps = {0.0, 5.0, 5.0};
  in.distances = &dist;

  in.beta = 1.0;
  const auto strict = SolveMatching(in);
  ASSERT_EQ(strict.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(strict.achieved_total, 10.0, 1e-6);

  in.beta = 0.5;
  const auto relaxed = SolveMatching(in);
  ASSERT_EQ(relaxed.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(relaxed.achieved_total, 5.0, 1e-6);
  EXPECT_LT(relaxed.network_cost, strict.network_cost);
  EXPECT_GE(relaxed.achieved_total, 0.5 * relaxed.opt_total - 1e-6);
}

TEST(Matching, RobustnessFloorForcesSpread) {
  // Without rho all traffic goes to the cheap PID 1; with rho_02 = 0.3 at
  // least 30% must go to PID 2.
  PDistanceMatrix dist(3, 0.0);
  dist.set(0, 1, 1.0);
  dist.set(0, 2, 10.0);
  MatchingInput in;
  in.upload_bps = {10.0, 0.0, 0.0};
  in.download_bps = {0.0, 100.0, 100.0};
  in.distances = &dist;
  in.beta = 1.0;
  in.rho.assign(3, std::vector<double>(3, 0.0));
  in.rho[0][2] = 0.3;
  const auto out = SolveMatching(in);
  ASSERT_EQ(out.status, lp::SolveStatus::kOptimal);
  const double row_total = out.traffic[0][1] + out.traffic[0][2];
  EXPECT_GT(row_total, 1e-6);
  EXPECT_GE(out.traffic[0][2] / row_total, 0.3 - 1e-6);
}

TEST(Matching, WeightsAreRowNormalized) {
  const auto dist = UniformDistances(4, 1.0);
  MatchingInput in;
  in.upload_bps = {10.0, 8.0, 6.0, 4.0};
  in.download_bps = {5.0, 5.0, 5.0, 5.0};
  in.distances = &dist;
  const auto out = SolveMatching(in);
  ASSERT_EQ(out.status, lp::SolveStatus::kOptimal);
  for (std::size_t i = 0; i < 4; ++i) {
    double row = 0.0;
    double traffic_row = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_GE(out.weights[i][j], 0.0);
      row += out.weights[i][j];
      traffic_row += out.traffic[i][j];
    }
    if (traffic_row > 1e-9) {
      EXPECT_NEAR(row, 1.0, 1e-6);
    } else {
      EXPECT_NEAR(row, 0.0, 1e-9);
    }
  }
}

TEST(Matching, ZeroCapacityIsFeasible) {
  const auto dist = UniformDistances(2, 1.0);
  MatchingInput in;
  in.upload_bps = {0.0, 0.0};
  in.download_bps = {0.0, 0.0};
  in.distances = &dist;
  const auto out = SolveMatching(in);
  ASSERT_EQ(out.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(out.opt_total, 0.0, 1e-9);
}

TEST(Matching, ValidationErrors) {
  const auto dist = UniformDistances(2, 1.0);
  MatchingInput in;
  in.upload_bps = {1.0, 1.0};
  in.download_bps = {1.0};
  in.distances = &dist;
  EXPECT_THROW(SolveMatching(in), std::invalid_argument);
  in.download_bps = {1.0, 1.0};
  in.distances = nullptr;
  EXPECT_THROW(SolveMatching(in), std::invalid_argument);
  in.distances = &dist;
  in.beta = 0.0;
  EXPECT_THROW(SolveMatching(in), std::invalid_argument);
  in.beta = 0.8;
  in.upload_bps = {-1.0, 1.0};
  EXPECT_THROW(SolveMatching(in), std::invalid_argument);
  in.upload_bps = {1.0, 1.0};
  in.rho.assign(2, std::vector<double>(2, 0.6));  // row sum 0.6 off-diag ok
  in.rho[0][1] = 1.5;
  EXPECT_THROW(SolveMatching(in), std::invalid_argument);
}

TEST(Matching, RhoRowSumMustStayBelowOne) {
  const auto dist = UniformDistances(3, 1.0);
  MatchingInput in;
  in.upload_bps = {1.0, 1.0, 1.0};
  in.download_bps = {1.0, 1.0, 1.0};
  in.distances = &dist;
  in.rho.assign(3, std::vector<double>(3, 0.5));  // off-diag row sum = 1.0
  EXPECT_THROW(SolveMatching(in), std::invalid_argument);
}

/// Capacities of the topology tests: seeded per-PID upload and download
/// drawn from [0.05, 0.25] Gbps.
MatchingInput SeededCapacities(int n, const PDistanceMatrix* dist) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> cap(0.05e9, 0.25e9);
  MatchingInput in;
  in.distances = dist;
  in.beta = 0.8;
  for (int i = 0; i < n; ++i) {
    in.upload_bps.push_back(cap(rng));
    in.download_bps.push_back(cap(rng));
  }
  return in;
}

/// sum_ij d_ij t_ij of an answer under `dist`.
double CostUnder(const PDistanceMatrix& dist, const MatchingResult& out) {
  double cost = 0.0;
  for (Pid i = 0; i < dist.size(); ++i) {
    for (Pid j = 0; j < dist.size(); ++j) {
      cost += dist.at(i, j) * out.traffic[static_cast<std::size_t>(i)]
                                         [static_cast<std::size_t>(j)];
    }
  }
  return cost;
}

/// The raw p-distance view of a default tracker on `graph`: its entries
/// are about 1e-12 to 1e-11, far below the simplex's absolute tolerance.
PDistanceMatrix TrackerView(const net::Graph& graph) {
  net::RoutingTable routing(graph);
  ITracker tracker(graph, routing);
  return tracker.external_view();
}

TEST(Matching, AnswerIsScaleFree) {
  // p-distances are unit-free: k*d must give the answer d gives. The view
  // has many tied distances, so the optimum is not unique; the check is
  // that every scaled answer is optimal for d, and that the cost comes
  // back in the caller's units.
  const auto base = TrackerView(net::MakeAbilene());
  const auto reference_in = SeededCapacities(base.size(), &base);
  const auto reference = SolveMatching(reference_in);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);
  for (const double k : {1e-12, 1.0, 1e9}) {
    PDistanceMatrix scaled(base.size());
    for (Pid i = 0; i < base.size(); ++i) {
      for (Pid j = 0; j < base.size(); ++j) scaled.set(i, j, k * base.at(i, j));
    }
    auto in = reference_in;
    in.distances = &scaled;
    const auto out = SolveMatching(in);
    ASSERT_EQ(out.status, lp::SolveStatus::kOptimal) << "k = " << k;
    EXPECT_NEAR(out.achieved_total, reference.achieved_total,
                1e-9 * reference.achieved_total)
        << "k = " << k;
    EXPECT_NEAR(CostUnder(base, out), reference.network_cost,
                1e-9 * reference.network_cost)
        << "k = " << k;
    EXPECT_NEAR(out.network_cost, k * reference.network_cost,
                1e-9 * k * reference.network_cost)
        << "k = " << k;
  }
}

TEST(Matching, TrackerViewSteersTheAnswer) {
  for (const auto& [name, graph] :
       {std::pair{"Abilene", net::MakeAbilene()}, std::pair{"ISP-A", net::MakeIspA()},
        std::pair{"ISP-B", net::MakeIspB()}}) {
    const auto view = TrackerView(graph);
    const PDistanceMatrix zero(view.size(), 0.0);
    const auto priced = SolveMatching(SeededCapacities(view.size(), &view));
    const auto blind = SolveMatching(SeededCapacities(view.size(), &zero));
    ASSERT_EQ(priced.status, lp::SolveStatus::kOptimal) << name;
    ASSERT_EQ(blind.status, lp::SolveStatus::kOptimal) << name;
    EXPECT_NE(priced.traffic, blind.traffic) << name;
    // The priced answer is strictly cheaper under the tracker's own prices.
    EXPECT_LT(CostUnder(view, priced), 0.99 * CostUnder(view, blind)) << name;
    EXPECT_NEAR(priced.network_cost, CostUnder(view, priced),
                1e-9 * CostUnder(view, priced))
        << name;
  }
}

class MatchingSweep : public ::testing::TestWithParam<int> {};

TEST_P(MatchingSweep, EfficiencyFloorAlwaysRespected) {
  const int n = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(n));
  std::uniform_real_distribution<double> cap(0.0, 20.0);
  std::uniform_real_distribution<double> d(0.5, 5.0);
  PDistanceMatrix dist(n, 0.0);
  for (Pid i = 0; i < n; ++i) {
    for (Pid j = 0; j < n; ++j) {
      if (i != j) dist.set(i, j, d(rng));
    }
  }
  MatchingInput in;
  in.distances = &dist;
  in.beta = 0.8;
  for (int i = 0; i < n; ++i) {
    in.upload_bps.push_back(cap(rng));
    in.download_bps.push_back(cap(rng));
  }
  const auto out = SolveMatching(in);
  ASSERT_EQ(out.status, lp::SolveStatus::kOptimal);
  EXPECT_GE(out.achieved_total, 0.8 * out.opt_total - 1e-6);
  // Capacity constraints hold.
  for (int i = 0; i < n; ++i) {
    double up = 0.0;
    double down = 0.0;
    for (int j = 0; j < n; ++j) {
      up += out.traffic[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      down += out.traffic[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
    }
    EXPECT_LE(up, in.upload_bps[static_cast<std::size_t>(i)] + 1e-6);
    EXPECT_LE(down, in.download_bps[static_cast<std::size_t>(i)] + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatchingSweep, ::testing::Values(2, 3, 5, 8, 11, 15));

TEST(ConcaveTransform, RaisesSmallWeights) {
  std::vector<std::vector<double>> w = {{0.81, 0.09, 0.09, 0.01}};
  ApplyConcaveTransform(w, 0.5);
  double sum = 0.0;
  for (double x : w[0]) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // sqrt compresses the ratio 81:1 to 9:1.
  EXPECT_NEAR(w[0][0] / w[0][3], 9.0, 1e-6);
}

TEST(ConcaveTransform, GammaOneIsIdentityUpToNormalization) {
  std::vector<std::vector<double>> w = {{0.5, 0.3, 0.2}};
  auto copy = w;
  ApplyConcaveTransform(w, 1.0);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(w[0][j], copy[0][j], 1e-9);
}

TEST(ConcaveTransform, HandlesZeroRows) {
  std::vector<std::vector<double>> w = {{0.0, 0.0}};
  ApplyConcaveTransform(w, 0.5);
  EXPECT_DOUBLE_EQ(w[0][0], 0.0);
}

TEST(ConcaveTransform, Rejects) {
  std::vector<std::vector<double>> w = {{1.0}};
  EXPECT_THROW(ApplyConcaveTransform(w, 0.0), std::invalid_argument);
  EXPECT_THROW(ApplyConcaveTransform(w, 1.5), std::invalid_argument);
  std::vector<std::vector<double>> neg = {{-0.1}};
  EXPECT_THROW(ApplyConcaveTransform(neg, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace p4p::core
