#include "proto/caching_client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "core/apptracker.h"
#include "net/topology.h"
#include "support/fault_injection.h"

namespace p4p::proto {
namespace {

/// In-process transport with a kill switch: models "every replica
/// unreachable" for the stale-while-unreachable tests.
class FlakyTransport final : public Transport {
 public:
  FlakyTransport(Handler backend, const bool* down)
      : backend_(std::move(backend)), down_(down) {}
  std::vector<std::uint8_t> Call(std::span<const std::uint8_t> request) override {
    if (*down_) throw std::runtime_error("FlakyTransport: unreachable");
    return backend_(request);
  }

 private:
  Handler backend_;
  const bool* down_;
};

class CachingClientTest : public ::testing::Test {
 protected:
  CachingClientTest()
      : graph_(net::MakeAbilene()), routing_(graph_), tracker_(graph_, routing_),
        service_(&tracker_) {}

  CachingPortalClient MakeClient(double ttl) {
    return CachingPortalClient(
        std::make_unique<InProcessTransport>(service_.handler()),
        [this] { return now_; }, ttl);
  }

  net::Graph graph_;
  net::RoutingTable routing_;
  core::ITracker tracker_;
  ITrackerService service_;
  double now_ = 0.0;
};

TEST_F(CachingClientTest, Validation) {
  EXPECT_THROW(CachingPortalClient(
                   std::make_unique<InProcessTransport>(service_.handler()),
                   nullptr, 10.0),
               std::invalid_argument);
  EXPECT_THROW(CachingPortalClient(
                   std::make_unique<InProcessTransport>(service_.handler()),
                   [] { return 0.0; }, 0.0),
               std::invalid_argument);
}

TEST_F(CachingClientTest, FirstAccessFetches) {
  auto client = MakeClient(60.0);
  const auto& view = client.GetExternalView();
  EXPECT_EQ(view.size(), tracker_.num_pids());
  EXPECT_EQ(client.fetch_count(), 1u);
  EXPECT_EQ(client.hit_count(), 0u);
}

TEST_F(CachingClientTest, RepeatAccessHitsCache) {
  auto client = MakeClient(60.0);
  client.GetExternalView();
  for (int i = 0; i < 10; ++i) {
    now_ += 1.0;
    client.GetExternalView();
  }
  EXPECT_EQ(client.fetch_count(), 1u);
  EXPECT_EQ(client.hit_count(), 10u);
}

TEST_F(CachingClientTest, TtlExpiryValidatesWhenVersionUnchanged) {
  // Past the TTL with unchanged server prices, the refresh is a conditional
  // request answered NotModified: the matrix is kept, no re-transfer.
  auto client = MakeClient(10.0);
  client.GetExternalView();
  now_ = 10.5;
  client.GetExternalView();
  EXPECT_EQ(client.fetch_count(), 1u);
  EXPECT_EQ(client.validation_count(), 1u);
  // The validation restarts the TTL window.
  now_ = 15.0;
  client.GetExternalView();
  EXPECT_EQ(client.hit_count(), 1u);
}

TEST_F(CachingClientTest, TtlExpiryRefetchesWhenVersionMoved) {
  auto client = MakeClient(10.0);
  client.GetExternalView();
  std::vector<double> traffic(graph_.link_count(), 1e9);
  tracker_.Update(traffic);
  now_ = 10.5;
  client.GetExternalView();
  EXPECT_EQ(client.fetch_count(), 2u);
  EXPECT_EQ(client.validation_count(), 0u);
}

TEST_F(CachingClientTest, RefetchSeesUpdatedPrices) {
  auto client = MakeClient(5.0);
  const auto before = client.GetPDistances(net::kNewYork);
  // Prices change server-side.
  std::vector<double> traffic(graph_.link_count(), 0.0);
  traffic[static_cast<std::size_t>(
      graph_.find_link(net::kWashingtonDC, net::kNewYork))] = 9e9;
  for (int i = 0; i < 10; ++i) tracker_.Update(traffic);
  // Within the TTL: still the old row.
  const auto cached = client.GetPDistances(net::kNewYork);
  EXPECT_EQ(before, cached);
  // Past the TTL: fresh row differs.
  now_ = 6.0;
  const auto fresh = client.GetPDistances(net::kNewYork);
  EXPECT_NE(before, fresh);
}

TEST_F(CachingClientTest, InvalidateForcesRefetch) {
  auto client = MakeClient(1e9);
  client.GetExternalView();
  client.Invalidate();
  client.GetExternalView();
  EXPECT_EQ(client.fetch_count(), 2u);
}

TEST_F(CachingClientTest, RowMatchesDirectQuery) {
  auto client = MakeClient(60.0);
  const auto row = client.GetPDistances(net::kChicago);
  const auto expected = tracker_.GetPDistances(net::kChicago);
  ASSERT_EQ(row.size(), expected.size());
  for (std::size_t j = 0; j < row.size(); ++j) {
    EXPECT_DOUBLE_EQ(row[j], expected[j]);
  }
}

TEST_F(CachingClientTest, RowRangeChecked) {
  auto client = MakeClient(60.0);
  EXPECT_THROW(client.GetPDistances(-1), std::out_of_range);
  EXPECT_THROW(client.GetPDistances(99), std::out_of_range);
}

TEST_F(CachingClientTest, ManySelectionsOneFetch) {
  // The design goal: thousands of application decisions per portal query.
  auto client = MakeClient(300.0);
  for (int i = 0; i < 1000; ++i) {
    (void)client.GetPDistances(static_cast<core::Pid>(i % tracker_.num_pids()));
  }
  EXPECT_EQ(client.fetch_count(), 1u);
}

// --- stale-while-unreachable degradation ------------------------------------

class CachingClientStaleTest : public CachingClientTest {
 protected:
  CachingPortalClient MakeFlaky(double ttl, std::size_t stale_cap) {
    return CachingPortalClient(
        std::make_unique<FlakyTransport>(service_.handler(), &down_),
        [this] { return now_; }, ttl, stale_cap);
  }
  bool down_ = false;
};

TEST_F(CachingClientStaleTest, ExpiredMatrixKeepsServingUpToCap) {
  auto client = MakeFlaky(10.0, 3);
  const auto warm = client.GetExternalView();
  down_ = true;
  now_ = 11.0;
  for (std::size_t i = 1; i <= 3; ++i) {
    const auto& view = client.GetExternalView();  // refresh fails, stale serve
    EXPECT_EQ(view.size(), warm.size());
    EXPECT_TRUE(client.stale());
    EXPECT_EQ(client.stale_serve_count(), i);
  }
  EXPECT_EQ(client.stale_served_total(), 3u);
  EXPECT_EQ(client.fetch_count(), 1u);
  // The budget is spent: the failure now surfaces, and keeps surfacing.
  EXPECT_THROW(client.GetExternalView(), std::exception);
  EXPECT_EQ(client.TryGetExternalView(), nullptr);
  EXPECT_EQ(client.stale_served_total(), 3u);
}

TEST_F(CachingClientStaleTest, FirstSuccessfulRefreshClearsStaleness) {
  auto client = MakeFlaky(10.0, 5);
  client.GetExternalView();
  down_ = true;
  now_ = 11.0;
  client.GetExternalView();
  client.GetExternalView();
  ASSERT_EQ(client.stale_serve_count(), 2u);
  // Replicas return: the very next access refreshes (fetched_at was never
  // advanced while stale) and the streak resets; the cumulative total stays.
  down_ = false;
  client.GetExternalView();
  EXPECT_FALSE(client.stale());
  EXPECT_EQ(client.stale_serve_count(), 0u);
  EXPECT_EQ(client.stale_served_total(), 2u);
  EXPECT_EQ(client.validation_count(), 1u);  // version unmoved: NotModified
}

TEST_F(CachingClientStaleTest, ZeroCapDisablesStaleServing) {
  auto client = MakeFlaky(10.0, 0);
  client.GetExternalView();
  down_ = true;
  now_ = 11.0;
  EXPECT_THROW(client.GetExternalView(), std::exception);
  EXPECT_EQ(client.stale_served_total(), 0u);
}

TEST_F(CachingClientStaleTest, ColdFailureHasNothingToServeStale) {
  auto client = MakeFlaky(10.0, 100);
  down_ = true;
  EXPECT_THROW(client.GetExternalView(), std::exception);
  EXPECT_EQ(client.TryGetExternalView(), nullptr);
  down_ = false;
  EXPECT_NE(client.TryGetExternalView(), nullptr);
  EXPECT_EQ(client.fetch_count(), 1u);
}

TEST_F(CachingClientStaleTest, StaleServesRemainingTracksBudget) {
  auto client = MakeFlaky(10.0, 3);
  EXPECT_EQ(client.stale_serves_remaining(), 3u);  // full budget when healthy
  client.GetExternalView();
  EXPECT_EQ(client.stale_serves_remaining(), 3u);
  down_ = true;
  now_ = 11.0;
  client.GetExternalView();
  EXPECT_EQ(client.stale_serves_remaining(), 2u);
  client.GetExternalView();
  EXPECT_EQ(client.stale_serves_remaining(), 1u);
  client.GetExternalView();
  EXPECT_EQ(client.stale_serves_remaining(), 0u);
  // Remaining 0 means exactly this: the next failed refresh throws.
  EXPECT_THROW(client.GetExternalView(), std::exception);
  EXPECT_EQ(client.stale_serves_remaining(), 0u);
  // Recovery restores the full budget.
  down_ = false;
  client.GetExternalView();
  EXPECT_EQ(client.stale_serves_remaining(), 3u);
}

TEST_F(CachingClientStaleTest, EnableUdpValidationResetsStalenessBudget) {
  auto client = MakeFlaky(10.0, 2);
  client.GetExternalView();
  down_ = true;
  now_ = 11.0;
  client.GetExternalView();
  client.GetExternalView();
  ASSERT_TRUE(client.stale());
  ASSERT_EQ(client.stale_serves_remaining(), 0u);
  // Reconfiguring the validation path starts a fresh degraded-mode budget:
  // stale serves accumulated against the old configuration do not count.
  // (The new UDP path drops everything, so refreshes still fail and the
  // next access draws on the fresh budget.)
  testsupport::FaultProfile black_hole;
  black_hole.drop_rate = 1.0;
  client.EnableUdpValidation(std::make_unique<UdpValidationClient>(
      std::make_unique<testsupport::FaultInjectingTransport>(
          service_.validation_handler(), black_hole, /*seed=*/1),
      UdpValidationOptions{}, [] { return std::uint64_t{42}; }));
  EXPECT_FALSE(client.stale());
  EXPECT_EQ(client.stale_serves_remaining(), 2u);
  client.GetExternalView();  // stale serve against the new budget
  EXPECT_EQ(client.stale_serves_remaining(), 1u);
  EXPECT_EQ(client.stale_served_total(), 3u);  // cumulative total is untouched
}

TEST_F(CachingClientStaleTest, InvalidateDropsStalenessState) {
  auto client = MakeFlaky(10.0, 3);
  client.GetExternalView();
  down_ = true;
  now_ = 11.0;
  client.GetExternalView();
  ASSERT_TRUE(client.stale());
  client.Invalidate();
  down_ = false;
  client.GetExternalView();
  EXPECT_FALSE(client.stale());
  EXPECT_EQ(client.fetch_count(), 2u);  // cold fetch: the token was dropped
  EXPECT_EQ(client.validation_count(), 0u);
}

// The degraded-mode contract end to end: while the portal is down the
// caching layer serves the stale matrix (bounded) and the appTracker falls
// back to native selection; when the portal returns, guided selection
// resumes.
TEST_F(CachingClientStaleTest, StaleServiceNativeFallbackAndRecovery) {
  const double ttl = 10.0;
  const std::size_t stale_cap = 3;
  auto cache = MakeFlaky(ttl, stale_cap);

  core::PidMap map;
  map.add(*core::Prefix::Parse("10.0.0.0/16"), {0, 1});
  map.add(*core::Prefix::Parse("10.1.0.0/16"), {1, 1});
  core::AppTracker app(std::make_unique<core::NativeRandomSelector>(), std::move(map), 7);
  app.EnableNativeFallback([&cache] { return cache.TryGetExternalView() != nullptr; });

  core::AnnounceRequest req;
  req.content_id = "film";
  req.client_ip = "10.0.0.1";

  // Healthy: guided announce, view fetched once.
  app.Announce(req);
  EXPECT_FALSE(app.degraded());
  EXPECT_EQ(cache.fetch_count(), 1u);

  // Portal down inside the TTL: nothing even notices.
  down_ = true;
  app.Announce(req);
  EXPECT_FALSE(app.degraded());
  EXPECT_EQ(cache.hit_count(), 1u);  // served from the cached view

  // Past the TTL: refreshes fail, the stale matrix keeps serving and
  // announces fall back to native selection only once the budget is spent.
  now_ += ttl + 1.0;
  std::size_t native_announces = 0;
  for (int i = 0; i < 8; ++i) {
    app.Announce(req);
    if (app.degraded()) ++native_announces;
    now_ += 0.1;
  }
  EXPECT_EQ(cache.stale_served_total(), stale_cap);
  EXPECT_TRUE(app.degraded());
  EXPECT_EQ(app.fallback_transition_count(), 1u);
  EXPECT_EQ(native_announces, 8u - stale_cap);
  EXPECT_EQ(app.degraded_announce_count(), 8u - stale_cap);

  // The portal returns: the next probe refreshes and guided selection
  // resumes.
  down_ = false;
  app.Announce(req);
  EXPECT_FALSE(app.degraded());
  EXPECT_EQ(app.recovery_transition_count(), 1u);
  EXPECT_FALSE(cache.stale());
}

// --- Invalidate vs. the UDP fast path (regression) ---------------------------

TEST_F(CachingClientTest, InvalidateSkipsUdpAndGoesStraightToFullFetch) {
  // Regression: after Invalidate(), the next refresh must be a full TCP
  // fetch — never a UDP validation of the token that was just forgotten.
  auto client = MakeClient(10.0);
  UdpValidationOptions options;
  options.max_tries = 2;
  options.initial_timeout = std::chrono::milliseconds(5);
  auto next_nonce = std::make_shared<std::uint64_t>(0);
  auto udp = std::make_unique<UdpValidationClient>(
      std::make_unique<testsupport::FaultInjectingTransport>(
          service_.validation_handler(), testsupport::FaultProfile{}, /*seed=*/1),
      options, [next_nonce] { return ++*next_nonce; });
  const auto* udp_raw = udp.get();
  client.EnableUdpValidation(std::move(udp));

  client.GetExternalView();
  now_ = 11.0;  // TTL refresh: the UDP fast path answers NotModified
  client.GetExternalView();
  ASSERT_EQ(client.udp_validation_count(), 1u);
  const auto datagrams_before = udp_raw->sent_count();

  client.Invalidate();
  client.GetExternalView();
  // Full TCP fetch, zero datagrams: UDP was not consulted.
  EXPECT_EQ(client.fetch_count(), 2u);
  EXPECT_EQ(udp_raw->sent_count(), datagrams_before);
  EXPECT_EQ(client.udp_validation_count(), 1u);
  EXPECT_EQ(client.udp_fallback_count(), 0u);

  // The UDP path itself is still live: the next TTL refresh validates the
  // re-fetched token over UDP again.
  now_ = 22.0;
  client.GetExternalView();
  EXPECT_EQ(client.udp_validation_count(), 2u);
  EXPECT_GT(udp_raw->sent_count(), datagrams_before);
  EXPECT_EQ(client.fetch_count(), 2u);
}

}  // namespace
}  // namespace p4p::proto
