#include "proto/service.h"

#include <gtest/gtest.h>

#include "net/topology.h"

namespace p4p::proto {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : graph_(net::MakeAbilene()), routing_(graph_), tracker_(graph_, routing_) {
    policy_.SetThresholds({0.7, 0.9});
    policy_.AddTimeOfDayPolicy({2, 18, 23, 0.5});
    capabilities_.Add({core::CapabilityType::kCache, 3, 1e9, "metro cache"});
    pid_map_.add(*core::Prefix::Parse("10.0.0.0/8"), {4, 100});
  }

  PortalClient InProcessClient(const ITrackerService& service) {
    return PortalClient(std::make_unique<InProcessTransport>(service.handler()));
  }

  net::Graph graph_;
  net::RoutingTable routing_;
  core::ITracker tracker_;
  core::PolicyRegistry policy_;
  core::CapabilityRegistry capabilities_;
  core::PidMap pid_map_;
};

TEST_F(ServiceTest, RejectsNullTracker) {
  EXPECT_THROW(ITrackerService(nullptr), std::invalid_argument);
}

TEST_F(ServiceTest, GetPDistancesMatchesTracker) {
  ITrackerService service(&tracker_);
  auto client = InProcessClient(service);
  const auto row = client.GetPDistances(net::kChicago);
  const auto expected = tracker_.GetPDistances(net::kChicago);
  ASSERT_EQ(row.size(), expected.size());
  for (std::size_t j = 0; j < row.size(); ++j) {
    EXPECT_DOUBLE_EQ(row[j], expected[j]);
  }
}

TEST_F(ServiceTest, GetPDistancesUnknownPidIsError) {
  ITrackerService service(&tracker_);
  auto client = InProcessClient(service);
  EXPECT_THROW(client.GetPDistances(-1), std::runtime_error);
  EXPECT_THROW(client.GetPDistances(999), std::runtime_error);
}

TEST_F(ServiceTest, ExternalViewMatchesTracker) {
  ITrackerService service(&tracker_);
  auto client = InProcessClient(service);
  const auto view = client.GetExternalView();
  ASSERT_EQ(view.size(), tracker_.num_pids());
  for (core::Pid i = 0; i < view.size(); ++i) {
    for (core::Pid j = 0; j < view.size(); ++j) {
      EXPECT_DOUBLE_EQ(view.at(i, j), tracker_.pdistance(i, j));
    }
  }
}

TEST_F(ServiceTest, UnofferedInterfacesReturnErrors) {
  ITrackerService service(&tracker_);  // only p4p-distance offered
  auto client = InProcessClient(service);
  EXPECT_THROW(client.GetPolicy(), std::runtime_error);
  EXPECT_THROW(client.GetCapabilities(core::CapabilityType::kCache),
               std::runtime_error);
  EXPECT_THROW(client.GetPidMapping("10.1.1.1"), std::runtime_error);
}

TEST_F(ServiceTest, PolicyInterface) {
  ITrackerService service(&tracker_, &policy_);
  auto client = InProcessClient(service);
  const auto policy = client.GetPolicy();
  EXPECT_DOUBLE_EQ(policy.thresholds.near_congestion_utilization, 0.7);
  ASSERT_EQ(policy.time_of_day.size(), 1u);
  EXPECT_EQ(policy.time_of_day[0].link, 2);
}

TEST_F(ServiceTest, CapabilityInterface) {
  ITrackerService service(&tracker_, nullptr, &capabilities_);
  auto client = InProcessClient(service);
  const auto caps = client.GetCapabilities(core::CapabilityType::kCache);
  ASSERT_EQ(caps.size(), 1u);
  EXPECT_EQ(caps[0].pid, 3);
  EXPECT_TRUE(client.GetCapabilities(core::CapabilityType::kOnDemandServer).empty());
}

TEST_F(ServiceTest, PidMapInterface) {
  ITrackerService service(&tracker_, nullptr, nullptr, &pid_map_);
  auto client = InProcessClient(service);
  const auto mapping = client.GetPidMapping("10.5.5.5");
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(mapping->pid, 4);
  EXPECT_EQ(mapping->as_number, 100);
  EXPECT_FALSE(client.GetPidMapping("11.1.1.1").has_value());
}

TEST_F(ServiceTest, MalformedRequestGetsError) {
  ITrackerService service(&tracker_);
  const std::vector<std::uint8_t> garbage = {0xFF, 0xFF, 0xFF};
  const auto resp = service.Handle(garbage);
  const auto decoded = Decode(resp);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NE(std::get_if<ErrorMsg>(&*decoded), nullptr);
}

TEST_F(ServiceTest, RequestWithResponseTypeIsRejected) {
  ITrackerService service(&tracker_);
  const auto resp = service.Handle(Encode(GetPDistancesResp{}));
  const auto decoded = Decode(resp);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NE(std::get_if<ErrorMsg>(&*decoded), nullptr);
}

TEST_F(ServiceTest, FullStackOverTcp) {
  ITrackerService service(&tracker_, &policy_, &capabilities_, &pid_map_);
  TcpServer server(0, service.handler());
  PortalClient client(std::make_unique<TcpClient>(server.port()));

  const auto row = client.GetPDistances(net::kNewYork);
  EXPECT_EQ(row.size(), graph_.node_count());
  EXPECT_DOUBLE_EQ(client.GetPolicy().thresholds.heavy_usage_utilization, 0.9);
  EXPECT_EQ(client.GetCapabilities(core::CapabilityType::kCache).size(), 1u);
  EXPECT_TRUE(client.GetPidMapping("10.0.0.1").has_value());
}

TEST_F(ServiceTest, VersionReflectsTrackerUpdates) {
  ITrackerService service(&tracker_);
  const auto before = service.Handle(Encode(GetPDistancesReq{0}));
  std::vector<double> traffic(graph_.link_count(), 1e9);
  tracker_.Update(traffic);
  const auto after = service.Handle(Encode(GetPDistancesReq{0}));
  const auto v1 = std::get<GetPDistancesResp>(*Decode(before)).version;
  const auto v2 = std::get<GetPDistancesResp>(*Decode(after)).version;
  EXPECT_GT(v2, v1);
}

TEST(PortalClient, RejectsNullTransport) {
  EXPECT_THROW(PortalClient(nullptr), std::invalid_argument);
}

TEST_F(ServiceTest, ConditionalViewAnsweredNotModified) {
  ITrackerService service(&tracker_);
  const auto version = tracker_.version();
  const auto resp = service.Handle(Encode(GetExternalViewReq{version}));
  const auto decoded = Decode(resp);
  ASSERT_TRUE(decoded.has_value());
  const auto* nm = std::get_if<NotModifiedResp>(&*decoded);
  ASSERT_NE(nm, nullptr);
  EXPECT_EQ(nm->version, version);
}

TEST_F(ServiceTest, ConditionalRowAnsweredNotModified) {
  ITrackerService service(&tracker_);
  const auto version = tracker_.version();
  const auto resp = service.Handle(Encode(GetPDistancesReq{2, version}));
  const auto decoded = Decode(resp);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NE(std::get_if<NotModifiedResp>(&*decoded), nullptr);
}

TEST_F(ServiceTest, StaleTokenGetsFullView) {
  ITrackerService service(&tracker_);
  const auto stale = tracker_.version();
  std::vector<double> traffic(graph_.link_count(), 1e9);
  tracker_.Update(traffic);
  const auto decoded = Decode(service.Handle(Encode(GetExternalViewReq{stale})));
  ASSERT_TRUE(decoded.has_value());
  const auto* view = std::get_if<GetExternalViewResp>(&*decoded);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->version, tracker_.version());
  EXPECT_EQ(view->distances.size(),
            static_cast<std::size_t>(tracker_.num_pids()) * tracker_.num_pids());
}

TEST_F(ServiceTest, CachedBytesMatchAFreshEncode) {
  // Every cacheable answer, conditional ones included, must be
  // byte-identical to encoding the tracker's snapshot afresh.
  ITrackerService service(&tracker_, &policy_);
  std::vector<double> traffic(graph_.link_count(), 5e8);
  tracker_.Update(traffic);
  const auto snap = tracker_.snapshot();
  const auto version = snap->version;
  const auto not_modified = Encode(NotModifiedResp{version});

  const auto& values = snap->view.values();
  EXPECT_EQ(service.Handle(Encode(GetExternalViewReq{})),
            Encode(GetExternalViewResp{snap->view.size(), version,
                                       {values.begin(), values.end()}}));
  EXPECT_EQ(service.Handle(Encode(GetExternalViewReq{version})), not_modified);
  EXPECT_EQ(service.Handle(Encode(GetPolicyReq{})),
            Encode(GetPolicyResp{policy_.thresholds(), policy_.time_of_day_policies()}));
  for (core::Pid i = 0; i < tracker_.num_pids(); ++i) {
    const auto row = snap->view.row(i);
    EXPECT_EQ(service.Handle(Encode(GetPDistancesReq{i})),
              Encode(GetPDistancesResp{i, version, {row.begin(), row.end()}}));
    EXPECT_EQ(service.Handle(Encode(GetPDistancesReq{i, version})), not_modified);
  }
}

TEST_F(ServiceTest, SharedHandlerReturnsSameBufferForRepeatRequests) {
  ITrackerService service(&tracker_);
  const auto handler = service.shared_handler();
  const auto req = Encode(GetExternalViewReq{});
  const auto a = handler(req);
  const auto b = handler(req);
  ASSERT_NE(a, nullptr);
  // Same snapshot version -> the very same pre-encoded buffer, no re-encode.
  EXPECT_EQ(a->data(), b->data());
  std::vector<double> traffic(graph_.link_count(), 1e9);
  tracker_.Update(traffic);
  const auto c = handler(req);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a->data(), c->data());
}

TEST_F(ServiceTest, ClientConditionalFetchHelper) {
  ITrackerService service(&tracker_);
  auto client = InProcessClient(service);
  const auto first = client.GetExternalViewIfModified(0);
  ASSERT_TRUE(first.has_value());
  const auto version = first->second;
  EXPECT_FALSE(client.GetExternalViewIfModified(version).has_value());
  std::vector<double> traffic(graph_.link_count(), 1e9);
  tracker_.Update(traffic);
  const auto refreshed = client.GetExternalViewIfModified(version);
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_GT(refreshed->second, version);
}

TEST_F(ServiceTest, PolicyCacheTracksRegistryVersion) {
  ITrackerService service(&tracker_, &policy_);
  auto client = InProcessClient(service);
  EXPECT_DOUBLE_EQ(client.GetPolicy().thresholds.near_congestion_utilization,
                   0.7);
  policy_.SetThresholds({0.5, 0.8});
  EXPECT_DOUBLE_EQ(client.GetPolicy().thresholds.near_congestion_utilization,
                   0.5);
}

}  // namespace
}  // namespace p4p::proto
