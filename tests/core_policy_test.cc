#include "core/policy.h"

#include <gtest/gtest.h>

#include "core/capability.h"

namespace p4p::core {
namespace {

TEST(Policy, DefaultCapIsOne) {
  PolicyRegistry reg;
  EXPECT_DOUBLE_EQ(reg.UtilizationCap(0, 12), 1.0);
}

TEST(Policy, WindowedCapApplies) {
  PolicyRegistry reg;
  reg.AddTimeOfDayPolicy({/*link=*/3, /*start=*/18, /*end=*/23, /*cap=*/0.5});
  EXPECT_DOUBLE_EQ(reg.UtilizationCap(3, 20), 0.5);
  EXPECT_DOUBLE_EQ(reg.UtilizationCap(3, 12), 1.0);
  EXPECT_DOUBLE_EQ(reg.UtilizationCap(4, 20), 1.0);  // different link
}

TEST(Policy, WindowWrapsMidnight) {
  PolicyRegistry reg;
  reg.AddTimeOfDayPolicy({1, 22, 6, 0.3});
  EXPECT_DOUBLE_EQ(reg.UtilizationCap(1, 23), 0.3);
  EXPECT_DOUBLE_EQ(reg.UtilizationCap(1, 3), 0.3);
  EXPECT_DOUBLE_EQ(reg.UtilizationCap(1, 12), 1.0);
}

TEST(Policy, TightestCapWins) {
  PolicyRegistry reg;
  reg.AddTimeOfDayPolicy({1, 0, 24, 0.8});
  reg.AddTimeOfDayPolicy({1, 18, 22, 0.4});
  EXPECT_DOUBLE_EQ(reg.UtilizationCap(1, 19), 0.4);
  EXPECT_DOUBLE_EQ(reg.UtilizationCap(1, 10), 0.8);
}

TEST(Policy, RejectsBadInput) {
  PolicyRegistry reg;
  EXPECT_THROW(reg.AddTimeOfDayPolicy({1, -1, 10, 0.5}), std::invalid_argument);
  EXPECT_THROW(reg.AddTimeOfDayPolicy({1, 0, 25, 0.5}), std::invalid_argument);
  EXPECT_THROW(reg.AddTimeOfDayPolicy({1, 0, 10, 1.5}), std::invalid_argument);
  EXPECT_THROW(reg.UtilizationCap(1, 24), std::invalid_argument);
}

TEST(Policy, ThresholdsRoundTrip) {
  PolicyRegistry reg;
  reg.SetThresholds({0.6, 0.9});
  EXPECT_DOUBLE_EQ(reg.thresholds().near_congestion_utilization, 0.6);
  EXPECT_DOUBLE_EQ(reg.thresholds().heavy_usage_utilization, 0.9);
}

TEST(Policy, InWindowBoundaries) {
  TimeOfDayPolicy p{0, 8, 17, 0.5};
  EXPECT_TRUE(PolicyRegistry::InWindow(p, 8));
  EXPECT_TRUE(PolicyRegistry::InWindow(p, 16));
  EXPECT_FALSE(PolicyRegistry::InWindow(p, 17));
  EXPECT_FALSE(PolicyRegistry::InWindow(p, 7));
}

TEST(Capability, QueryFiltersByType) {
  CapabilityRegistry reg;
  reg.Add({CapabilityType::kCache, 2, 1e9, "metro cache"});
  reg.Add({CapabilityType::kOnDemandServer, 3, 2e9, "origin helper"});
  reg.Add({CapabilityType::kCache, 4, 5e8, "edge cache"});
  EXPECT_EQ(reg.size(), 3u);
  const auto caches = reg.Query(CapabilityType::kCache);
  ASSERT_EQ(caches.size(), 2u);
  EXPECT_EQ(caches[0].pid, 2);
  EXPECT_EQ(caches[1].pid, 4);
  EXPECT_EQ(reg.Query(CapabilityType::kServiceClass).size(), 0u);
}

TEST(Capability, ContentDenyListHidesEverything) {
  CapabilityRegistry reg;
  reg.Add({CapabilityType::kCache, 2, 1e9, "cache"});
  reg.DenyContent("blocked-content");
  EXPECT_TRUE(reg.Query(CapabilityType::kCache, "blocked-content").empty());
  EXPECT_EQ(reg.Query(CapabilityType::kCache, "fine-content").size(), 1u);
  EXPECT_EQ(reg.Query(CapabilityType::kCache).size(), 1u);
}

TEST(Capability, RejectsBadCapability) {
  CapabilityRegistry reg;
  EXPECT_THROW(reg.Add({CapabilityType::kCache, kInvalidPid, 1e9, ""}),
               std::invalid_argument);
  EXPECT_THROW(reg.Add({CapabilityType::kCache, 1, -1.0, ""}), std::invalid_argument);
}

}  // namespace
}  // namespace p4p::core
