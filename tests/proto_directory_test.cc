#include "proto/directory.h"

#include <gtest/gtest.h>

namespace p4p::proto {
namespace {

TEST(Directory, ServiceNameFormat) {
  EXPECT_EQ(P4pServiceName("isp-b.net"), "_p4p._tcp.isp-b.net");
}

TEST(Directory, UnknownDomainIsNullopt) {
  PortalDirectory dir;
  std::mt19937_64 rng(1);
  EXPECT_FALSE(dir.Resolve("nowhere.net", rng).has_value());
  EXPECT_EQ(dir.domain_count(), 0u);
}

TEST(Directory, Validation) {
  PortalDirectory dir;
  EXPECT_THROW(dir.AddRecord("", {"h", 80, 0, 1}), std::invalid_argument);
  EXPECT_THROW(dir.AddRecord("d", {"", 80, 0, 1}), std::invalid_argument);
  EXPECT_THROW(dir.AddRecord("d", {"h", 0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(dir.AddRecord("d", {"h", 80, -1, 1}), std::invalid_argument);
  EXPECT_THROW(dir.AddRecord("d", {"h", 80, 0, -1}), std::invalid_argument);
}

TEST(Directory, SingleRecordResolves) {
  PortalDirectory dir;
  dir.AddRecord("isp.net", {"10.0.0.1", 6671, 0, 1});
  std::mt19937_64 rng(2);
  const auto r = dir.Resolve("isp.net", rng);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->target, "10.0.0.1");
  EXPECT_EQ(r->port, 6671);
}

TEST(Directory, LowestPriorityWins) {
  PortalDirectory dir;
  dir.AddRecord("isp.net", {"backup", 1, 10, 100});
  dir.AddRecord("isp.net", {"primary", 2, 0, 1});
  std::mt19937_64 rng(3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(dir.Resolve("isp.net", rng)->target, "primary");
  }
}

TEST(Directory, WeightsBiasSelectionWithinClass) {
  PortalDirectory dir;
  dir.AddRecord("isp.net", {"heavy", 1, 0, 9});
  dir.AddRecord("isp.net", {"light", 2, 0, 1});
  std::mt19937_64 rng(4);
  int heavy = 0;
  for (int i = 0; i < 1000; ++i) {
    if (dir.Resolve("isp.net", rng)->target == "heavy") ++heavy;
  }
  EXPECT_GT(heavy, 800);
  EXPECT_LT(heavy, 980);
}

TEST(Directory, ZeroWeightsFallBackToUniform) {
  PortalDirectory dir;
  dir.AddRecord("isp.net", {"a", 1, 0, 0});
  dir.AddRecord("isp.net", {"b", 2, 0, 0});
  std::mt19937_64 rng(5);
  int a = 0;
  for (int i = 0; i < 400; ++i) {
    if (dir.Resolve("isp.net", rng)->target == "a") ++a;
  }
  EXPECT_GT(a, 100);
  EXPECT_LT(a, 300);
}

TEST(Directory, RecordsPreserveOrder) {
  PortalDirectory dir;
  dir.AddRecord("isp.net", {"one", 1, 0, 1});
  dir.AddRecord("isp.net", {"two", 2, 1, 1});
  const auto records = dir.Records("isp.net");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].target, "one");
  EXPECT_EQ(records[1].target, "two");
  EXPECT_TRUE(dir.Records("other").empty());
  EXPECT_EQ(dir.domain_count(), 1u);
}

TEST(Directory, ZeroWeightRecordStaysSelectableNextToWeighted) {
  // RFC 2782 regression: a weight-0 record in a class with weighted peers
  // must keep a small-but-nonzero selection probability, not be starved.
  PortalDirectory dir;
  dir.AddRecord("isp.net", {"zero", 1, 0, 0});
  dir.AddRecord("isp.net", {"heavy", 2, 0, 9});
  std::mt19937_64 rng(7);
  int zero = 0;
  for (int i = 0; i < 2000; ++i) {
    if (dir.Resolve("isp.net", rng)->target == "zero") ++zero;
  }
  EXPECT_GT(zero, 0);     // selectable...
  EXPECT_LT(zero, 1000);  // ...but a clear minority
}

TEST(Directory, RemoveRecordDropsMatchesAndEmptyDomains) {
  PortalDirectory dir;
  dir.AddRecord("isp.net", {"a", 1, 0, 1});
  dir.AddRecord("isp.net", {"a", 2, 0, 1});  // same target, other port
  dir.AddRecord("isp.net", {"b", 3, 10, 1});
  EXPECT_EQ(dir.RemoveRecord("isp.net", "a", 1), 1u);
  EXPECT_EQ(dir.RemoveRecord("isp.net", "a", 1), 0u);  // already gone
  EXPECT_EQ(dir.RemoveRecord("nowhere.net", "a", 1), 0u);
  ASSERT_EQ(dir.Records("isp.net").size(), 2u);
  std::mt19937_64 rng(10);
  EXPECT_EQ(dir.Resolve("isp.net", rng)->port, 2);
  // Removing the last records erases the domain entirely.
  EXPECT_EQ(dir.RemoveRecord("isp.net", "a", 2), 1u);
  EXPECT_EQ(dir.RemoveRecord("isp.net", "b", 3), 1u);
  EXPECT_EQ(dir.domain_count(), 0u);
  EXPECT_FALSE(dir.Resolve("isp.net", rng).has_value());
}

TEST(Directory, DomainsAreIndependent) {
  PortalDirectory dir;
  dir.AddRecord("a.net", {"portal-a", 1, 0, 1});
  dir.AddRecord("b.net", {"portal-b", 2, 0, 1});
  std::mt19937_64 rng(6);
  EXPECT_EQ(dir.Resolve("a.net", rng)->target, "portal-a");
  EXPECT_EQ(dir.Resolve("b.net", rng)->target, "portal-b");
}

}  // namespace
}  // namespace p4p::proto
