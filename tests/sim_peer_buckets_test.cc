#include "sim/peer_buckets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

namespace p4p::sim {
namespace {

PeerInfo MakePeer(PeerId id, net::NodeId pid, std::int32_t as_number) {
  PeerInfo p;
  p.id = id;
  p.node = pid;
  p.as_number = as_number;
  p.up_bps = 1e6;
  p.down_bps = 1e6;
  return p;
}

TEST(PeerBuckets, InsertGroupsByAsAndPid) {
  PeerBuckets store;
  store.Insert(MakePeer(0, 3, 1));
  store.Insert(MakePeer(1, 3, 1));
  store.Insert(MakePeer(2, 4, 1));
  store.Insert(MakePeer(3, 3, 2));  // same PID number, different AS

  EXPECT_EQ(store.size(), 4u);
  ASSERT_EQ(store.buckets().size(), 3u);

  const auto b0 = store.BucketOf(1, 3);
  const auto b1 = store.BucketOf(1, 4);
  const auto b2 = store.BucketOf(2, 3);
  ASSERT_NE(b0, PeerBuckets::npos);
  ASSERT_NE(b1, PeerBuckets::npos);
  ASSERT_NE(b2, PeerBuckets::npos);
  EXPECT_EQ(store.buckets()[b0].peers.size(), 2u);
  EXPECT_EQ(store.buckets()[b1].peers.size(), 1u);
  EXPECT_EQ(store.buckets()[b2].peers.size(), 1u);
  EXPECT_EQ(store.BucketOf(1, 99), PeerBuckets::npos);

  const auto as1 = store.AsGroup(1);
  EXPECT_EQ(as1.size(), 2u);
  EXPECT_EQ(store.AsGroup(2).size(), 1u);
  EXPECT_TRUE(store.AsGroup(99).empty());
}

TEST(PeerBuckets, DuplicateIdThrows) {
  PeerBuckets store;
  store.Insert(MakePeer(7, 0, 1));
  EXPECT_THROW(store.Insert(MakePeer(7, 1, 1)), std::invalid_argument);
  EXPECT_EQ(store.size(), 1u);
}

TEST(PeerBuckets, EraseSwapAndPopFixesDisplacedSlot) {
  PeerBuckets store;
  for (PeerId id = 0; id < 4; ++id) store.Insert(MakePeer(id, 0, 1));
  // Erase the first slot: the last peer must be swapped in and its slot
  // index updated so a follow-up erase still works in O(1).
  ASSERT_TRUE(store.Erase(0));
  const auto slot = store.SlotOf(3);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->index, 0u);
  ASSERT_TRUE(store.Erase(3));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains(1));
  EXPECT_TRUE(store.Contains(2));
  EXPECT_FALSE(store.Erase(0));  // double-erase is a no-op
}

TEST(PeerBuckets, EmptiedBucketPersistsAndAcceptsRejoins) {
  PeerBuckets store;
  store.Insert(MakePeer(0, 5, 1));
  const auto b = store.BucketOf(1, 5);
  ASSERT_TRUE(store.Erase(0));
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.BucketOf(1, 5), b);  // bucket survives, just empty
  store.Insert(MakePeer(1, 5, 1));
  EXPECT_EQ(store.SlotOf(1)->bucket, b);
}

TEST(PeerBuckets, BucketsHoldEveryMemberOnce) {
  PeerBuckets store;
  for (PeerId id = 0; id < 10; ++id) store.Insert(MakePeer(id, id % 3, 1 + id % 2));
  std::size_t members = 0;
  std::set<PeerId> ids;
  for (const auto& bucket : store.buckets()) {
    members += bucket.peers.size();
    for (const auto& p : bucket.peers) ids.insert(p.id);
  }
  EXPECT_EQ(members, 10u);
  EXPECT_EQ(ids.size(), 10u);
}

// --- randomized ops vs a flat-vector oracle ---------------------------------
//
// Seeded and replayable: any failure reproduces bit-identically from the
// seed printed in the test name.

class PeerBucketsOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeerBucketsOracleTest, MatchesFlatVectorUnderRandomChurn) {
  std::mt19937_64 rng(GetParam());
  PeerBuckets store;
  std::vector<PeerInfo> oracle;  // flat membership oracle
  PeerId next_id = 0;

  std::uniform_int_distribution<int> pid_dist(0, 7);
  std::uniform_int_distribution<int> as_dist(1, 3);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  for (int op = 0; op < 4000; ++op) {
    const bool do_insert = oracle.empty() || coin(rng) < 0.6;
    if (do_insert) {
      const auto peer = MakePeer(next_id++, pid_dist(rng), as_dist(rng));
      store.Insert(peer);
      oracle.push_back(peer);
    } else {
      std::uniform_int_distribution<std::size_t> which(0, oracle.size() - 1);
      const std::size_t i = which(rng);
      const PeerId victim = oracle[i].id;
      ASSERT_TRUE(store.Erase(victim));
      oracle[i] = oracle.back();
      oracle.pop_back();
      // Ids are never reused by the announce plane; erased ids stay gone.
      EXPECT_FALSE(store.Contains(victim));
      EXPECT_FALSE(store.Erase(victim));
    }

    ASSERT_EQ(store.size(), oracle.size());
  }

  // Final deep check: same membership, and every peer sits in the bucket
  // matching its (AS, PID) at the slot its index claims.
  std::map<PeerId, PeerInfo> expected;
  for (const auto& p : oracle) expected[p.id] = p;

  std::size_t seen = 0;
  for (std::size_t b = 0; b < store.buckets().size(); ++b) {
    const auto& bucket = store.buckets()[b];
    for (std::size_t i = 0; i < bucket.peers.size(); ++i) {
      const auto& p = bucket.peers[i];
      ++seen;
      ASSERT_TRUE(expected.count(p.id)) << "ghost peer " << p.id;
      EXPECT_EQ(p.node, bucket.pid);
      EXPECT_EQ(p.as_number, bucket.as_number);
      EXPECT_EQ(expected[p.id].node, p.node);
      EXPECT_EQ(expected[p.id].as_number, p.as_number);
      const auto slot = store.SlotOf(p.id);
      ASSERT_TRUE(slot.has_value());
      EXPECT_EQ(slot->bucket, b);
      EXPECT_EQ(slot->index, i);
    }
  }
  EXPECT_EQ(seen, expected.size());

  // AS groups partition the buckets exactly.
  std::set<std::uint32_t> grouped;
  for (std::int32_t as = 1; as <= 3; ++as) {
    for (std::uint32_t b : store.AsGroup(as)) {
      EXPECT_EQ(store.buckets()[b].as_number, as);
      EXPECT_TRUE(grouped.insert(b).second) << "bucket listed twice";
    }
  }
  EXPECT_EQ(grouped.size(), store.buckets().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeerBucketsOracleTest,
                         ::testing::Values(1u, 42u, 20260808u, 0xdeadbeefu));

}  // namespace
}  // namespace p4p::sim
