#include "core/apptracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

namespace p4p::core {
namespace {

PidMap TestPidMap() {
  PidMap map;
  map.add(*Prefix::Parse("10.0.0.0/16"), {0, 1});
  map.add(*Prefix::Parse("10.1.0.0/16"), {1, 1});
  map.add(*Prefix::Parse("10.2.0.0/16"), {2, 1});
  map.add(*Prefix::Parse("20.0.0.0/8"), {5, 2});
  return map;
}

AppTracker MakeTracker() {
  return AppTracker(std::make_unique<NativeRandomSelector>(), TestPidMap(), 7);
}

TEST(AppTracker, RejectsNullSelector) {
  EXPECT_THROW(AppTracker(nullptr, TestPidMap()), std::invalid_argument);
}

TEST(AppTracker, AnnounceResolvesPidAndAs) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "film";
  req.client_ip = "10.1.2.3";
  const auto resp = tracker.Announce(req);
  EXPECT_EQ(resp.pid, 1);
  EXPECT_EQ(resp.as_number, 1);
  EXPECT_EQ(resp.assigned_id, 0);
  EXPECT_TRUE(resp.peers.empty());  // first peer: no one else yet
  EXPECT_EQ(tracker.swarm_size("film"), 1u);
}

TEST(AppTracker, AnnounceRejectsUnmappedIp) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "film";
  req.client_ip = "99.99.99.99";
  EXPECT_THROW(tracker.Announce(req), std::invalid_argument);
  req.client_ip = "not-an-ip";
  EXPECT_THROW(tracker.Announce(req), std::invalid_argument);
}

TEST(AppTracker, SecondPeerSeesFirst) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "film";
  req.client_ip = "10.0.0.1";
  const auto first = tracker.Announce(req);
  req.client_ip = "10.1.0.1";
  const auto second = tracker.Announce(req);
  ASSERT_EQ(second.peers.size(), 1u);
  EXPECT_EQ(second.peers[0], first.assigned_id);
}

TEST(AppTracker, SwarmsAreIsolated) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "a";
  req.client_ip = "10.0.0.1";
  tracker.Announce(req);
  req.content_id = "b";
  req.client_ip = "10.1.0.1";
  const auto resp = tracker.Announce(req);
  EXPECT_TRUE(resp.peers.empty());
  EXPECT_EQ(tracker.swarm_count(), 2u);
  EXPECT_EQ(tracker.swarm_size("a"), 1u);
  EXPECT_EQ(tracker.swarm_size("b"), 1u);
  EXPECT_EQ(tracker.swarm_size("missing"), 0u);
}

TEST(AppTracker, WantLimitsPeerCount) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "film";
  for (int i = 0; i < 30; ++i) {
    req.client_ip = "10." + std::to_string(i % 3) + ".0." + std::to_string(i + 1);
    tracker.Announce(req);
  }
  req.want = 5;
  req.client_ip = "10.2.0.99";
  const auto resp = tracker.Announce(req);
  EXPECT_EQ(resp.peers.size(), 5u);
  std::set<sim::PeerId> unique(resp.peers.begin(), resp.peers.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(AppTracker, DepartRemovesPeer) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "film";
  req.client_ip = "10.0.0.1";
  const auto first = tracker.Announce(req);
  req.client_ip = "10.1.0.1";
  tracker.Announce(req);
  EXPECT_EQ(tracker.swarm_size("film"), 2u);
  tracker.Depart("film", first.assigned_id);
  EXPECT_EQ(tracker.swarm_size("film"), 1u);
  // Departing again (or from a missing swarm) is a no-op.
  tracker.Depart("film", first.assigned_id);
  tracker.Depart("nope", 0);
  EXPECT_EQ(tracker.swarm_size("film"), 1u);
}

TEST(AppTracker, EmptySwarmIsDropped) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "film";
  req.client_ip = "10.0.0.1";
  const auto resp = tracker.Announce(req);
  tracker.Depart("film", resp.assigned_id);
  EXPECT_EQ(tracker.swarm_count(), 0u);
}

TEST(AppTracker, AssignsMonotonicIds) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "x";
  sim::PeerId prev = -1;
  for (int i = 0; i < 10; ++i) {
    req.client_ip = "10.0.0." + std::to_string(i + 1);
    const auto resp = tracker.Announce(req);
    EXPECT_GT(resp.assigned_id, prev);
    prev = resp.assigned_id;
  }
}

// --- sharded swarm state + bucketed membership -------------------------------

TEST(AppTracker, ShardCountIsConfigurableAndClamped) {
  AppTracker def(std::make_unique<NativeRandomSelector>(), TestPidMap());
  EXPECT_EQ(def.shard_count(), 16u);
  AppTracker wide(std::make_unique<NativeRandomSelector>(), TestPidMap(), 1, 64);
  EXPECT_EQ(wide.shard_count(), 64u);
  AppTracker clamped(std::make_unique<NativeRandomSelector>(), TestPidMap(), 1, 0);
  EXPECT_EQ(clamped.shard_count(), 1u);
}

TEST(AppTracker, AccountingHoldsAcrossManySwarmsAndShards) {
  // More swarms than shards: per-swarm accounting must be exact even when
  // swarms share a shard.
  AppTracker tracker(std::make_unique<NativeRandomSelector>(), TestPidMap(), 7, 4);
  AnnounceRequest req;
  for (int s = 0; s < 40; ++s) {
    req.content_id = "swarm-" + std::to_string(s);
    for (int i = 0; i <= s % 5; ++i) {
      req.client_ip = "10." + std::to_string(i % 3) + ".0." + std::to_string(i + 1);
      tracker.Announce(req);
    }
  }
  EXPECT_EQ(tracker.swarm_count(), 40u);
  for (int s = 0; s < 40; ++s) {
    EXPECT_EQ(tracker.swarm_size("swarm-" + std::to_string(s)),
              static_cast<std::size_t>(s % 5 + 1));
  }
}

TEST(AppTracker, DepartReportsMembershipAndKeepsEraseSemantics) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "film";
  std::vector<sim::PeerId> ids;
  for (int i = 0; i < 20; ++i) {
    req.client_ip = "10." + std::to_string(i % 3) + ".0." + std::to_string(i + 1);
    ids.push_back(tracker.Announce(req).assigned_id);
  }
  // Depart in a scrambled order; every first depart hits, every second
  // misses, sizes stay exact throughout.
  std::mt19937_64 rng(99);
  std::shuffle(ids.begin(), ids.end(), rng);
  std::size_t remaining = ids.size();
  for (sim::PeerId id : ids) {
    EXPECT_TRUE(tracker.Depart("film", id));
    EXPECT_FALSE(tracker.Depart("film", id));
    EXPECT_EQ(tracker.swarm_size("film"), --remaining);
  }
  EXPECT_EQ(tracker.swarm_count(), 0u);  // empty swarm dropped
}

TEST(AppTracker, DepartedIdsAreNeverReused) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "film";
  req.client_ip = "10.0.0.1";
  const auto first = tracker.Announce(req);
  EXPECT_TRUE(tracker.Depart("film", first.assigned_id));
  const auto second = tracker.Announce(req);
  // Fresh id, and the departed id is not resurrected by the rejoin.
  EXPECT_GT(second.assigned_id, first.assigned_id);
  EXPECT_FALSE(tracker.Depart("film", first.assigned_id));
  EXPECT_EQ(tracker.swarm_size("film"), 1u);
}

TEST(AppTracker, RejoinAfterSwarmDropStartsCleanSwarm) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "film";
  req.client_ip = "10.0.0.1";
  const auto a = tracker.Announce(req);
  tracker.Depart("film", a.assigned_id);
  EXPECT_EQ(tracker.swarm_count(), 0u);
  const auto b = tracker.Announce(req);
  EXPECT_TRUE(b.peers.empty());  // no ghost of the departed peer
  EXPECT_EQ(tracker.swarm_count(), 1u);
}

// --- degraded mode: native-selection fallback --------------------------------

/// Counts how often the *configured* (guided) selector actually serves an
/// announce — degraded announces bypass it for the native fallback.
class CountingSelector final : public sim::PeerSelector {
 public:
  explicit CountingSelector(std::size_t* calls) : calls_(calls) {}
  std::vector<sim::PeerId> SelectFromBuckets(const sim::PeerInfo& client,
                                             const sim::PeerBuckets& swarm, int m,
                                             std::mt19937_64& rng) override {
    ++*calls_;
    return native_.SelectFromBuckets(client, swarm, m, rng);
  }
  std::string name() const override { return "Counting"; }

 private:
  std::size_t* calls_;
  NativeRandomSelector native_;
};

TEST(AppTracker, NativeFallbackRejectsNullProbe) {
  auto tracker = MakeTracker();
  EXPECT_THROW(tracker.EnableNativeFallback(nullptr), std::invalid_argument);
}

TEST(AppTracker, WithoutFallbackArmedNeverDegrades) {
  auto tracker = MakeTracker();
  AnnounceRequest req;
  req.content_id = "film";
  req.client_ip = "10.0.0.1";
  tracker.Announce(req);
  EXPECT_FALSE(tracker.degraded());
  EXPECT_EQ(tracker.degraded_announce_count(), 0u);
}

TEST(AppTracker, FallsBackToNativeWhileViewUnusableAndRecovers) {
  std::size_t guided_calls = 0;
  bool view_usable = true;
  AppTracker tracker(std::make_unique<CountingSelector>(&guided_calls),
                     TestPidMap(), 7);
  tracker.EnableNativeFallback([&view_usable] { return view_usable; });

  AnnounceRequest req;
  req.content_id = "film";
  for (int i = 0; i < 3; ++i) {
    req.client_ip = "10.0.0." + std::to_string(i + 1);
    tracker.Announce(req);
  }
  EXPECT_FALSE(tracker.degraded());
  EXPECT_EQ(guided_calls, 3u);

  // Portal stack loses its view: announces keep succeeding, served native.
  view_usable = false;
  for (int i = 0; i < 4; ++i) {
    req.client_ip = "10.1.0." + std::to_string(i + 1);
    const auto resp = tracker.Announce(req);
    EXPECT_TRUE(tracker.degraded());
    EXPECT_GE(resp.assigned_id, 0);  // still a full announce
  }
  EXPECT_EQ(guided_calls, 3u);  // guided selector untouched while degraded
  EXPECT_EQ(tracker.degraded_announce_count(), 4u);
  EXPECT_EQ(tracker.fallback_transition_count(), 1u);
  EXPECT_EQ(tracker.recovery_transition_count(), 0u);

  // View returns: guided selection resumes on the very next announce.
  view_usable = true;
  req.client_ip = "10.2.0.1";
  tracker.Announce(req);
  EXPECT_FALSE(tracker.degraded());
  EXPECT_EQ(guided_calls, 4u);
  EXPECT_EQ(tracker.recovery_transition_count(), 1u);
  EXPECT_EQ(tracker.swarm_size("film"), 8u);  // no announce was lost
}

TEST(AppTracker, RepeatedFlapsCountEachTransitionOnce) {
  std::size_t guided_calls = 0;
  bool view_usable = true;
  AppTracker tracker(std::make_unique<CountingSelector>(&guided_calls),
                     TestPidMap(), 7);
  tracker.EnableNativeFallback([&view_usable] { return view_usable; });
  AnnounceRequest req;
  req.content_id = "film";
  req.client_ip = "10.0.0.1";
  for (int flap = 0; flap < 3; ++flap) {
    view_usable = false;
    tracker.Announce(req);
    tracker.Announce(req);  // staying degraded is not a new transition
    view_usable = true;
    tracker.Announce(req);
  }
  EXPECT_EQ(tracker.fallback_transition_count(), 3u);
  EXPECT_EQ(tracker.recovery_transition_count(), 3u);
  EXPECT_EQ(tracker.degraded_announce_count(), 6u);
}

}  // namespace
}  // namespace p4p::core
