// Concurrency hammer for the sharded announce plane. Runs under TSan in CI:
// 8 threads mixing announces, departures, and fallback flips against one
// AppTracker must produce no data races, no torn accounting, and exact
// transition counts; P4P announces racing a repricing control thread must
// keep returning well-formed peer sets.
#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/apptracker.h"
#include "net/topology.h"

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

TEST(AppTrackerConcurrency, ParallelAnnouncesOnDisjointSwarmsStayIsolated) {
  constexpr int kThreads = 8;
  constexpr int kAnnounces = 400;
  AppTracker tracker(std::make_unique<NativeRandomSelector>(), TestPidMap(), 7, 32);

  std::vector<std::thread> threads;
  std::vector<std::vector<sim::PeerId>> ids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker, &ids, t] {
      AnnounceRequest req;
      req.content_id = "swarm-" + std::to_string(t);
      for (int i = 0; i < kAnnounces; ++i) {
        req.client_ip = "10." + std::to_string(i % 3) + ".0." + std::to_string(i % 250 + 1);
        const auto resp = tracker.Announce(req);
        ids[static_cast<std::size_t>(t)].push_back(resp.assigned_id);
        // Peers handed out always belong to this thread's swarm.
        for (sim::PeerId p : resp.peers) {
          EXPECT_NE(p, resp.assigned_id);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every announce landed; ids are globally unique across threads.
  std::set<sim::PeerId> all;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tracker.swarm_size("swarm-" + std::to_string(t)),
              static_cast<std::size_t>(kAnnounces));
    all.insert(ids[static_cast<std::size_t>(t)].begin(),
               ids[static_cast<std::size_t>(t)].end());
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kAnnounces));
  EXPECT_EQ(tracker.swarm_count(), static_cast<std::size_t>(kThreads));
}

TEST(AppTrackerConcurrency, AnnounceDepartFallbackFlipHammer) {
  constexpr int kThreads = 8;
  constexpr int kOps = 600;
  AppTracker tracker(std::make_unique<P4PSelector>(), TestPidMap(), 11, 16);

  // The view flips between usable and unusable while announces race; the
  // probe reads an atomic, as a real CachingPortalClient probe would.
  std::atomic<bool> view_usable{true};
  tracker.EnableNativeFallback([&view_usable] { return view_usable.load(); });

  std::atomic<std::size_t> announces{0};
  std::atomic<std::size_t> departs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      AnnounceRequest req;
      std::vector<std::pair<std::string, sim::PeerId>> mine;
      for (int i = 0; i < kOps; ++i) {
        // Half the traffic lands on a swarm shared by all threads, half on
        // a per-thread swarm — exercising both contended and disjoint paths.
        const bool shared = (i % 2) == 0;
        req.content_id = shared ? "shared" : "own-" + std::to_string(t);
        req.client_ip = "10." + std::to_string(i % 3) + ".0." +
                        std::to_string(static_cast<int>(rng() % 250) + 1);
        if (!mine.empty() && rng() % 10 < 3) {
          const auto [cid, pid] = mine.back();
          mine.pop_back();
          if (tracker.Depart(cid, pid)) departs.fetch_add(1);
        } else {
          const auto resp = tracker.Announce(req);
          announces.fetch_add(1);
          mine.emplace_back(req.content_id, resp.assigned_id);
          EXPECT_GE(resp.assigned_id, 0);
        }
        if (t == 0 && i % 50 == 0) {
          view_usable.store(!view_usable.load());
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Conservation: members = announces - departures.
  std::size_t total = tracker.swarm_size("shared");
  for (int t = 0; t < kThreads; ++t) {
    total += tracker.swarm_size("own-" + std::to_string(t));
  }
  EXPECT_EQ(total, announces.load() - departs.load());

  // The view flipped many times; each flip is counted at most once and the
  // two directions stay within one of each other.
  const std::size_t falls = tracker.fallback_transition_count();
  const std::size_t recoveries = tracker.recovery_transition_count();
  EXPECT_GE(falls, 1u);
  EXPECT_LE(falls > recoveries ? falls - recoveries : recoveries - falls, 1u);
  EXPECT_GE(tracker.degraded_announce_count(), 1u);
}

TEST(AppTrackerConcurrency, ConcurrentDepartsNeverDoubleCount) {
  // Two threads race to depart the same peers: exactly one wins each.
  AppTracker tracker(std::make_unique<NativeRandomSelector>(), TestPidMap(), 3, 8);
  AnnounceRequest req;
  req.content_id = "film";
  std::vector<sim::PeerId> ids;
  for (int i = 0; i < 500; ++i) {
    req.client_ip = "10." + std::to_string(i % 3) + ".0." + std::to_string(i % 250 + 1);
    ids.push_back(tracker.Announce(req).assigned_id);
  }
  std::atomic<int> wins{0};
  auto racer = [&] {
    for (sim::PeerId id : ids) {
      if (tracker.Depart("film", id)) wins.fetch_add(1);
    }
  };
  std::thread a(racer);
  std::thread b(racer);
  a.join();
  b.join();
  EXPECT_EQ(wins.load(), 500);
  EXPECT_EQ(tracker.swarm_count(), 0u);
}

TEST(AppTrackerConcurrency, SelectionUnderReprice) {
  // Four announce threads select through P4P p-distances while a fifth
  // keeps repricing the tracker, so selections race snapshot rebuilds.
  constexpr int kThreads = 4;
  constexpr int kAnnounces = 300;
  constexpr int kWant = 20;
  const net::Graph graph = net::MakeAbilene();
  const net::RoutingTable routing(graph);
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  ITracker itracker(graph, routing, cfg);
  auto selector = std::make_unique<P4PSelector>();
  selector->RegisterITracker(1, &itracker);
  selector->RegisterITracker(2, &itracker);
  AppTracker tracker(std::move(selector), TestPidMap(), 13, 8);

  std::atomic<bool> done{false};
  std::atomic<int> reprices{0};
  std::thread repricer([&] {
    std::vector<double> prices(graph.link_count());
    const std::vector<double> load(graph.link_count(), 1e6);
    for (std::size_t round = 0; round < 10 || !done.load(); ++round) {
      for (std::size_t e = 0; e < prices.size(); ++e) {
        prices[e] = 0.01 * static_cast<double>(1 + (e + round) % 7);
      }
      itracker.SetStaticPrices(prices);
      itracker.Update(load);
      reprices.fetch_add(1);
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker, t] {
      AnnounceRequest req;
      req.content_id = "priced-" + std::to_string(t);
      req.want = kWant;
      for (int i = 0; i < kAnnounces; ++i) {
        req.client_ip = i % 4 == 3 ? "20.0.0." + std::to_string(i % 250 + 1)
                                   : "10." + std::to_string(i % 3) + ".0." +
                                         std::to_string(i % 250 + 1);
        const auto resp = tracker.Announce(req);
        // Selection runs before the client joins: the i-th announce sees i
        // members and gets min(want, i) distinct peers, never itself.
        EXPECT_EQ(resp.peers.size(), static_cast<std::size_t>(i < kWant ? i : kWant));
        const std::set<sim::PeerId> unique(resp.peers.begin(), resp.peers.end());
        EXPECT_EQ(unique.size(), resp.peers.size());
        EXPECT_EQ(unique.count(resp.assigned_id), 0u);
      }
    });
  }
  for (auto& th : threads) th.join();
  done.store(true);
  repricer.join();

  EXPECT_GE(reprices.load(), 10);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tracker.swarm_size("priced-" + std::to_string(t)),
              static_cast<std::size_t>(kAnnounces));
  }
}

}  // namespace
}  // namespace p4p::core
