// Steady-state allocation audit for the announce plane. Lives in its own
// test binary because it overrides the global allocator to count calls:
// after warm-up, the bucket-driven three-stage selection must run without
// per-call partition maps, swarm copies, or distribution temporaries — the
// only steady-state allocations left are the returned peer-set vector and
// the id-index node per announce.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/apptracker.h"
#include "core/itracker.h"
#include "core/selectors.h"
#include "net/topology.h"
#include "sim/peer_buckets.h"

namespace {
std::atomic<long long> g_allocs{0};
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace p4p::core {
namespace {

PidMap AbilenePidMap() {
  PidMap map;
  for (int pid = 0; pid < 11; ++pid) {
    map.add(*Prefix::Parse("10." + std::to_string(pid) + ".0.0/16"),
            {static_cast<Pid>(pid), 1});
  }
  return map;
}

sim::PeerInfo MakePeer(sim::PeerId id, net::NodeId pid, std::int32_t as_number) {
  sim::PeerInfo p;
  p.id = id;
  p.node = pid;
  p.as_number = as_number;
  p.up_bps = 1e6;
  p.down_bps = 1e6;
  return p;
}

TEST(AllocSteadyState, BucketSelectionAllocatesOnlyTheResult) {
  const net::Graph graph = net::MakeAbilene();
  const net::RoutingTable routing(graph);
  ITracker tracker(graph, routing);
  P4PSelector selector;
  selector.RegisterITracker(1, &tracker);
  selector.RegisterITracker(2, &tracker);

  sim::PeerBuckets store;
  for (sim::PeerId id = 0; id < 20000; ++id) {
    store.Insert(MakePeer(id, id % 11, 1 + id % 2));
  }
  const auto client = MakePeer(20001, 0, 1);
  std::mt19937_64 rng(5);
  SelectionWorkspace ws;

  // Warm the workspace buffers to their steady-state capacity.
  for (int i = 0; i < 50; ++i) {
    (void)selector.SelectWithWorkspace(client, store, 20, rng, ws);
  }

  constexpr long long kCalls = 2000;
  const long long before = g_allocs.load();
  for (long long i = 0; i < kCalls; ++i) {
    (void)selector.SelectWithWorkspace(client, store, 20, rng, ws);
  }
  const long long per_call_x100 = (g_allocs.load() - before) * 100 / kCalls;
  // Exactly one allocation per call: the returned peer-set vector. Anything
  // above that means a partition map, swarm copy, or distribution temporary
  // crept back into the selection path.
  EXPECT_LE(per_call_x100, 100) << "selection allocates "
                                << per_call_x100 / 100.0 << " per call";
}

TEST(AllocSteadyState, BucketSelectionAllocatesOnlyTheResultUnderReprice) {
  // The same audit while the tracker reprices every 100 calls: each new
  // snapshot re-keys the weight cache, whose rows are re-marked in place.
  // The tracker materializes each new view outside the counted window;
  // only the selection calls are counted.
  const net::Graph graph = net::MakeAbilene();
  const net::RoutingTable routing(graph);
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  ITracker tracker(graph, routing, cfg);
  P4PSelector selector;
  selector.RegisterITracker(1, &tracker);
  selector.RegisterITracker(2, &tracker);

  sim::PeerBuckets store;
  for (sim::PeerId id = 0; id < 20000; ++id) {
    store.Insert(MakePeer(id, id % 11, 1 + id % 2));
  }
  const auto client = MakePeer(20001, 0, 1);
  std::mt19937_64 rng(5);
  SelectionWorkspace ws;
  std::vector<double> prices(graph.link_count());
  long long selection_allocs = 0;
  const auto run = [&](int round, bool count) {
    for (std::size_t e = 0; e < prices.size(); ++e) {
      prices[e] = 0.01 * static_cast<double>(1 + (e + static_cast<std::size_t>(round)) % 7);
    }
    tracker.SetStaticPrices(prices);
    (void)tracker.snapshot();
    for (int i = 0; i < 100; ++i) {
      const long long before = g_allocs.load();
      (void)selector.SelectWithWorkspace(client, store, 20, rng, ws);
      if (count) selection_allocs += g_allocs.load() - before;
    }
  };

  // Warm the weight cache and every scratch buffer.
  for (int round = 0; round < 10; ++round) run(round, false);

  constexpr long long kRounds = 20;
  for (int round = 0; round < kRounds; ++round) run(10 + round, true);
  const long long per_call_x100 = selection_allocs * 100 / (kRounds * 100);
  EXPECT_LE(per_call_x100, 100) << "selection allocates "
                                << per_call_x100 / 100.0 << " per call";
}

TEST(AllocSteadyState, AnnounceChurnStaysFlat) {
  const net::Graph graph = net::MakeAbilene();
  const net::RoutingTable routing(graph);
  ITracker tracker(graph, routing);
  auto selector = std::make_unique<P4PSelector>();
  selector->RegisterITracker(1, &tracker);
  AppTracker app(std::move(selector), AbilenePidMap(), 7, 8);

  AnnounceRequest req;
  req.content_id = "steady";
  req.want = 20;
  std::vector<sim::PeerId> members;
  // Warm up: grow the swarm and its buckets to steady-state capacity, with
  // churn so the slot index has seen erase/insert cycles.
  for (int i = 0; i < 5000; ++i) {
    req.client_ip = "10." + std::to_string(i % 11) + ".0." + std::to_string(i % 200 + 1);
    members.push_back(app.Announce(req).assigned_id);
    if (i % 3 == 0 && members.size() > 100) {
      app.Depart("steady", members[members.size() - 100]);
      members.erase(members.end() - 100);
    }
  }

  constexpr long long kPairs = 2000;
  std::size_t cursor = 0;
  const long long before = g_allocs.load();
  for (long long i = 0; i < kPairs; ++i) {
    req.client_ip = "10.3.0.7";  // SSO: no string allocation in the loop
    const auto resp = app.Announce(req);
    app.Depart("steady", members[cursor]);
    members[cursor] = resp.assigned_id;
    cursor = (cursor + 1) % members.size();
  }
  const long long per_pair_x100 = (g_allocs.load() - before) * 100 / kPairs;
  // Per announce+depart pair: the response peer-set vector plus the id-index
  // map node. Allow one more for hash-bucket jitter; the old path's
  // partition maps alone cost dozens.
  EXPECT_LE(per_pair_x100, 300) << "announce+depart allocates "
                                << per_pair_x100 / 100.0 << " per pair";
}

}  // namespace
}  // namespace p4p::core
