// Announce-plane scalability: the sharded AppTracker under a
// million-peer, heavy-tailed, churning announce workload.
//
// "Pushing BitTorrent Locality to the Limit" evaluates locality on real
// 10k+-peer torrents across thousands of ASes; this bench drives the
// control plane at that scale: Zipf swarm sizes over ISP-B (52 PIDs x 4
// ASes), three-stage P4P selection answering every announce from the
// per-PID bucket indexes, O(1) departures, and multi-threaded announce
// streams over disjoint swarms.
//
// Emits announces_per_sec / selection_ns_per_announce (and friends) merged
// into BENCH_scalability.json as the perf trajectory for later PRs.
#include "common.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "core/apptracker.h"
#include "sim/peer_buckets.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kAses = 4;

p4p::core::PidMap MakePidMap(int num_pids) {
  p4p::core::PidMap map;
  for (int as = 1; as <= kAses; ++as) {
    for (int pid = 0; pid < num_pids; ++pid) {
      const std::string prefix =
          std::to_string(10 + as) + "." + std::to_string(pid) + ".0.0/16";
      map.add(*p4p::core::Prefix::Parse(prefix),
              {static_cast<p4p::core::Pid>(pid), as});
    }
  }
  return map;
}

/// Deterministic client IP inside the (as, pid) prefix.
std::string ClientIp(int as, int pid, std::uint64_t salt) {
  return std::to_string(10 + as) + "." + std::to_string(pid) + "." +
         std::to_string(salt % 200 + 1) + "." + std::to_string(salt / 200 % 200 + 1);
}

std::unique_ptr<p4p::core::AppTracker> MakeTracker(
    const p4p::core::ITracker& tracker, const p4p::core::PidMap& pid_map,
    std::size_t shards) {
  auto selector = std::make_unique<p4p::core::P4PSelector>();
  for (int as = 1; as <= kAses; ++as) selector->RegisterITracker(as, &tracker);
  return std::make_unique<p4p::core::AppTracker>(std::move(selector), pid_map,
                                                 /*rng_seed=*/17, shards);
}

}  // namespace

int main() {
  using namespace p4p;
  bench::PrintHeader("Announce plane: sharded AppTracker, bucketed swarms, churn");

  const net::Graph graph = net::MakeIspB();
  const net::RoutingTable routing(graph);
  core::ITrackerConfig tcfg;
  tcfg.mode = core::PriceMode::kStatic;
  core::ITracker itracker(graph, routing, tcfg);
  itracker.SetPricesFromOspf();
  const int num_pids = static_cast<int>(graph.node_count());
  const core::PidMap pid_map = MakePidMap(num_pids);

  // ---- workload: heavy-tailed swarm sizes ----
  bench::PrintSubHeader("1) Heavy-tailed swarm population (Zipf)");
  std::mt19937_64 rng(29);
  const auto sizes = sim::ZipfSwarmSizes(bench::Scaled(7000), 1.5, 60000, rng);
  std::uint64_t total_peers = 0;
  int max_swarm = 0;
  for (int s : sizes) {
    total_peers += static_cast<std::uint64_t>(s);
    max_swarm = std::max(max_swarm, s);
  }
  std::printf("  swarms: %zu, peers: %llu, largest swarm: %d\n", sizes.size(),
              static_cast<unsigned long long>(total_peers), max_swarm);

  // ---- fill: multi-threaded announce streams ----
  bench::PrintSubHeader("2) Fill throughput (4 announce threads, want=20)");
  constexpr int kThreads = 4;
  constexpr std::size_t kShards = 64;
  auto app = MakeTracker(itracker, pid_map, kShards);
  // Per-swarm member logs for the churn phase, owned per thread.
  std::vector<std::vector<std::vector<sim::PeerId>>> members(kThreads);
  const auto fill_t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        core::AnnounceRequest req;
        req.want = 20;
        std::mt19937_64 ip_rng(100 + static_cast<std::uint64_t>(t));
        for (std::size_t s = static_cast<std::size_t>(t); s < sizes.size();
             s += kThreads) {
          req.content_id = "swarm-" + std::to_string(s);
          auto& log = members[static_cast<std::size_t>(t)].emplace_back();
          log.reserve(static_cast<std::size_t>(sizes[s]));
          for (int i = 0; i < sizes[s]; ++i) {
            const std::uint64_t salt = ip_rng();
            req.client_ip = ClientIp(static_cast<int>(salt % kAses) + 1,
                                     static_cast<int>(salt / 7 % num_pids), salt);
            log.push_back(app->Announce(req).assigned_id);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const double fill_sec = SecondsSince(fill_t0);
  const double announces_per_sec = static_cast<double>(total_peers) / fill_sec;
  std::printf("  %llu announces in %.2f s: %.0f announces/s (%zu shards)\n",
              static_cast<unsigned long long>(total_peers), fill_sec,
              announces_per_sec, kShards);

  // ---- thread scaling on disjoint swarms ----
  bench::PrintSubHeader("3) Thread scaling (disjoint swarms)");
  const int batch_swarms = bench::Scaled(64);
  const int batch_size = bench::Scaled(1000);
  const auto run_batch = [&](core::AppTracker& tracker, int threads_n,
                             const std::string& tag) {
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < threads_n; ++t) {
      threads.emplace_back([&, t] {
        core::AnnounceRequest req;
        req.want = 20;
        std::mt19937_64 ip_rng(7 + static_cast<std::uint64_t>(t));
        for (int s = t; s < batch_swarms; s += threads_n) {
          req.content_id = tag + std::to_string(s);
          for (int i = 0; i < batch_size; ++i) {
            const std::uint64_t salt = ip_rng();
            req.client_ip = ClientIp(static_cast<int>(salt % kAses) + 1,
                                     static_cast<int>(salt / 7 % num_pids), salt);
            (void)tracker.Announce(req);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    return static_cast<double>(batch_swarms) * batch_size / SecondsSince(t0);
  };
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  auto app1 = MakeTracker(itracker, pid_map, kShards);
  const double rate_1t = run_batch(*app1, 1, "scale-");
  // The 4-thread wall measurement only means something when the host can
  // actually run the threads concurrently; on a 1-core box it measures the
  // scheduler, not the tracker, and a sub-1x "scaling" number would read
  // as a regression. Skip it there.
  double rate_4t = 0.0;
  double scaling = 0.0;
  if (hw > 1) {
    auto app4 = MakeTracker(itracker, pid_map, kShards);
    rate_4t = run_batch(*app4, kThreads, "scale-");
    scaling = rate_4t / rate_1t;
  }
  std::printf("  1 thread : %.0f announces/s\n", rate_1t);
  if (hw > 1) {
    std::printf("  %d threads: %.0f announces/s (%.2fx wall scaling on %u hw threads)\n",
                kThreads, rate_4t, scaling, hw);
  } else {
    std::printf("  %d threads: skipped (1 hw thread — wall scaling unmeasurable)\n",
                kThreads);
  }

  // ---- churn: steady-state announce/depart mix ----
  bench::PrintSubHeader("4) Churn (50/50 announce/depart, 4 threads)");
  std::atomic<std::uint64_t> churn_announces{0};
  const int churn_ops = bench::Scaled(100000);
  const auto churn_t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        core::AnnounceRequest req;
        req.want = 20;
        std::mt19937_64 op_rng(55 + static_cast<std::uint64_t>(t));
        auto& my_members = members[static_cast<std::size_t>(t)];
        std::uint64_t local_announces = 0;
        for (int op = 0; op < churn_ops; ++op) {
          const std::size_t li = op_rng() % my_members.size();
          const std::size_t global_swarm = static_cast<std::size_t>(t) + li * kThreads;
          req.content_id = "swarm-" + std::to_string(global_swarm);
          auto& log = my_members[li];
          if ((op & 1) == 0 || log.empty()) {
            const std::uint64_t salt = op_rng();
            req.client_ip = ClientIp(static_cast<int>(salt % kAses) + 1,
                                     static_cast<int>(salt / 7 % num_pids), salt);
            log.push_back(app->Announce(req).assigned_id);
            ++local_announces;
          } else {
            const std::size_t pick = op_rng() % log.size();
            const sim::PeerId victim = log[pick];
            log[pick] = log.back();
            log.pop_back();
            app->Depart(req.content_id, victim);
          }
        }
        churn_announces.fetch_add(local_announces);
      });
    }
    for (auto& th : threads) th.join();
  }
  const double churn_sec = SecondsSince(churn_t0);
  const double churn_ops_per_sec =
      static_cast<double>(churn_ops) * kThreads / churn_sec;
  std::printf("  %d ops (%.0f%% announces) in %.2f s: %.0f ops/s\n",
              churn_ops * kThreads,
              100.0 * static_cast<double>(churn_announces.load()) /
                  (static_cast<double>(churn_ops) * kThreads),
              churn_sec, churn_ops_per_sec);

  // ---- selection latency: index-driven vs flattened span ----
  bench::PrintSubHeader("5) Selection latency on the largest swarm");
  core::P4PSelector selector;
  for (int as = 1; as <= kAses; ++as) selector.RegisterITracker(as, &itracker);
  sim::PeerBuckets store;
  {
    std::mt19937_64 ip_rng(77);
    for (int i = 0; i < max_swarm; ++i) {
      sim::PeerInfo p;
      p.id = i;
      const std::uint64_t salt = ip_rng();
      p.node = static_cast<net::NodeId>(salt / 7 % num_pids);
      p.as_number = static_cast<std::int32_t>(salt % kAses) + 1;
      store.Insert(p);
    }
  }
  sim::PeerInfo client;
  client.id = max_swarm + 1;
  client.node = 0;
  client.as_number = 1;
  std::mt19937_64 sel_rng(123);
  core::SelectionWorkspace ws;
  for (int i = 0; i < 100; ++i) {
    (void)selector.SelectWithWorkspace(client, store, 20, sel_rng, ws);
  }
  const int sel_calls = bench::Scaled(20000);
  const auto sel_t0 = Clock::now();
  for (int i = 0; i < sel_calls; ++i) {
    (void)selector.SelectWithWorkspace(client, store, 20, sel_rng, ws);
  }
  const double sel_ns = SecondsSince(sel_t0) * 1e9 / sel_calls;

  std::vector<sim::PeerInfo> flat;
  store.Flatten(flat);
  const int span_calls = std::max(4, sel_calls / 100);
  const auto span_t0 = Clock::now();
  for (int i = 0; i < span_calls; ++i) {
    (void)selector.SelectPeers(client, flat, 20, sel_rng);
  }
  const double span_ns = SecondsSince(span_t0) * 1e9 / span_calls;
  std::printf("  bucket path: %.0f ns/announce (swarm of %d)\n", sel_ns, max_swarm);
  std::printf("  span path  : %.0f ns/announce (%.1fx slower: full-swarm partition)\n",
              span_ns, span_ns / sel_ns);

  bench::PrintComparisons({
      {"peers under management", ">= 1M with churn (locality-to-the-limit)",
       bench::Fmt("%llu across %zu swarms",
                  static_cast<unsigned long long>(total_peers), sizes.size()),
       total_peers >= static_cast<std::uint64_t>(1000000 * bench::ScaleFactor())},
      {"selection cost vs swarm size", "index-driven (no full-swarm scan)",
       bench::Fmt("%.0f ns vs %.0f ns span path", sel_ns, span_ns),
       sel_ns * 4 < span_ns},
  });

  // Wall-clock thread-scaling keys are only emitted when the host could
  // actually run the threads concurrently; bench_hw_threads records what
  // was available so the JSON is honest about what was measured.
  std::vector<std::pair<std::string, double>> metrics = {
      {"bench_hw_threads", static_cast<double>(hw)},
      {"announces_per_sec", announces_per_sec},
      {"announces_per_sec_churn", churn_ops_per_sec},
      {"announce_total_peers", static_cast<double>(total_peers)},
      {"announce_swarms", static_cast<double>(sizes.size())},
      {"announce_largest_swarm", static_cast<double>(max_swarm)},
      {"announce_shards", static_cast<double>(kShards)},
      {"announce_1thread_per_sec", rate_1t},
      {"selection_ns_per_announce", sel_ns},
      {"selection_span_ns_per_announce", span_ns},
  };
  if (hw > 1) {
    metrics.emplace_back("announce_4thread_per_sec", rate_4t);
    metrics.emplace_back("announce_thread_scaling_x", scaling);
  }
  bench::MergeBenchJson("BENCH_scalability.json", metrics);
  return 0;
}
