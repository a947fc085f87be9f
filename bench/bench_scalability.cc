// Scalability analyses from Sections 8 and 10:
//
//  1. Swarm-popularity — "we analyzed 34,721 swarms ... only 0.72% of
//     swarms had an excess of hundred leechers", the argument that most
//     appTrackers need state for only a few heavy-hitter networks.
//  2. Virtual coordinate embedding (Section 10 future work) — embed the
//     external view into low-dimensional coordinates; report the stress of
//     the approximation and the peer-selection quality (unit BDP) when the
//     P4P selector runs on embedded distances instead of the full mesh:
//     both arms set inter-PID matching weights w_ij = 1/d_ij and differ
//     only in d.
//  3. Portal query caching — how many application decisions one fetched
//     view serves under the version/TTL cache (CachingPortalClient); TTL
//     refreshes answered NotModified are not fetches.
//
// The figures are written to BENCH_scalability.json. Simulator throughput
// is perfbench's `fleet` workload.
#include "common.h"

#include <cmath>

#include "core/embedding.h"
#include "proto/caching_client.h"
#include "proto/service.h"

int main() {
  using namespace p4p;
  bench::PrintHeader("Scalability: swarm popularity, coordinate embedding, caching");

  // ---- 1. swarm popularity ----
  bench::PrintSubHeader("1) Swarm-size distribution (34,721 Zipf swarms)");
  std::mt19937_64 rng(13);
  const auto sizes = sim::ZipfSwarmSizes(34721, 1.9, 5000, rng);
  const double frac100 = sim::FractionAbove(sizes, 100);
  std::printf("  swarms > 100 leechers : %.2f%%\n", 100.0 * frac100);
  std::printf("  swarms > 1000 leechers: %.3f%%\n",
              100.0 * sim::FractionAbove(sizes, 1000));
  long total = 0;
  for (int s : sizes) total += s;
  std::printf("  total leechers        : %ld (mean swarm %.1f)\n", total,
              static_cast<double>(total) / sizes.size());

  // ---- 2. coordinate embedding ----
  bench::PrintSubHeader("2) Virtual coordinate embedding of the ISP-B view");
  const net::Graph graph = net::MakeIspB();
  const net::RoutingTable routing(graph);
  core::ITrackerConfig tcfg;
  tcfg.mode = core::PriceMode::kStatic;
  core::ITracker tracker(graph, routing, tcfg);
  tracker.SetPricesFromOspf();
  const auto view = tracker.external_view();

  std::printf("  %4s %10s %14s\n", "dims", "stress", "bytes/PID");
  double best_stress = 1.0;
  for (int dims : {2, 4, 8}) {
    core::EmbeddingConfig ecfg;
    ecfg.dimensions = dims;
    ecfg.iterations = 4000;
    const auto emb = core::CoordinateEmbedding::Fit(view, ecfg);
    const double stress = emb.Stress(view);
    best_stress = std::min(best_stress, stress);
    std::printf("  %4d %10.3f %14zu (full mesh: %zu)\n", dims, stress,
                sizeof(double) * (static_cast<std::size_t>(dims) + 1),
                sizeof(double) * graph.node_count());
  }

  // Selection quality, d = the full view or the 8-dimension embedding.
  core::EmbeddingConfig ecfg;
  ecfg.dimensions = 8;
  ecfg.iterations = 4000;
  const auto emb = core::CoordinateEmbedding::Fit(view, ecfg);

  bench::SwarmSpec swarm;
  swarm.leechers = bench::Scaled(150);
  for (net::NodeId n = 0; n < static_cast<net::NodeId>(graph.node_count()); ++n) {
    swarm.pops.push_back(n);
  }
  swarm.seed_node = 0;
  swarm.seed_up_bps = 20e6;
  swarm.rng_seed = 14;
  const auto peers = bench::MakeSwarm(swarm);

  sim::BitTorrentConfig bt;
  bt.file_bytes = 8.0 * 1024 * 1024;
  bt.block_bytes = 256.0 * 1024;
  bt.horizon = 3600.0;
  bt.rng_seed = 1414;

  auto run_weighted = [&](auto distance) {
    const auto n = static_cast<std::size_t>(tracker.num_pids());
    std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
    for (core::Pid i = 0; i < tracker.num_pids(); ++i) {
      for (core::Pid j = 0; j < tracker.num_pids(); ++j) {
        const double d = distance(i, j);
        if (i != j && d > 0 && std::isfinite(d)) w[i][j] = 1.0 / d;
      }
    }
    core::P4PSelector selector;
    selector.RegisterITracker(swarm.as_number, &tracker);
    selector.SetMatchingWeights(swarm.as_number, std::move(w));
    sim::BitTorrentSimulator simulator(graph, routing, bt);
    return simulator.Run(peers, selector);
  };
  const auto full =
      run_weighted([&](core::Pid i, core::Pid j) { return view.at(i, j); });
  const auto approx =
      run_weighted([&](core::Pid i, core::Pid j) { return emb.Distance(i, j); });
  core::NativeRandomSelector native;
  sim::BitTorrentSimulator native_sim(graph, routing, bt);
  const auto base = native_sim.Run(peers, native);

  std::printf("  unit BDP: native %.2f, full-mesh distances %.2f, embedded %.2f\n",
              base.unit_bdp(), full.unit_bdp(), approx.unit_bdp());

  // ---- 3. caching ----
  bench::PrintSubHeader("3) Portal caching: decisions per fetch");
  proto::ITrackerService service(&tracker);
  double now = 0.0;
  proto::CachingPortalClient client(
      std::make_unique<proto::InProcessTransport>(service.handler()),
      [&now] { return now; }, /*ttl=*/300.0);
  for (int q = 0; q < 20000; ++q) {
    now += 0.1;  // 10 queries/s for ~33 minutes
    (void)client.GetPDistances(static_cast<core::Pid>(q % tracker.num_pids()));
  }
  std::printf("  queries: 20000, portal fetches: %zu, cache hits: %zu\n",
              client.fetch_count(), client.hit_count());

  bench::PrintComparisons({
      {"swarms above 100 leechers", "0.72% (thepiratebay analysis)",
       bench::Fmt("%.2f%%", 100.0 * frac100), frac100 < 0.03},
      {"embedding fidelity", "distances approximated with low error",
       bench::Fmt("best stress %.3f at 8 dims", best_stress), best_stress < 0.35},
      {"selection quality on embedded distances",
       "close to full mesh, better than native",
       bench::Fmt("uBDP %.2f (full %.2f, native %.2f)", approx.unit_bdp(),
                  full.unit_bdp(), base.unit_bdp()),
       approx.unit_bdp() < base.unit_bdp()},
      {"decisions per portal fetch", ">> 1 (aggregation + caching)",
       bench::Fmt("%.0f", 20000.0 / std::max<std::size_t>(1, client.fetch_count())),
       client.fetch_count() < 100},
  });

  bench::WriteBenchJson(
      "BENCH_scalability.json",
      {
          {"bench_scale", bench::ScaleFactor()},
          {"swarm_leechers", static_cast<double>(swarm.leechers)},
          {"embedding_best_stress", best_stress},
          {"portal_decisions_per_fetch",
           20000.0 / static_cast<double>(std::max<std::size_t>(1, client.fetch_count()))},
          {"swarms_above_100_leechers_frac", frac100},
      });
  return 0;
}
