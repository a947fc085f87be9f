// Swarm-plane scalability: the rebuilt SoA simulator core at
// locality-to-the-limit scale.
//
// "Pushing BitTorrent Locality to the Limit" measures real torrents with
// 10k+ concurrent leechers; this bench drives the data plane at that
// scale. Two scenarios:
//
//   1) Flagship swarm — Scaled(100000) leechers over ISP-B with AS-skewed,
//      metro-concentrated placement and a residential access mix — the top
//      of the locality-limit range. Measures per-peer step cost and the
//      max-min speedup (clean-step skip) against periodically sampled full
//      solves (bit-parity checked in-run; mismatches are a hard failure),
//      with gather/solve attribution from the allocator's counters.
//   2) Locality-to-the-limit vs P4P weighting — a flash-crowd, churning
//      field-test population run three-way (Native / Localized / P4P),
//      comparing bandwidth-distance product and completion.
//
// A Zipf family of small and medium swarms through the sharded runner is
// perfbench's `fleet` workload (`maxmin.*`, `swarm_shard.parallel_eff`).
//
// Emits bt_peers_per_swarm_max / bt_step_ns_per_peer /
// maxmin_flagship_speedup_x (and friends) merged into BENCH_scalability.json.
#include "common.h"

#include <chrono>
#include <cmath>
#include <thread>

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kAses = 4;

/// AS-skewed flagship population: AS-n owns a quarter of ISP-B's PoPs,
/// client mass is skewed across ASes (50/25/15/10) and Zipf-concentrated
/// across the metros inside each AS, and each AS gets an era-typical
/// access class. One well-provisioned origin seed per AS.
std::vector<p4p::sim::PeerSpec> MakeFlagshipSwarm(const p4p::net::Graph& graph,
                                                  int leechers) {
  using namespace p4p;
  const int num_pops = static_cast<int>(graph.node_count());
  const int per_as = num_pops / kAses;
  const double as_share[kAses] = {0.50, 0.25, 0.15, 0.10};
  const sim::AccessClass as_access[kAses] = {
      sim::AccessClass::kCable, sim::AccessClass::kDsl, sim::AccessClass::kFttp,
      sim::AccessClass::kCable};
  std::vector<sim::PeerSpec> peers;
  peers.reserve(static_cast<std::size_t>(leechers) + kAses);
  std::mt19937_64 rng(4242);
  int assigned = 0;
  for (int as = 0; as < kAses; ++as) {
    sim::PopulationConfig pop;
    pop.num_peers = (as + 1 < kAses)
                        ? static_cast<int>(std::lround(leechers * as_share[as]))
                        : leechers - assigned;
    assigned += pop.num_peers;
    for (int i = 0; i < per_as; ++i) {
      pop.pops.push_back(static_cast<net::NodeId>(as * per_as + i));
      pop.pop_weights.push_back(1.0 / std::pow(1.0 + i, 1.1));
    }
    pop.as_number = as + 1;
    pop.access = as_access[as];
    pop.join_window = 60.0;
    auto group = sim::MakePopulation(pop, rng);
    peers.insert(peers.end(), group.begin(), group.end());
  }
  for (int as = 0; as < kAses; ++as) {
    sim::PeerSpec seed;
    seed.node = static_cast<net::NodeId>(as * per_as);
    seed.as_number = as + 1;
    seed.up_bps = 20e6;
    seed.down_bps = 20e6;
    seed.seed = true;
    peers.push_back(seed);
  }
  return peers;
}

}  // namespace

int main() {
  using namespace p4p;
  bench::PrintHeader("Swarm plane: SoA core, incremental max-min, flash crowd");

  const net::Graph graph = net::MakeIspB();
  const net::RoutingTable routing(graph);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  // ---- 1) flagship swarm ----
  const int leechers = bench::Scaled(100000);
  bench::PrintSubHeader(bench::Fmt("1) Flagship swarm: %d leechers, AS-skewed",
                                   leechers));
  const auto flagship = MakeFlagshipSwarm(graph, leechers);
  // The file is sized so the horizon covers the sustained bulk phase:
  // supply is upload-limited at ~2.3 Mbps per leecher, so nobody finishes
  // a 512 MiB payload inside 1200 s and the swarm stays at full strength —
  // the regime the per-peer step cost and allocator speedup describe.
  // Allocator churn then comes only from batched joins and rechokes; block
  // hand-offs on a live stream reuse its flow.
  sim::BitTorrentConfig big;
  big.file_bytes = 512.0 * 1024 * 1024;
  big.block_bytes = 256.0 * 1024;
  big.rechoke_interval = 40.0;
  big.horizon = 1200.0;
  big.maxmin_full_sample_every = 37;
  big.rng_seed = 4242;
  sim::BitTorrentSimulator flagship_sim(graph, routing, big);
  core::NativeRandomSelector flagship_selector;
  const auto flag_t0 = Clock::now();
  const auto flag = flagship_sim.Run(flagship, flagship_selector);
  const double flag_sec = SecondsSince(flag_t0);
  const double step_ns_per_peer =
      flag_sec * 1e9 / (static_cast<double>(flag.rounds) * flagship.size());
  const double flagship_speedup =
      flag.maxmin_live_ns > 0 ? flag.maxmin_full_ns_est / flag.maxmin_live_ns : 0.0;
  const double dirty_fraction =
      flag.rounds > 0 ? static_cast<double>(flag.maxmin_dirty_steps) / flag.rounds
                      : 0.0;
  std::printf("  %zu peers, %d rounds in %.2f s (%.0f ns/peer/step)\n",
              flagship.size(), flag.rounds, flag_sec, step_ns_per_peer);
  std::printf("  completed: %.1f%%, total payload: %.1f GB\n",
              100.0 * flag.completed_fraction, flag.total_bytes / 1e9);
  std::printf("  max-min: %.2fx vs full-every-step (%d full samples, "
              "%d mismatches, %.0f%% dirty steps — saturated regime)\n",
              flagship_speedup, flag.maxmin_full_samples,
              flag.maxmin_parity_mismatches, 100.0 * dirty_fraction);
  // Phase attribution: where the allocator's recompute time actually went.
  const double flag_recomputes = static_cast<double>(flag.maxmin_dense_solves);
  const double gather_ns_per_pass =
      flag_recomputes > 0 ? flag.maxmin_gather_ns / flag_recomputes : 0.0;
  const double solve_ns_per_pass =
      flag_recomputes > 0 ? flag.maxmin_solve_ns / flag_recomputes : 0.0;
  std::printf("  attribution: %.0f ns gather + %.0f ns solve per recompute "
              "(%llu recomputes)\n",
              gather_ns_per_pass, solve_ns_per_pass,
              static_cast<unsigned long long>(flag.maxmin_dense_solves));

  // ---- 2) locality-to-the-limit vs P4P under a flash crowd ----
  bench::PrintSubHeader("2) Locality limit vs P4P weighting (flash crowd)");
  sim::FieldTestConfig fc;
  fc.num_peers = bench::Scaled(600);
  for (net::NodeId n = 0; n < static_cast<net::NodeId>(graph.node_count()); ++n) {
    fc.pops.push_back(n);
    fc.pop_weights.push_back(1.0 / std::pow(1.0 + static_cast<int>(n), 1.1));
  }
  fc.horizon = 7200.0;
  fc.mean_dwell = 2400.0;
  std::mt19937_64 ft_rng(97);
  auto crowd = sim::MakeFieldTestPopulation(fc, ft_rng);
  sim::PeerSpec origin;
  origin.node = 0;
  origin.as_number = 1;
  origin.up_bps = 20e6;
  origin.down_bps = 20e6;
  origin.seed = true;
  crowd.push_back(origin);
  bench::ThreeWayConfig tw;
  tw.bt.file_bytes = 4.0 * 1024 * 1024;
  tw.bt.block_bytes = 256.0 * 1024;
  tw.bt.rechoke_interval = 20.0;
  tw.bt.horizon = 7200.0;
  tw.bt.maxmin_full_sample_every = 50;
  tw.bt.rng_seed = 7;
  const auto three = bench::RunThreeWay(graph, routing, crowd, tw);
  double bdp_native = 0.0, bdp_localized = 0.0, bdp_p4p = 0.0, done_p4p = 0.0;
  int flash_mismatches = 0;
  for (const auto& r : three) {
    std::printf("  %-9s unit-BDP %.3f, completed %.1f%%, median %s s\n",
                r.selector.c_str(), r.result.unit_bdp(),
                100.0 * r.result.completed_fraction,
                r.result.completion_times.empty()
                    ? "-"
                    : bench::Fmt("%.0f",
                                 sim::Percentile(r.result.completion_times, 50.0))
                          .c_str());
    flash_mismatches += r.result.maxmin_parity_mismatches;
    if (r.selector == "Native") bdp_native = r.result.unit_bdp();
    if (r.selector == "Localized") bdp_localized = r.result.unit_bdp();
    if (r.selector == "P4P") {
      bdp_p4p = r.result.unit_bdp();
      done_p4p = r.result.completed_fraction;
    }
  }

  bench::PrintComparisons({
      {"sustained swarm size", ">= 100k leechers in one swarm",
       bench::Fmt("%d leechers, %d rounds", leechers, flag.rounds),
       leechers >= bench::Scaled(100000) && flag.rounds > 0},
      {"incremental max-min vs full solve", "bit-identical",
       bench::Fmt("%d mismatches", flag.maxmin_parity_mismatches + flash_mismatches),
       flag.maxmin_parity_mismatches + flash_mismatches == 0},
      {"saturated-regime flagship", ">= 1.0x vs full-every-step (target 1.5x)",
       bench::Fmt("%.2fx at %.0f%% dirty steps", flagship_speedup,
                  100.0 * dirty_fraction),
       flagship_speedup >= 1.0},
      {"P4P vs locality-to-the-limit", "near-localized BDP, better completion",
       bench::Fmt("BDP %.2f vs %.2f (native %.2f)", bdp_p4p, bdp_localized,
                  bdp_native),
       bdp_p4p < bdp_native},
  });

  bench::MergeBenchJson(
      "BENCH_scalability.json",
      {
          {"bench_hw_threads", static_cast<double>(hw)},
          {"bt_peers_per_swarm_max", static_cast<double>(leechers)},
          {"bt_step_ns_per_peer", step_ns_per_peer},
          {"bt_flagship_rounds", static_cast<double>(flag.rounds)},
          {"bt_flagship_completed_fraction", flag.completed_fraction},
          {"maxmin_flagship_speedup_x", flagship_speedup},
          {"maxmin_flagship_dirty_fraction", dirty_fraction},
          {"maxmin_gather_ns", gather_ns_per_pass},
          {"maxmin_solve_ns", solve_ns_per_pass},
          {"maxmin_dense_solves", static_cast<double>(flag.maxmin_dense_solves)},
          {"maxmin_incremental_solves",
           static_cast<double>(flag.maxmin_incremental_solves)},
          {"maxmin_parity_mismatches",
           static_cast<double>(flag.maxmin_parity_mismatches + flash_mismatches)},
          {"bt_flash_bdp_native", bdp_native},
          {"bt_flash_bdp_localized", bdp_localized},
          {"bt_flash_bdp_p4p", bdp_p4p},
          {"bt_flash_completed_p4p", done_p4p},
      });
  return 0;
}
