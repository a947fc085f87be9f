// Micro-benchmarks (google-benchmark) of the performance-critical pieces:
// the LP solver, the super-gradient price update + simplex projection, the
// longest-prefix-match PID map, the max-min fair allocator, routing-table
// construction, and the wire codec.
//
// After the google-benchmark suite, main() runs a hand-rolled timing pass
// over the flattened-path / memoization fast paths and writes the results
// to BENCH_micro.json (see bench::WriteBenchJson) so later PRs have a
// machine-readable perf trajectory to regress against.
#include <benchmark/benchmark.h>

#include <chrono>
#include <random>

#include "common.h"
#include "core/charging.h"
#include "core/embedding.h"
#include "core/itracker.h"
#include "core/matching.h"
#include "core/pidmap.h"
#include "core/projection.h"
#include "lp/simplex.h"
#include "net/routing.h"
#include "net/synth.h"
#include "net/topology.h"
#include "proto/messages.h"
#include "sim/maxmin.h"
#include "sim/maxmin_incremental.h"

namespace {

using namespace p4p;

void BM_SimplexTransport(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> cap(1.0, 10.0);
  lp::Model model;
  std::vector<lp::VarId> vars;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) vars.push_back(model.add_variable());
  }
  for (int i = 0; i < n; ++i) {
    std::vector<lp::Term> row;
    for (int j = 0; j < n; ++j) row.push_back({vars[static_cast<std::size_t>(i * n + j)], 1.0});
    model.add_constraint(std::move(row), lp::Sense::kLessEqual, cap(rng));
  }
  for (int j = 0; j < n; ++j) {
    std::vector<lp::Term> col;
    for (int i = 0; i < n; ++i) col.push_back({vars[static_cast<std::size_t>(i * n + j)], 1.0});
    model.add_constraint(std::move(col), lp::Sense::kLessEqual, cap(rng));
  }
  model.set_direction(lp::Direction::kMaximize);
  for (lp::VarId v : vars) model.set_objective_coeff(v, 1.0);

  lp::SimplexSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(model));
  }
  state.SetLabel(std::to_string(n * n) + " vars");
}
BENCHMARK(BM_SimplexTransport)->Arg(4)->Arg(8)->Arg(16)->Arg(24);

void BM_MatchingLp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> cap(1.0, 50.0);
  core::PDistanceMatrix dist(n, 1.0);
  std::uniform_real_distribution<double> d(0.5, 5.0);
  for (core::Pid i = 0; i < n; ++i) {
    for (core::Pid j = 0; j < n; ++j) dist.set(i, j, i == j ? 0.0 : d(rng));
  }
  core::MatchingInput input;
  input.distances = &dist;
  for (int i = 0; i < n; ++i) {
    input.upload_bps.push_back(cap(rng));
    input.download_bps.push_back(cap(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SolveMatching(input));
  }
}
BENCHMARK(BM_MatchingLp)->Arg(5)->Arg(11)->Arg(20);

void BM_SimplexProjection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> val(0.0, 1.0);
  std::vector<double> p(n);
  std::vector<double> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = val(rng);
    c[i] = 1e9 * (1.0 + val(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ProjectWeightedSimplex(p, c));
  }
}
BENCHMARK(BM_SimplexProjection)->Arg(28)->Arg(128)->Arg(1024);

void BM_ITrackerUpdate(benchmark::State& state) {
  const net::Graph graph = net::MakeIspB();
  const net::RoutingTable routing(graph);
  core::ITracker tracker(graph, routing);
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> t(0.0, 8e9);
  std::vector<double> traffic(graph.link_count());
  for (auto& x : traffic) x = t(rng);
  for (auto _ : state) {
    tracker.Update(traffic);
  }
}
BENCHMARK(BM_ITrackerUpdate);

void BM_ExternalView(benchmark::State& state) {
  const net::Graph graph = net::MakeIspB();
  const net::RoutingTable routing(graph);
  core::ITracker tracker(graph, routing);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.external_view());
  }
}
BENCHMARK(BM_ExternalView);

void BM_PidMapLookup(benchmark::State& state) {
  core::PidMap map;
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::uint32_t> addr;
  std::uniform_int_distribution<int> len(8, 24);
  for (int i = 0; i < 10000; ++i) {
    const int l = len(rng);
    const std::uint32_t mask = l == 32 ? ~0U : ~((1U << (32 - l)) - 1U);
    map.add(core::Prefix{addr(rng) & mask, l}, {i % 64, 1});
  }
  std::uint32_t probe = 0x0A000001;
  for (auto _ : state) {
    probe = probe * 2654435761u + 1;
    benchmark::DoNotOptimize(map.lookup(probe));
  }
}
BENCHMARK(BM_PidMapLookup);

void BM_MaxMinFairRates(benchmark::State& state) {
  const auto num_flows = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(6);
  const std::size_t num_links = 128;
  std::uniform_real_distribution<double> cap(1e8, 1e10);
  std::uniform_int_distribution<int> link(0, static_cast<int>(num_links) - 1);
  std::vector<double> caps(num_links);
  for (auto& c : caps) c = cap(rng);
  std::vector<sim::Flow> flows(num_flows);
  for (auto& f : flows) {
    for (int k = 0; k < 4; ++k) f.links.push_back(link(rng));
    f.rate_cap = 1e8;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::MaxMinFairRates(caps, flows));
  }
}
BENCHMARK(BM_MaxMinFairRates)->Arg(100)->Arg(1000)->Arg(5000);

void BM_RoutingTableBuild(benchmark::State& state) {
  const net::Graph graph = net::MakeIspB();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::RoutingTable(graph));
  }
}
BENCHMARK(BM_RoutingTableBuild);

void BM_RoutingTableBuildLarge(benchmark::State& state) {
  net::SynthConfig cfg;
  cfg.num_pops = static_cast<int>(state.range(0));
  cfg.num_metros = cfg.num_pops / 5;
  const net::Graph graph = net::MakeSynthTopology(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::RoutingTable(graph));
  }
}
BENCHMARK(BM_RoutingTableBuildLarge)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_PathView(benchmark::State& state) {
  const net::Graph graph = net::MakeIspB();
  const net::RoutingTable routing(graph);
  const auto n = static_cast<net::NodeId>(graph.node_count());
  net::NodeId s = 0, d = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing.path_view(s, d));
    d = (d + 1) % n;
    if (d == s) d = (d + 1) % n;
    s = d == 0 ? (s + 1) % n : s;
  }
}
BENCHMARK(BM_PathView);

void BM_PathCopy(benchmark::State& state) {
  const net::Graph graph = net::MakeIspB();
  const net::RoutingTable routing(graph);
  const auto n = static_cast<net::NodeId>(graph.node_count());
  net::NodeId s = 0, d = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing.path(s, d));
    d = (d + 1) % n;
    if (d == s) d = (d + 1) % n;
    s = d == 0 ? (s + 1) % n : s;
  }
}
BENCHMARK(BM_PathCopy);

void BM_PDistanceMemoized(benchmark::State& state) {
  const net::Graph graph = net::MakeIspB();
  const net::RoutingTable routing(graph);
  core::ITracker tracker(graph, routing);
  const auto n = static_cast<core::Pid>(tracker.num_pids());
  (void)tracker.external_view();  // warm the version-keyed cache
  core::Pid i = 0, j = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.pdistance(i, j));
    j = (j + 1) % n;
    i = j == 0 ? (i + 1) % n : i;
  }
}
BENCHMARK(BM_PDistanceMemoized);

/// One dirty re-solve of a persistent store per iteration: the last flow is
/// removed and re-added (same slot), as a stream close/open would do.
void BM_MaxMinDirtySolve(benchmark::State& state) {
  const auto num_flows = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(6);
  const std::size_t num_links = 128;
  std::uniform_real_distribution<double> cap(1e8, 1e10);
  std::uniform_int_distribution<int> link(0, static_cast<int>(num_links) - 1);
  std::vector<double> caps(num_links);
  for (auto& c : caps) c = cap(rng);
  sim::IncrementalMaxMin store(caps);
  std::vector<int> route;
  int last = -1;
  for (std::size_t f = 0; f < num_flows; ++f) {
    route.clear();
    for (int k = 0; k < 4; ++k) route.push_back(link(rng));
    last = store.AddFlow(route, 1e8);
  }
  for (auto _ : state) {
    store.RemoveFlow(last);
    last = store.AddFlow(route, 1e8);
    benchmark::DoNotOptimize(store.Rates());
  }
}
BENCHMARK(BM_MaxMinDirtySolve)->Arg(100)->Arg(1000)->Arg(5000);

void BM_MessageCodec(benchmark::State& state) {
  proto::GetPDistancesResp msg;
  msg.from = 7;
  msg.version = 42;
  msg.distances.assign(static_cast<std::size_t>(state.range(0)), 1.25);
  for (auto _ : state) {
    const auto bytes = proto::Encode(msg);
    benchmark::DoNotOptimize(proto::Decode(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(state.range(0)) * 8);
}
BENCHMARK(BM_MessageCodec)->Arg(52)->Arg(1024);

void BM_EmbeddingFit(benchmark::State& state) {
  const net::Graph graph = net::MakeIspB();
  const net::RoutingTable routing(graph);
  core::ITrackerConfig tcfg;
  tcfg.mode = core::PriceMode::kStatic;
  core::ITracker tracker(graph, routing, tcfg);
  tracker.SetPricesFromOspf();
  const auto view = tracker.external_view();
  core::EmbeddingConfig ecfg;
  ecfg.dimensions = static_cast<int>(state.range(0));
  ecfg.iterations = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CoordinateEmbedding::Fit(view, ecfg));
  }
}
BENCHMARK(BM_EmbeddingFit)->Arg(2)->Arg(8);

void BM_ChargingPrediction(benchmark::State& state) {
  core::ChargingPredictorConfig cfg;
  cfg.intervals_per_period = 8640;
  cfg.bootstrap_intervals = 288;
  core::VirtualCapacityEstimator est(cfg);
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> vol(0.0, 1e9);
  for (int i = 0; i < 8640; ++i) est.AddSample(vol(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.VirtualCapacity());
  }
}
BENCHMARK(BM_ChargingPrediction);

// ---- machine-readable fast-path metrics (BENCH_micro.json) ----

using Clock = std::chrono::steady_clock;

template <typename Fn>
double SecondsFor(int iters, Fn&& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void WriteMicroJson() {
  const net::Graph graph = net::MakeIspB();
  const auto n = static_cast<net::NodeId>(graph.node_count());

  const double build_sec = SecondsFor(20, [&graph] {
    net::RoutingTable rt(graph);
    benchmark::DoNotOptimize(rt);
  });
  const net::RoutingTable routing(graph);

  // Cycle through all (src, dst) pairs so the arena is swept, not one row.
  const auto sweep_pairs = [n](auto&& query) {
    for (net::NodeId s = 0; s < n; ++s) {
      for (net::NodeId d = 0; d < n; ++d) {
        if (s != d) query(s, d);
      }
    }
  };
  const int pairs = static_cast<int>(n) * (static_cast<int>(n) - 1);
  const int sweeps = 2000;
  const double view_sec = SecondsFor(sweeps, [&] {
    sweep_pairs([&routing](net::NodeId s, net::NodeId d) {
      benchmark::DoNotOptimize(routing.path_view(s, d));
    });
  });
  const double copy_sec = SecondsFor(sweeps, [&] {
    sweep_pairs([&routing](net::NodeId s, net::NodeId d) {
      benchmark::DoNotOptimize(routing.path(s, d));
    });
  });

  // p-distance: memoized steady state vs the seed behavior of recomputing
  // the full mesh per query burst (forced here by bumping the tracker
  // version with a static-mode no-op update).
  core::ITrackerConfig tcfg;
  tcfg.mode = core::PriceMode::kStatic;
  core::ITracker tracker(graph, routing, tcfg);
  tracker.SetPricesFromOspf();
  const std::vector<double> zeros(graph.link_count(), 0.0);
  const int view_iters = 400;
  const double view_uncached_sec = SecondsFor(view_iters, [&] {
    tracker.Update(zeros);  // static mode: only invalidates the memo
    benchmark::DoNotOptimize(tracker.external_view());
  });
  const double view_cached_sec = SecondsFor(view_iters, [&] {
    benchmark::DoNotOptimize(tracker.external_view());
  });
  const double pd_sec = SecondsFor(sweeps, [&] {
    sweep_pairs([&tracker](net::NodeId s, net::NodeId d) {
      benchmark::DoNotOptimize(tracker.pdistance(s, d));
    });
  });

  // Max-min: one dirty re-solve of a persistent store of 1000 four-link
  // flows over 128 links, dirtied by a stream close and open as in the
  // simulators.
  std::mt19937_64 rng(6);
  const std::size_t num_links = 128;
  std::uniform_real_distribution<double> cap(1e8, 1e10);
  std::uniform_int_distribution<int> link(0, static_cast<int>(num_links) - 1);
  std::vector<double> caps(num_links);
  for (auto& c : caps) c = cap(rng);
  sim::IncrementalMaxMin store(caps);
  std::vector<int> route;
  int last = -1;
  for (int f = 0; f < 1000; ++f) {
    route.clear();
    for (int k = 0; k < 4; ++k) route.push_back(link(rng));
    last = store.AddFlow(route, 1e8);
  }
  const int mm_iters = 2000;
  const double mm_sec = SecondsFor(mm_iters, [&] {
    store.RemoveFlow(last);
    last = store.AddFlow(route, 1e8);
    benchmark::DoNotOptimize(store.Rates());
  });

  bench::WriteBenchJson(
      "BENCH_micro.json",
      {
          {"routing_build_ispb_ms", build_sec / 20 * 1e3},
          {"path_view_ns_per_query", view_sec / (sweeps * pairs) * 1e9},
          {"path_copy_ns_per_query", copy_sec / (sweeps * pairs) * 1e9},
          {"pdistance_memoized_ns_per_query", pd_sec / (sweeps * pairs) * 1e9},
          {"external_view_recompute_ns", view_uncached_sec / view_iters * 1e9},
          {"external_view_memoized_ns", view_cached_sec / view_iters * 1e9},
          {"external_view_memoization_speedup", view_uncached_sec / view_cached_sec},
          {"maxmin_1000flows_ns_per_round", mm_sec / mm_iters * 1e9},
      });
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteMicroJson();
  return 0;
}
