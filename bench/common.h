// Shared helpers for the per-figure benchmark harnesses.
//
// Every bench binary reproduces one table or figure of the paper: it builds
// the topology, synthesizes the workload, runs the three selection policies
// (Native / delay-Localized / P4P) where applicable, prints the same
// rows/series the paper reports, and finishes with a PAPER-vs-MEASURED
// block so EXPERIMENTS.md can be filled mechanically.
//
// Set P4P_BENCH_SCALE (e.g. 0.25) to shrink workloads for smoke runs.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/itracker.h"
#include "core/selectors.h"
#include "net/routing.h"
#include "net/synth.h"
#include "net/topology.h"
#include "sim/bittorrent.h"
#include "sim/stats.h"
#include "sim/workload.h"

namespace p4p::bench {

/// Workload scale factor from the environment (default 1.0, clamped to
/// [0.05, 4.0]).
double ScaleFactor();
int Scaled(int n);

void PrintHeader(const std::string& title);
void PrintSubHeader(const std::string& title);

/// One PAPER-vs-MEASURED line; `ok` marks whether the measured shape agrees.
struct Comparison {
  std::string metric;
  std::string paper;
  std::string measured;
  bool ok = true;
};
void PrintComparisons(const std::vector<Comparison>& rows);

/// Prints an N-point summary of a sample CDF (the paper's CDF figures).
void PrintCdf(const std::string& label, std::span<const double> samples, int points = 10);

std::string Fmt(const char* format, ...);

/// Writes a flat machine-readable metrics object ({"name": value, ...}) so
/// successive PRs can regress against a perf trajectory (BENCH_*.json).
/// Non-finite values are serialized as null. Honors P4P_BENCH_JSON_DIR as
/// the output directory (default: current working directory).
void WriteBenchJson(const std::string& filename,
                    const std::vector<std::pair<std::string, double>>& metrics);

/// Like WriteBenchJson, but preserves metrics already present in the file
/// (new keys win on conflict) — lets several bench binaries contribute to
/// one trajectory file, e.g. bench_swarm_scale merging into
/// BENCH_scalability.json.
void MergeBenchJson(const std::string& filename,
                    const std::vector<std::pair<std::string, double>>& metrics);

/// A PlanetLab-style swarm: n campus-access leechers placed over the given
/// PoPs (optionally weighted) plus one seed.
struct SwarmSpec {
  int leechers = 160;
  std::vector<net::NodeId> pops;
  std::vector<double> weights;
  net::NodeId seed_node = 0;
  double seed_up_bps = 800e3;  // the paper's 100 KBps seed
  double join_window = 300.0;
  std::int32_t as_number = 1;
  std::uint64_t rng_seed = 1;
};
std::vector<sim::PeerSpec> MakeSwarm(const SwarmSpec& spec);

/// Synthetic diurnal background traffic: every link carries
/// base + amp * sin^2(pi * t / period) of its capacity, plus a fixed
/// per-link phase. Mirrors the Abilene NOC traces the paper uses.
sim::BitTorrentSimulator::BackgroundFn DiurnalBackground(const net::Graph& graph,
                                                         double base_frac,
                                                         double amp_frac,
                                                         double period_sec = 86400.0);

/// Result of one (selector, swarm) run plus identifying label.
struct RunResult {
  std::string selector;
  sim::BitTorrentResult result;
};

/// Runs Native, Localized and P4P over the same workload. The P4P tracker
/// is updated live through the epoch callback, and the swarm refreshes
/// neighbors so dynamic prices take effect (the paper's Fig. 6 setup).
struct ThreeWayConfig {
  sim::BitTorrentConfig bt;
  /// Built per-run; receives the tracker to configure (protect links,
  /// declare interdomain links, ...). May be null.
  std::function<void(core::ITracker&)> setup_tracker;
  core::ITrackerConfig tracker_config;
  bool dynamic_updates = true;
};
std::vector<RunResult> RunThreeWay(const net::Graph& graph,
                                   const net::RoutingTable& routing,
                                   std::span<const sim::PeerSpec> peers,
                                   const ThreeWayConfig& config);

}  // namespace p4p::bench
