// fleet: the BitTorrent simulator with P4P selection on ISP-B. A Zipf
// family of small and medium swarms runs through RunSwarms with static
// prices: choke, rarest-first, streams, accounting and both max-min paths
// (dense and incremental) on one thread, and in the traced run swarm-level
// sharding on min(4, nproc) threads.
#include <algorithm>
#include <cmath>
#include <mutex>

#include "core/itracker.h"
#include "core/selectors.h"
#include "net/routing.h"
#include "net/synth.h"
#include "sim/swarm_shard.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace p4p;

constexpr int kAses = 4;
/// Set-up builds the fleet and runs one warm-up batch. Without the batch it
/// took about a millisecond, and the median of 25 repeats still spread by a
/// third from run to run.
constexpr int kSetupRepeats = 3;

// fleet
constexpr int kFleetSwarms = 128;
constexpr double kFleetAlpha = 1.2;
constexpr int kFleetMaxSwarm = 600;
constexpr double kFleetHorizon = 1500.0;
/// Swarm jobs per latency group: the tail of 1000 is p99, with 10 beyond.
constexpr std::size_t kJobGroup = 1000;

struct Network {
  std::unique_ptr<net::Graph> graph;
  std::unique_ptr<net::RoutingTable> routing;
};

Network MakeNetwork() {
  Network n;
  n.graph = std::make_unique<net::Graph>(net::MakeIspB());
  n.routing = std::make_unique<net::RoutingTable>(*n.graph);
  return n;
}

std::unique_ptr<core::P4PSelector> MakeP4PSelector(const core::ITracker& tracker) {
  auto selector = std::make_unique<core::P4PSelector>();
  for (int as = 1; as <= kAses; ++as) selector->RegisterITracker(as, &tracker);
  return selector;
}

/// Relative difference within 1e-9.
bool Close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// The accounting identities every simulated swarm must satisfy.
void CheckAccounting(const sim::BitTorrentResult& r, WorkloadResult& result) {
  double link_sum = 0.0;
  for (double b : r.link_bytes) link_sum += b;
  double pop_sum = 0.0;
  for (const auto& row : r.pop_traffic) {
    for (double b : row) pop_sum += b;
  }
  result.Check(Close(link_sum, r.byte_hops), "sum of link_bytes differs from byte_hops");
  result.Check(Close(pop_sum, r.total_bytes), "sum of pop_traffic differs from total_bytes");
  result.Check(r.rounds > 0 && r.total_bytes > 0.0, "a swarm moved no data");
  result.Check(r.maxmin_parity_mismatches == 0, "max-min parity mismatch");
}

/// True when two runs of the same swarm produced the same outputs
/// (wall-clock instrumentation aside).
bool SameOutputs(const sim::BitTorrentResult& a, const sim::BitTorrentResult& b) {
  return a.rounds == b.rounds && a.total_bytes == b.total_bytes &&
         a.byte_hops == b.byte_hops && a.link_bytes == b.link_bytes &&
         a.completion_times == b.completion_times &&
         a.maxmin_dense_solves == b.maxmin_dense_solves &&
         a.maxmin_incremental_solves == b.maxmin_incremental_solves;
}

/// Max-min counters summed over simulated swarms.
struct MaxMinTally {
  double incremental_ns = 0.0, gather_ns = 0.0, solve_ns = 0.0;
  double rounds = 0.0, dirty_steps = 0.0;
  double dense = 0.0, incremental = 0.0;

  void Add(const sim::BitTorrentResult& r) {
    incremental_ns += r.maxmin_incremental_ns;
    gather_ns += r.maxmin_gather_ns;
    solve_ns += r.maxmin_solve_ns;
    rounds += r.rounds;
    dirty_steps += r.maxmin_dirty_steps;
    dense += static_cast<double>(r.maxmin_dense_solves);
    incremental += static_cast<double>(r.maxmin_incremental_solves);
  }

  /// Solve counts are per fleet batch, so they do not depend on how many
  /// batches fit in a run.
  void Report(WorkloadResult& result, int batches) const {
    const double steps = std::max(1.0, rounds);
    const double sets = std::max(1, batches);
    result.Add("maxmin.ns_per_step", "ns", incremental_ns / steps);
    result.Add("maxmin.gather_ns", "ns", gather_ns / steps);
    result.Add("maxmin.solve_ns", "ns", solve_ns / steps);
    result.Add("maxmin.dense_solves", "count", dense / sets);
    result.Add("maxmin.incremental_solves", "count", incremental / sets);
    result.Add("maxmin.dirty_step_frac", "ratio", dirty_steps / steps);
  }
};

Clock::time_point Deadline(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

// --- fleet --------------------------------------------------------------------

std::vector<sim::SwarmJob> MakeFleet(const net::Graph& graph, std::uint64_t seed) {
  const auto by_size = ZipfQuantileSizes(kFleetSwarms, kFleetAlpha, kFleetMaxSwarm);
  std::vector<sim::SwarmJob> jobs;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  for (int j = 0; j < kFleetSwarms; ++j) {
    // A fixed stride permutation: large and small swarms interleave in the
    // order the runner claims them, the same for every seed.
    const int size = by_size[static_cast<std::size_t>((j * 7) % kFleetSwarms)];
    sim::PopulationConfig pop;
    pop.num_peers = size;
    for (net::NodeId n = 0; n < static_cast<net::NodeId>(graph.node_count()); ++n) {
      pop.pops.push_back(n);
    }
    pop.as_number = j % kAses + 1;
    pop.access = sim::AccessClass::kCable;
    pop.join_window = 60.0;
    sim::SwarmJob job;
    job.peers = sim::MakePopulation(pop, rng);
    if (j % 4 == 1) {
      // A quarter of the swarms churn: every third leecher leaves early.
      for (std::size_t i = 0; i < job.peers.size(); i += 3) {
        job.peers[i].leave_time = job.peers[i].join_time + 180.0;
      }
    }
    sim::PeerSpec s;
    s.node = static_cast<net::NodeId>(rng() % graph.node_count());
    s.as_number = pop.as_number;
    s.up_bps = s.down_bps = 20e6;
    s.seed = true;
    job.peers.push_back(s);
    job.config.file_bytes = 8.0 * 1024 * 1024;
    job.config.block_bytes = 512.0 * 1024;
    job.config.rechoke_interval = 40.0;
    job.config.horizon = kFleetHorizon;
    job.config.rng_seed = rng();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct JobWall {
  Clock::time_point done;
  std::size_t job = 0;
  double us = 0.0;
};

struct FleetBatch {
  sim::MultiSwarmResult result;
  std::vector<JobWall> jobs;  // in completion order
  double peer_steps = 0.0;
};

FleetBatch RunFleetBatch(const Network& net, const core::ITracker& tracker,
                         const std::vector<sim::SwarmJob>& jobs, int threads,
                         LayerTimer* select) {
  FleetBatch batch;
  std::mutex mu;
  const auto factory = [&](std::size_t job) -> std::unique_ptr<sim::PeerSelector> {
    auto s = std::make_unique<TimedSelector>(MakeP4PSelector(tracker), [&, job](double seconds) {
      std::lock_guard<std::mutex> lock(mu);
      batch.jobs.push_back({Clock::now(), job, seconds * 1e6});
    });
    s->set_timer(select);
    return s;
  };
  batch.result = sim::RunSwarms(*net.graph, *net.routing, jobs, factory, threads);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    batch.peer_steps += static_cast<double>(batch.result.swarms[j].rounds) *
                        static_cast<double>(jobs[j].peers.size());
  }
  return batch;
}

/// Batches of the fleet: the rate is a median over batches, the per-step
/// wall time of jobs a median over groups of kJobGroup jobs. Each batch is
/// checked as it
/// finishes and only the first batch's outputs are kept, so memory does not
/// grow with the number of batches that fit in a run.
struct FleetPhase {
  std::vector<sim::BitTorrentResult> first;
  std::vector<double> rates, walls;
  /// Each job's wall time divided by its fluid steps, in us.
  GroupedRecorder step_us{Clock::now(), kJobGroup};
  double job_wall_ns = 0.0;
  MaxMinTally maxmin;

  void Add(FleetBatch batch, WorkloadResult& result) {
    if (first.empty()) first = batch.result.swarms;
    for (std::size_t j = 0; j < batch.result.swarms.size(); ++j) {
      const auto& r = batch.result.swarms[j];
      ++result.attempted;
      CheckAccounting(r, result);
      const bool same = SameOutputs(r, first[j]);
      result.Check(same, "repeated fleet batches disagree");
      if (!same) ++result.failed;
      maxmin.Add(r);
    }
    rates.push_back(batch.peer_steps / batch.result.wall_seconds);
    walls.push_back(batch.result.wall_seconds);
    for (const auto& job : batch.jobs) {
      const auto steps = std::max(1, batch.result.swarms[job.job].rounds);
      step_us.Add(job.done, job.us / steps);
      job_wall_ns += job.us * 1e3;
    }
  }
  std::size_t batches() const { return rates.size(); }
  double rate_per_s() const { return Median(rates); }
};

std::unique_ptr<core::ITracker> MakeStaticTracker(const Network& net) {
  core::ITrackerConfig tcfg;
  tcfg.mode = core::PriceMode::kStatic;
  auto tracker = std::make_unique<core::ITracker>(*net.graph, *net.routing, tcfg);
  tracker->SetPricesFromOspf();
  return tracker;
}

}  // namespace

WorkloadResult RunFleet(const RunOptions& options) {
  WorkloadResult result;
  // The untraced run shards nothing: on 4 threads every job ran 3-4x
  // slower than on one, by an amount that changed from run to run. The
  // traced run measures the sharding at `threads`.
  const int threads = GeneratorThreads();
  Network net;
  std::unique_ptr<core::ITracker> tracker;
  std::vector<sim::SwarmJob> jobs;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    tracker.reset();
    net = MakeNetwork();
    tracker = MakeStaticTracker(net);
    jobs = MakeFleet(*net.graph, options.seed);
    RunFleetBatch(net, *tracker, jobs, 1, nullptr);
  });
  std::size_t peers = 0;
  for (const auto& j : jobs) peers += j.peers.size();
  result.Note(Format("params: ISP-B, %d swarms, Zipf(%.1f) sizes up to %d (%zu peers), "
                     "8 MiB files, horizon %g s, static OSPF prices, P4P selection, "
                     "RunSwarms on 1 thread (traced run: also %d threads)",
                     kFleetSwarms, kFleetAlpha, kFleetMaxSwarm, peers, kFleetHorizon, threads));
  if (!options.trace) {
    FleetPhase phase;
    const auto stop = Deadline(options.seconds);
    // At least one full group of job times.
    while (Clock::now() < stop || phase.step_us.groups() < 1) {
      phase.Add(RunFleetBatch(net, *tracker, jobs, 1, nullptr), result);
    }
    const auto step = phase.step_us.Summary();
    result.Add("setup_s", "s", setup_s);
    result.Add("work_per_s", "1/s", phase.rate_per_s());
    result.Add("op_p50_us", "us", step.p50);
    result.Add("op_tail_us", "us", step.tail);
    result.Note(Format("work_per_s = simulated peers x fluid steps per wall second, median "
                       "of %zu fleet batches",
                       phase.batches()));
    result.Note(Format("op = wall time of one fluid step of a swarm job (its wall time / its "
                       "steps): p50 and p%g over jobs, each the median over %d groups of %zu "
                       "jobs",
                       step.tail_percentile, step.windows, step.samples_per_window));
    return result;
  }
  // Traced run: N-thread batches for a quarter of the run (wall-clock
  // parallel efficiency and the 1-vs-N identity check), then untraced and
  // traced 1-thread batches alternating.
  FleetPhase wide, plain, traced;
  LayerTimer select;
  const auto wide_stop = Deadline(options.seconds / 4.0);
  do {
    wide.Add(RunFleetBatch(net, *tracker, jobs, threads, nullptr), result);
  } while (Clock::now() < wide_stop);
  const auto stop = Deadline(options.seconds * 3.0 / 4.0);
  do {
    plain.Add(RunFleetBatch(net, *tracker, jobs, 1, nullptr), result);
    traced.Add(RunFleetBatch(net, *tracker, jobs, 1, &select), result);
  } while (Clock::now() < stop);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    result.Check(SameOutputs(plain.first[j], wide.first[j]),
                 "fleet results differ between 1 and N threads");
  }
  traced.maxmin.Report(result, static_cast<int>(traced.batches()));
  result.Add("selectors.select_ns", "ns", select.mean_ns());
  result.Add("sim.unattributed_frac", "ratio",
             1.0 - (traced.maxmin.incremental_ns + select.total_ns()) / traced.job_wall_ns);
  const double wall_1 = Median(plain.walls);
  const double wall_n = Median(wide.walls);
  result.Add("swarm_shard.parallel_eff", "ratio", wall_1 / (threads * wall_n));
  result.Add("bench.trace_overhead_frac", "ratio",
             (plain.rate_per_s() - traced.rate_per_s()) / plain.rate_per_s());
  result.Note(Format("RunSwarms wall: median %.3f s on 1 thread, median %.3f s on %d threads",
                     wall_1, wall_n, threads));
  return result;
}

}  // namespace perfbench
