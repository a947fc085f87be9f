// The names and units of every metric the benchmark reports, and the
// workload list. BENCHMARK.json at the repository root must agree with
// these (tests/check_names.py checks it).
#include <algorithm>
#include <cmath>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ok_frac", "ratio"},
    {"peak_rss_mb", "MB"},
    {"work_per_s", "1/s"},
    {"op_p50_us", "us"},
    {"op_tail_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"apptracker.announce_ns", "ns"},
    {"apptracker.depart_ns", "ns"},
    {"apptracker.self_ns", "ns"},
    {"apptracker.thread_scaling_x", "x"},
    {"selectors.select_ns", "ns"},
    {"selectors.fill_ratio", "ratio"},
    {"telemetry.flush_ns", "ns"},
    {"telemetry.ingest_ns", "ns"},
    {"control.tick_ns", "ns"},
    {"federation.publish_ns", "ns"},
    {"federation.install_ns", "ns"},
    {"federation.bytes_per_version", "B"},
    {"federation.delta_frac", "ratio"},
    {"loop.query_p50_us", "us"},
    {"loop.query_tail_us", "us"},
    {"loop.confirm_ns", "ns"},
    {"loop.unattributed_frac", "ratio"},
    {"loop.announce_p50_us", "us"},
    {"loop.announce_tail_us", "us"},
    {"service.handle_ns", "ns"},
    {"transport.overhead_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"client.full_fetch_frac", "ratio"},
    {"bench.gen_late_tail_us", "us"},
    {"maxmin.ns_per_step", "ns"},
    {"maxmin.gather_ns", "ns"},
    {"maxmin.solve_ns", "ns"},
    {"maxmin.dense_solves", "count"},
    {"maxmin.incremental_solves", "count"},
    {"maxmin.dirty_step_frac", "ratio"},
    {"sim.unattributed_frac", "ratio"},
    {"swarm_shard.parallel_eff", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
};

constexpr const char* kWorkloads[] = {"announce", "loop", "fleet"};

}  // namespace

std::span<const MetricSpec> EndToEndMetrics() { return kEndToEnd; }
std::span<const MetricSpec> PerLayerMetrics() { return kPerLayer; }
std::span<const char* const> WorkloadNames() { return kWorkloads; }

std::vector<int> ZipfQuantileSizes(int count, double alpha, int max_size) {
  std::vector<double> cdf(static_cast<std::size_t>(max_size));
  double total = 0.0;
  for (int k = 1; k <= max_size; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), alpha);
    cdf[static_cast<std::size_t>(k - 1)] = total;
  }
  std::vector<int> sizes;
  for (int i = count - 1; i >= 0; --i) {
    const double q = (static_cast<double>(i) + 0.5) / count * total;
    sizes.push_back(static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), q) -
                                     cdf.begin()) +
                    1);
  }
  return sizes;
}

}  // namespace perfbench
