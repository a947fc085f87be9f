// The benchmark's workloads and the catalog of metrics they report.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/bittorrent.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (`--trace 0`).
std::span<const MetricSpec> EndToEndMetrics();
/// Printed by every traced run (`--trace 1`); a layer the workload leaves
/// idle reads 0.
std::span<const MetricSpec> PerLayerMetrics();
/// Workload names, in the order the benchmark lists them.
std::span<const char* const> WorkloadNames();

/// Each workload builds its inputs from `options.seed`, measures for
/// `options.seconds`, checks its outputs, and returns either the
/// end-to-end metrics other than peak_rss_mb and ok_frac (untraced) or the
/// per-layer metrics of the layers it exercises (traced).
WorkloadResult RunAnnounce(const RunOptions& options);
WorkloadResult RunLoop(const RunOptions& options);
WorkloadResult RunFleet(const RunOptions& options);

/// Forwards both selection entry points to an inner selector, timing them
/// into `timer` when one is set.
/// Tracing spans live here, in the benchmark, around calls into the
/// selectors layer.
class TimedSelector final : public p4p::sim::PeerSelector {
 public:
  /// `on_retire`, when set, receives the selector's lifetime in seconds
  /// when it is destroyed (RunSwarms builds one selector per swarm job, so
  /// this is the job's wall time).
  explicit TimedSelector(std::unique_ptr<p4p::sim::PeerSelector> inner,
                         std::function<void(double)> on_retire = {})
      : inner_(std::move(inner)), on_retire_(std::move(on_retire)) {}
  ~TimedSelector() override {
    if (on_retire_) on_retire_(SecondsBetween(born_, Clock::now()));
  }
  TimedSelector(const TimedSelector&) = delete;
  TimedSelector& operator=(const TimedSelector&) = delete;

  /// Set before the threads that select start; null stops timing.
  void set_timer(LayerTimer* timer) { timer_ = timer; }

  std::vector<p4p::sim::PeerId> SelectPeers(
      const p4p::sim::PeerInfo& client,
      std::span<const p4p::sim::PeerInfo> candidates, int m,
      std::mt19937_64& rng) override {
    return Timed(timer_, [&] { return inner_->SelectPeers(client, candidates, m, rng); });
  }
  std::vector<p4p::sim::PeerId> SelectFromBuckets(const p4p::sim::PeerInfo& client,
                                                  const p4p::sim::PeerBuckets& swarm,
                                                  int m, std::mt19937_64& rng) override {
    return Timed(timer_, [&] { return inner_->SelectFromBuckets(client, swarm, m, rng); });
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<p4p::sim::PeerSelector> inner_;
  std::function<void(double)> on_retire_;
  Clock::time_point born_ = Clock::now();
  LayerTimer* timer_ = nullptr;
};

/// Swarm sizes at evenly spaced quantiles of a Zipf(alpha) law on
/// [1, max_size], largest first: the same heavy-tailed family for every
/// seed, so seeds change placement and order of operations, not the amount
/// of work.
std::vector<int> ZipfQuantileSizes(int count, double alpha, int max_size);

}  // namespace perfbench
