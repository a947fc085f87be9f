#include "sim/swarm_shard.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

namespace p4p::sim {

double MultiSwarmResult::total_bytes() const {
  double sum = 0.0;
  for (const auto& r : swarms) sum += r.total_bytes;
  return sum;
}

int MultiSwarmResult::total_rounds() const {
  int sum = 0;
  for (const auto& r : swarms) sum += r.rounds;
  return sum;
}

MultiSwarmResult RunSwarms(const net::Graph& graph, const net::RoutingTable& routing,
                           std::span<const SwarmJob> jobs,
                           const SelectorFactory& make_selector, int num_threads,
                           const BitTorrentSimulator::BackgroundFn& background) {
  MultiSwarmResult out;
  out.swarms.resize(jobs.size());
  const auto t0 = std::chrono::steady_clock::now();

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  const int workers = std::max(1, num_threads);
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        BitTorrentSimulator sim(graph, routing, jobs[i].config);
        if (background) sim.set_background(background);
        auto selector = make_selector(i);
        out.swarms[i] = sim.Run(jobs[i].peers, *selector);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

}  // namespace p4p::sim
