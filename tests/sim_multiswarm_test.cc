// Sharded multi-swarm runner: same jobs + same seeds must merge to
// bit-identical results regardless of worker thread count, the
// in-simulator incremental max-min must match sampled full solves bitwise,
// and a whole swarm family must reproduce its recorded output digests.
#include "sim/swarm_shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>

#include "net/topology.h"
#include "sim/peer_buckets.h"
#include "sim/workload.h"

namespace p4p::sim {
namespace {

class ShardRandomSelector final : public PeerSelector {
 public:
  std::vector<PeerId> SelectFromBuckets(const PeerInfo& client, const PeerBuckets& swarm,
                                        int m, std::mt19937_64& rng) override {
    std::vector<PeerId> pool;
    for (const auto& bucket : swarm.buckets()) {
      for (const auto& c : bucket.peers) {
        if (c.id != client.id) pool.push_back(c.id);
      }
    }
    std::shuffle(pool.begin(), pool.end(), rng);
    if (static_cast<int>(pool.size()) > m) pool.resize(static_cast<std::size_t>(m));
    return pool;
  }
  std::string name() const override { return "ShardRandom"; }
};

std::vector<SwarmJob> MakeJobs(const net::Graph& graph) {
  std::vector<SwarmJob> jobs;
  const int sizes[] = {18, 9, 25, 6};
  for (int j = 0; j < 4; ++j) {
    std::mt19937_64 rng(100 + static_cast<std::uint64_t>(j));
    PopulationConfig pop;
    pop.num_peers = sizes[j];
    for (net::NodeId n = 0; n < static_cast<net::NodeId>(graph.node_count()); ++n) {
      pop.pops.push_back(n);
    }
    pop.join_window = 40.0;
    SwarmJob job;
    job.peers = MakePopulation(pop, rng);
    if (j == 2) {
      // One churny swarm: a third of the leechers leave mid-download.
      for (std::size_t i = 0; i < job.peers.size(); i += 3) {
        job.peers[i].leave_time = job.peers[i].join_time + 120.0;
      }
    }
    PeerSpec seed_peer;
    seed_peer.node = 0;
    seed_peer.as_number = 1;
    seed_peer.up_bps = 100e6;
    seed_peer.down_bps = 100e6;
    seed_peer.seed = true;
    job.peers.push_back(seed_peer);
    job.config.file_bytes = 2.0 * 1024 * 1024;
    job.config.block_bytes = 256.0 * 1024;
    job.config.horizon = 4000.0;
    job.config.rng_seed = 77 + static_cast<std::uint64_t>(j);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Asserts every deterministic field matches exactly. Wall-clock
/// instrumentation (the *_ns fields, wall_seconds) is explicitly excluded.
void ExpectBitIdentical(const BitTorrentResult& a, const BitTorrentResult& b) {
  ASSERT_EQ(a.completion_times.size(), b.completion_times.size());
  for (std::size_t i = 0; i < a.completion_times.size(); ++i) {
    EXPECT_EQ(a.completion_times[i], b.completion_times[i]);
  }
  ASSERT_EQ(a.per_peer_completion.size(), b.per_peer_completion.size());
  for (std::size_t i = 0; i < a.per_peer_completion.size(); ++i) {
    EXPECT_EQ(a.per_peer_completion[i], b.per_peer_completion[i]);
  }
  EXPECT_EQ(a.completed_fraction, b.completed_fraction);
  ASSERT_EQ(a.link_bytes.size(), b.link_bytes.size());
  for (std::size_t l = 0; l < a.link_bytes.size(); ++l) {
    EXPECT_EQ(a.link_bytes[l], b.link_bytes[l]);
  }
  EXPECT_EQ(a.sample_times, b.sample_times);
  EXPECT_EQ(a.pop_traffic, b.pop_traffic);
  EXPECT_EQ(a.interval_volumes, b.interval_volumes);
  EXPECT_EQ(a.byte_hops, b.byte_hops);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.maxmin_full_samples, b.maxmin_full_samples);
  EXPECT_EQ(a.maxmin_parity_mismatches, b.maxmin_parity_mismatches);
  EXPECT_EQ(a.maxmin_dirty_steps, b.maxmin_dirty_steps);
}

TEST(MultiSwarm, ThreadCountDoesNotChangeResults) {
  const auto graph = net::MakeAbilene();
  const net::RoutingTable routing(graph);
  const auto jobs = MakeJobs(graph);
  const auto factory = [](std::size_t) -> std::unique_ptr<PeerSelector> {
    return std::make_unique<ShardRandomSelector>();
  };
  const auto r1 = RunSwarms(graph, routing, jobs, factory, 1);
  const auto r2 = RunSwarms(graph, routing, jobs, factory, 2);
  const auto r4 = RunSwarms(graph, routing, jobs, factory, 4);
  ASSERT_EQ(r1.swarms.size(), jobs.size());
  ASSERT_EQ(r2.swarms.size(), jobs.size());
  ASSERT_EQ(r4.swarms.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ExpectBitIdentical(r1.swarms[j], r2.swarms[j]);
    ExpectBitIdentical(r1.swarms[j], r4.swarms[j]);
  }
  EXPECT_GT(r1.total_bytes(), 0.0);
  EXPECT_EQ(r1.total_rounds(), r4.total_rounds());
}

TEST(MultiSwarm, ShardMatchesDirectRun) {
  const auto graph = net::MakeAbilene();
  const net::RoutingTable routing(graph);
  const auto jobs = MakeJobs(graph);
  const auto factory = [](std::size_t) -> std::unique_ptr<PeerSelector> {
    return std::make_unique<ShardRandomSelector>();
  };
  const auto sharded = RunSwarms(graph, routing, jobs, factory, 3);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    BitTorrentSimulator sim(graph, routing, jobs[j].config);
    ShardRandomSelector selector;
    const auto direct = sim.Run(jobs[j].peers, selector);
    ExpectBitIdentical(direct, sharded.swarms[j]);
  }
}

TEST(MultiSwarm, IncrementalMaxMinMatchesFullSolveInsideSwarm) {
  // Drive a real swarm with periodic full-solve parity checks: every sampled
  // step the incremental rates must equal a from-scratch solve bitwise.
  const auto graph = net::MakeAbilene();
  const net::RoutingTable routing(graph);
  auto jobs = MakeJobs(graph);
  for (auto& job : jobs) job.config.maxmin_full_sample_every = 3;
  const auto factory = [](std::size_t) -> std::unique_ptr<PeerSelector> {
    return std::make_unique<ShardRandomSelector>();
  };
  const auto res = RunSwarms(graph, routing, jobs, factory, 2);
  for (const auto& r : res.swarms) {
    EXPECT_GT(r.maxmin_full_samples, 0);
    EXPECT_EQ(r.maxmin_parity_mismatches, 0);
    EXPECT_LE(r.maxmin_dirty_steps, r.rounds);
    EXPECT_GT(r.rounds, 0);
  }
}

// Digests of a 48-swarm RunSwarms family, recorded before the max-min
// engine gained its flow-on-link index and slack-link screen. Any change to
// a rate, a byte count or a step count in any swarm changes the digest, so
// the engine's bit-identity is checked on whole simulations, not only on
// isolated solves. Three variants cover the engine's inputs: plain
// access-link contention, 64 KiB receive-window rate caps (virtual cap
// links), and a time-varying background that moves every backbone capacity
// on every step. A fourth, recorded before stream opening became
// event-driven, has every incomplete peer drop and re-request neighbors
// every 25 s under a two-stream download cap, so refresh drops cancel
// streams and full downloaders turn unchoked pairs away.
enum class Variant { kPlain, kWindowCapped, kBackground, kNeighborRefresh };

/// 48 swarms of Zipf-like sizes (66 peers down to 3), every fourth one
/// churning, three in four on cable access and the rest on campus.
std::vector<SwarmJob> MakeFamily(const net::Graph& graph, std::uint64_t seed,
                                 Variant variant) {
  std::vector<SwarmJob> jobs;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  for (int j = 0; j < 48; ++j) {
    PopulationConfig pop;
    pop.num_peers = 64 / (j + 1) + 2;
    for (net::NodeId n = 0; n < static_cast<net::NodeId>(graph.node_count()); ++n) {
      pop.pops.push_back(n);
    }
    pop.as_number = j % 4 + 1;
    pop.access = j % 4 == 3 ? AccessClass::kCampus : AccessClass::kCable;
    pop.join_window = 60.0;
    SwarmJob job;
    job.peers = MakePopulation(pop, rng);
    if (j % 4 == 1) {
      for (std::size_t i = 0; i < job.peers.size(); i += 3) {
        job.peers[i].leave_time = job.peers[i].join_time + 150.0;
      }
    }
    PeerSpec s;
    s.node = static_cast<net::NodeId>(rng() % graph.node_count());
    s.as_number = pop.as_number;
    s.up_bps = s.down_bps = 20e6;
    s.seed = true;
    job.peers.push_back(s);
    job.config.file_bytes = 8.0 * 1024 * 1024;
    job.config.block_bytes = 256.0 * 1024;
    job.config.rechoke_interval = 20.0;
    job.config.horizon = 3000.0;
    job.config.rng_seed = rng();
    if (variant == Variant::kWindowCapped) job.config.tcp_window_bytes = 64.0 * 1024;
    if (variant == Variant::kNeighborRefresh) {
      job.config.selector_refresh_interval = 25.0;
      job.config.max_parallel_downloads = 2;
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Vec(const std::vector<double>& v) {
    U64(v.size());
    for (double x : v) F64(x);
  }
  void Mat(const std::vector<std::vector<double>>& m) {
    U64(m.size());
    for (const auto& row : m) Vec(row);
  }
};

std::uint64_t FamilyDigest(Variant variant) {
  const auto graph = net::MakeAbilene();
  const net::RoutingTable routing(graph);
  const auto factory = [](std::size_t) -> std::unique_ptr<PeerSelector> {
    return std::make_unique<ShardRandomSelector>();
  };
  // Leaves 0.2-0.6% of each graph link free, so backbone links bind
  // against campus peers and the free capacity moves every step.
  BitTorrentSimulator::BackgroundFn background;
  if (variant == Variant::kBackground) {
    background = [&graph](net::LinkId l, double t) {
      const double cap = graph.link(l).capacity_bps;
      return cap * (0.996 - 0.002 * std::sin(0.013 * t + static_cast<double>(l)));
    };
  }
  Fnv1a d;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto jobs = MakeFamily(graph, seed, variant);
    const auto res = RunSwarms(graph, routing, jobs, factory, 2, background);
    for (const auto& r : res.swarms) {
      d.U64(static_cast<std::uint64_t>(r.rounds));
      d.U64(static_cast<std::uint64_t>(r.maxmin_dirty_steps));
      d.F64(r.total_bytes);
      d.F64(r.byte_hops);
      d.Vec(r.link_bytes);
      d.Vec(r.completion_times);
      d.Mat(r.pop_traffic);
      d.Mat(r.link_utilization);
      d.Mat(r.interval_volumes);
    }
  }
  return d.h;
}

TEST(SwarmOutputDigest, Plain) {
  EXPECT_EQ(FamilyDigest(Variant::kPlain), 0x36df9c24898bdaf1ULL);
}

TEST(SwarmOutputDigest, WindowCapped) {
  EXPECT_EQ(FamilyDigest(Variant::kWindowCapped), 0x5d5d1c6f7d78d679ULL);
}

TEST(SwarmOutputDigest, TimeVaryingBackground) {
  EXPECT_EQ(FamilyDigest(Variant::kBackground), 0xe32c7ac82c2edd90ULL);
}

TEST(SwarmOutputDigest, NeighborRefresh) {
  EXPECT_EQ(FamilyDigest(Variant::kNeighborRefresh), 0x80f5bd270b6bd10fULL);
}

}  // namespace
}  // namespace p4p::sim
