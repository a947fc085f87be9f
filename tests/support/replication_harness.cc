#include "support/replication_harness.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include <utility>

#include "core/itracker.h"
#include "net/topology.h"
#include "proto/directory.h"
#include "proto/failover.h"
#include "proto/federation.h"
#include "proto/telemetry.h"
#include "support/fault_injection.h"
#include "support/frame_rows.h"

namespace p4p::testsupport {
namespace {

/// 64-bit FNV-1a fold for the replay digest.
class Digest {
 public:
  void Fold(std::uint64_t value) {
    for (int shift = 56; shift >= 0; shift -= 8) {
      Byte(static_cast<std::uint8_t>(value >> shift));
    }
  }
  void Fold(std::span<const std::uint8_t> bytes) {
    Fold(static_cast<std::uint64_t>(bytes.size()));
    for (const auto b : bytes) Byte(b);
  }
  std::uint64_t value() const { return hash_; }

 private:
  void Byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 1099511628211ULL;
  }
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Byte-for-byte frame-set comparison; every differing field becomes one
/// violation so a conformance failure names exactly what diverged.
void CompareFrameSets(const proto::SnapshotFrameSet& got,
                      const proto::SnapshotFrameSet& want, const std::string& label,
                      std::vector<std::string>& violations) {
  const auto fail = [&](const std::string& what) {
    violations.push_back(label + ": " + what);
  };
  if (got.version != want.version) fail("version mismatch");
  if (got.view_version != want.view_version) fail("view_version mismatch");
  if (got.num_pids != want.num_pids) fail("num_pids mismatch");
  if (got.not_modified != want.not_modified) fail("not_modified bytes differ");
  if (*got.external_view != *want.external_view) fail("external_view bytes differ");
  if (got.policy != want.policy) fail("policy bytes differ");
  if (got.row_versions.size() != want.row_versions.size()) {
    fail("row count mismatch");
    return;
  }
  const auto got_rows = RowFrames(got);
  const auto want_rows = RowFrames(want);
  for (std::size_t i = 0; i < got_rows.size(); ++i) {
    if (got_rows[i] != want_rows[i]) {
      fail("row " + std::to_string(i) + " bytes differ");
    }
    if (got.row_versions[i] != want.row_versions[i]) {
      fail("row " + std::to_string(i) + " content version differs");
    }
  }
}

}  // namespace

LossyCallChannel::LossyCallChannel(proto::Handler backend, double drop_rate,
                                   double corrupt_rate, std::uint64_t seed)
    : backend_(std::move(backend)), drop_rate_(drop_rate),
      corrupt_rate_(corrupt_rate), rng_(seed) {}

std::vector<std::uint8_t> LossyCallChannel::Call(
    std::span<const std::uint8_t> request) {
  ++calls_;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  if (u(rng_) < drop_rate_) {
    ++drops_;
    throw std::runtime_error("request lost");
  }
  std::vector<std::uint8_t> delivered(request.begin(), request.end());
  if (!delivered.empty() && u(rng_) < corrupt_rate_) {
    ++corruptions_;
    FlipBit(delivered);
  }
  bytes_ += delivered.size();
  auto response = backend_(delivered);
  if (u(rng_) < drop_rate_) {
    ++drops_;
    throw std::runtime_error("response lost");
  }
  if (!response.empty() && u(rng_) < corrupt_rate_) {
    ++corruptions_;
    FlipBit(response);
  }
  bytes_ += response.size();
  return response;
}

void LossyCallChannel::FlipBit(std::vector<std::uint8_t>& bytes) {
  std::uniform_int_distribution<std::size_t> pick(0, bytes.size() * 8 - 1);
  const std::size_t bit = pick(rng_);
  bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

ReplicationScenarioResult RunReplicationScenario(
    const ReplicationScenarioConfig& config) {
  ReplicationScenarioResult result;
  int round = -1;  // -1 = setup / post-run phases
  const auto fail = [&](const std::string& what) {
    std::ostringstream msg;
    msg << "seed=" << config.seed << " drop=" << config.drop_rate
        << " round=" << round << ": " << what;
    result.violations.push_back(msg.str());
  };

  // --- publisher side: tracker in protected-link mode (Fig. 6), so the
  // scripted loads reprice only the protected links and most versions touch
  // a handful of p-distance rows — the workload deltas exist for.
  net::Graph graph = net::MakeAbilene();
  net::RoutingTable routing(graph);
  core::ITrackerConfig tracker_config;
  tracker_config.mode = core::PriceMode::kProtectedLink;
  core::ITracker tracker(graph, routing, tracker_config);
  const std::vector<net::LinkId> protected_links = {0, 5, 9};
  for (const auto link : protected_links) {
    tracker.ProtectLink(link, core::ProtectedLinkRule{0.5, 1.0, 0.1});
  }
  proto::ITrackerService service(&tracker);

  // --- telemetry plane: a probe feeding the collector over a (possibly
  // lossy) channel; the control loop drives reprice + delta publish.
  proto::LinkLoadCollector collector(graph.link_count());
  LossyCallChannel telemetry_channel(collector.handler(),
                                     config.telemetry_drop_rate,
                                     /*corrupt_rate=*/0.0, config.seed ^ 0x7E1EULL);
  proto::LinkLoadReporter reporter(/*reporter_id=*/7, &telemetry_channel);

  // --- follower under test: delta replication over lossy channels.
  proto::ReplicatedSnapshotStore store_d;
  proto::FollowerPortalService serve_d(&store_d);
  proto::SnapshotFollower follower_d(&store_d);
  proto::SnapshotPublisher delta_pub(&service);
  delta_pub.AddFollower("delta.example", 1,
                        std::make_unique<LossyCallChannel>(
                            follower_d.replication_handler(), config.drop_rate,
                            config.corrupt_rate, config.seed ^ 0xD317AULL));
  LossyCallChannel pull_channel(delta_pub.replication_handler(), config.drop_rate,
                                config.corrupt_rate, config.seed ^ 0x9D11ULL);

  // --- oracle follower: full pushes only, clean channel — what the lossy
  // delta follower must converge to byte for byte.
  proto::ReplicatedSnapshotStore store_f;
  proto::FollowerPortalService serve_f(&store_f);
  proto::SnapshotFollower follower_f(&store_f);
  proto::PublisherOptions full_only;
  full_only.enable_delta = false;
  proto::SnapshotPublisher oracle_pub(&service, full_only);
  oracle_pub.AddFollower("oracle.example", 2,
                         std::make_unique<proto::InProcessTransport>(
                             follower_f.replication_handler()));

  proto::PDistanceControlLoop loop(&tracker, &collector, &delta_pub);

  // Beacons ride a faulty datagram link (drop/reorder/corrupt/delay).
  std::mt19937_64 beacon_rng(config.seed ^ 0xB34C04ULL);
  FaultProfile beacon_faults;
  beacon_faults.drop_rate = config.drop_rate;
  beacon_faults.reorder_rate = config.drop_rate / 2;
  beacon_faults.corrupt_rate = config.corrupt_rate;
  beacon_faults.delay_rate = 0.25;
  FaultyDatagramLink beacon_link(beacon_faults, &beacon_rng);

  // Truth map: version -> checksum of the frames published at it. Whatever
  // the follower serves must checksum-match an entry, which is exactly the
  // "complete set of one published version, never mixed" invariant.
  std::map<std::uint64_t, std::uint64_t> truth;
  Digest digest;
  std::uint64_t last_version_d = 0;
  int stale_streak = 0;

  const auto view_request = proto::Encode(proto::GetExternalViewReq{});

  for (round = 0; round < config.rounds; ++round) {
    // Scripted feed: utilization on the protected links cycles below /
    // around / above the 0.5 threshold, so prices rise some rounds, decay
    // others, and stand still when a flush was lost. A couple of
    // unprotected links report too (prices ignore them).
    for (const auto link : protected_links) {
      const double util = 0.25 + 0.45 * static_cast<double>((round + link) % 3);
      reporter.Record(link, util * graph.link(link).capacity_bps);
    }
    reporter.Record(1, 0.3 * graph.link(1).capacity_bps);
    reporter.Record(2, 0.6 * graph.link(2).capacity_bps);
    reporter.Flush();  // a lost flush keeps the batch for the next round

    if (loop.Tick()) ++result.updates;  // reprice + delta publish
    delta_pub.PublishOnce();            // same-round retry of failed pushes
    oracle_pub.PublishOnce();

    {
      const auto frames = service.ExportFrames();
      truth.emplace(frames.version, proto::FrameSetChecksum(frames));
    }

    // Oracle lockstep: a clean full-push channel never lags the tracker.
    if (store_f.version() != tracker.version()) {
      fail("oracle follower lagged a clean channel");
    }

    // Beacon gap detection + anti-entropy pull over the lossy channel.
    beacon_link.Push(delta_pub.BeaconFrame());
    beacon_link.Tick();
    while (auto datagram = beacon_link.Pop()) follower_d.HandleBeacon(*datagram);
    if (follower_d.behind()) {
      try {
        follower_d.PullOnce(pull_channel);
      } catch (const std::exception&) {
      }
    }

    // --- per-round invariants on the lossy follower ---
    const auto held = store_d.current();
    if (store_d.version() < last_version_d) fail("installed version rolled back");
    last_version_d = store_d.version();

    if (held) {
      const auto it = truth.find(held->version);
      if (it == truth.end()) {
        fail("follower holds a version the publisher never published");
      } else if (proto::FrameSetChecksum(*held) != it->second) {
        fail("held frames diverge from the published bytes (mixed set?)");
      }
    }

    const auto response = serve_d.Handle(view_request);
    const auto decoded = proto::Decode(response);
    if (!decoded.has_value()) {
      fail("follower served undecodable bytes");
    } else if (std::get_if<proto::UnavailableResp>(&*decoded) != nullptr) {
      if (held) fail("served Unavailable while holding installed frames");
    } else if (const auto* view =
                   std::get_if<proto::GetExternalViewResp>(&*decoded)) {
      if (!held) {
        fail("served a view with no installed frames");
      } else {
        if (response != *held->external_view) {
          fail("served view bytes differ from the installed frames");
        }
        if (view->version != held->view_version) {
          fail("served view version is not the installed view_version");
        }
        // The served version token earns NotModified back (the
        // content-version conditional path), and a row fetch comes from
        // the same installed set — no torn reads across frames.
        const auto conditional = proto::Decode(
            serve_d.Handle(proto::Encode(proto::GetExternalViewReq{view->version})));
        const auto* nm =
            conditional ? std::get_if<proto::NotModifiedResp>(&*conditional) : nullptr;
        if (nm == nullptr || nm->version != view->version) {
          fail("view version token did not earn NotModified");
        }
        const auto pid = static_cast<core::Pid>(round % held->row_versions.size());
        if (serve_d.Handle(proto::Encode(proto::GetPDistancesReq{pid})) !=
            proto::RowFrameFromView(held->view(), pid,
                                    held->row_versions[static_cast<std::size_t>(pid)])) {
          fail("served row bytes differ from the installed frames");
        }
      }
    } else {
      fail("unexpected response type from follower");
    }

    if (store_d.version() < tracker.version()) {
      ++stale_streak;
      result.max_staleness_rounds = std::max(result.max_staleness_rounds, stale_streak);
    } else {
      stale_streak = 0;
    }

    digest.Fold(store_d.version());
    digest.Fold(store_f.version());
    digest.Fold(response);
    digest.Fold(serve_f.Handle(view_request));
  }
  round = -1;

  // --- healing: once the channel is clean, anti-entropy converges and the
  // delta-synced store is byte-for-byte the full-push oracle's.
  proto::InProcessTransport clean_pull(delta_pub.replication_handler());
  for (int attempt = 0; attempt < 64 && store_d.version() < tracker.version();
       ++attempt) {
    follower_d.PullOnce(clean_pull);
  }
  if (store_d.version() != tracker.version()) {
    fail("anti-entropy over a clean channel did not converge");
  }

  const auto final_d = store_d.current();
  const auto final_f = store_f.current();
  if (!final_d || !final_f) {
    fail("a follower ended the scenario with no installed frames");
  } else {
    CompareFrameSets(*final_d, *final_f, "delta follower vs full-push oracle",
                     result.violations);
    CompareFrameSets(*final_d, service.ExportFrames(),
                     "delta follower vs publisher export", result.violations);
  }

  digest.Fold(store_d.version());
  result.digest = digest.value();
  result.final_version = store_d.version();
  result.delta_installs = follower_d.delta_install_count();
  result.delta_fallbacks = delta_pub.delta_fallback_count();
  result.delta_frames_sent = delta_pub.delta_frames_sent();
  result.full_frames_sent = delta_pub.full_frames_sent();
  result.delta_bytes_sent = delta_pub.delta_bytes_sent();
  result.full_bytes_sent = delta_pub.full_bytes_sent();
  return result;
}

// --- failover chaos scenarios -----------------------------------------------

namespace {

/// Non-owning Transport adapter: the coordinator's connector hands these
/// out, all forwarding to the cluster's persistent per-pair lossy channel
/// (one fault-rng stream per ordered pair, shared by every use — pushes,
/// pulls, promotion anti-entropy — so replay stays bit-identical).
class BorrowedTransport final : public proto::Transport {
 public:
  explicit BorrowedTransport(proto::Transport* inner) : inner_(inner) {}
  std::vector<std::uint8_t> Call(std::span<const std::uint8_t> request) override {
    return inner_->Call(request);
  }

 private:
  proto::Transport* inner_;
};

/// One replica process: the full portal stack plus its failover
/// coordinator. A cold restart destroys and rebuilds the whole struct —
/// listeners and beacon observers cannot be unregistered, so the process
/// boundary is the object boundary, exactly like a real restart.
struct FailoverReplica {
  std::string target;
  std::uint16_t port;
  net::Graph graph;
  net::RoutingTable routing;
  core::ITracker tracker;
  proto::ITrackerService service;
  proto::ReplicatedSnapshotStore store;
  proto::FollowerPortalService serve;
  proto::SnapshotFollower follower;
  /// Built after the struct (its connector closure needs the cluster).
  std::unique_ptr<proto::FailoverCoordinator> coordinator;
  bool alive = true;
  /// Per-process-lifetime invariant bookkeeping.
  std::uint64_t last_term = 0;
  std::uint64_t last_version = 0;

  FailoverReplica(std::string target_in, std::uint16_t port_in)
      : target(std::move(target_in)), port(port_in), graph(net::MakeAbilene()),
        routing(graph),
        tracker(graph, routing,
                [] {
                  core::ITrackerConfig config;
                  config.mode = core::PriceMode::kProtectedLink;
                  return config;
                }()),
        service(&tracker), serve(&store), follower(&store) {
    for (const net::LinkId link : {0, 5, 9}) {
      tracker.ProtectLink(link, core::ProtectedLinkRule{0.5, 1.0, 0.1});
    }
  }
};

struct FailoverCluster {
  const FailoverScenarioConfig& config;
  proto::PortalDirectory directory;
  double now = 0.0;
  /// Replica index the partition isolates (-1 = fully connected).
  int island = -1;
  std::vector<std::unique_ptr<FailoverReplica>> replicas;
  /// Ordered-pair lossy channels, index src * n + dst.
  std::vector<std::unique_ptr<LossyCallChannel>> channels;
  /// Counters accumulated from processes destroyed by a cold restart.
  std::uint64_t promotions_accum = 0;
  std::uint64_t demotions_accum = 0;
  std::uint64_t fenced_rejects_accum = 0;
  std::uint64_t backoff_skips_accum = 0;

  explicit FailoverCluster(const FailoverScenarioConfig& config_in)
      : config(config_in) {}

  bool Connected(int src, int dst) const {
    if (!replicas[static_cast<std::size_t>(src)]->alive ||
        !replicas[static_cast<std::size_t>(dst)]->alive) {
      return false;
    }
    return (src == island) == (dst == island);
  }

  int IndexOf(const std::string& target, std::uint16_t port) const {
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      if (replicas[i]->target == target && replicas[i]->port == port) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

/// Wires one replica's coordinator: connector routes through the shared
/// per-pair channels (connectivity-gated at call time, so partitions and
/// deaths bite live connections too), clock reads the cluster's virtual
/// time.
void WireCoordinator(FailoverCluster& cluster, int idx) {
  auto& replica = *cluster.replicas[static_cast<std::size_t>(idx)];
  proto::FailoverOptions options;
  options.domain = "isp.example";
  options.self_target = replica.target;
  options.self_port = replica.port;
  options.lease_seconds = cluster.config.lease_seconds;
  options.stagger_seconds = cluster.config.stagger_seconds;
  const int n = cluster.config.replicas;
  replica.coordinator = std::make_unique<proto::FailoverCoordinator>(
      &replica.tracker, &replica.service, &replica.store, &replica.follower,
      &cluster.directory,
      [&cluster, idx, n](const std::string& target,
                         std::uint16_t port) -> std::unique_ptr<proto::Transport> {
        const int dst = cluster.IndexOf(target, port);
        if (dst < 0) return nullptr;
        return std::make_unique<BorrowedTransport>(
            cluster.channels[static_cast<std::size_t>(idx * n + dst)].get());
      },
      options, [&cluster] { return cluster.now; });
  proto::PullRetryOptions retry;
  retry.initial_backoff_seconds = cluster.config.tick_seconds * 0.5;
  retry.backoff_factor = 2.0;
  retry.max_backoff_seconds = cluster.config.tick_seconds * 8.0;
  retry.jitter = 0.25;
  retry.max_attempts = 12;
  replica.follower.ConfigurePullRetry(
      retry, cluster.config.seed ^ (0xBACC0FFULL + static_cast<std::uint64_t>(idx)));
}

/// Accumulates a process's counters before it is torn down (cold restart)
/// so the scenario totals survive the rebuild.
void AccumulateCounters(FailoverCluster& cluster, const FailoverReplica& replica) {
  if (replica.coordinator) {
    cluster.promotions_accum += replica.coordinator->promote_count();
    cluster.demotions_accum += replica.coordinator->demote_count();
  }
  cluster.fenced_rejects_accum += replica.follower.stale_term_reject_count();
  cluster.backoff_skips_accum += replica.follower.pull_backoff_skip_count();
}

}  // namespace

FailoverScenarioResult RunFailoverScenario(const FailoverScenarioConfig& config) {
  if (config.replicas < 2 || config.replicas > 8) {
    throw std::invalid_argument("RunFailoverScenario: replicas must be 2..8");
  }
  if (config.rounds < 1 || config.tick_seconds <= 0.0 ||
      config.lease_seconds <= 0.0 || config.stagger_seconds < 0.0) {
    throw std::invalid_argument("RunFailoverScenario: bad schedule parameters");
  }
  if (config.drop_rate < 0.0 || config.drop_rate > 1.0 ||
      config.corrupt_rate < 0.0 || config.corrupt_rate > 1.0) {
    throw std::invalid_argument("RunFailoverScenario: rates must be in [0, 1]");
  }

  FailoverScenarioResult result;
  int round = -1;  // -1 = setup / settle phases
  const auto fail = [&](const std::string& what) {
    std::ostringstream msg;
    msg << "seed=" << config.seed << " drop=" << config.drop_rate
        << " round=" << round << ": " << what;
    result.violations.push_back(msg.str());
  };

  const int n = config.replicas;
  FailoverCluster cluster(config);
  for (int i = 0; i < n; ++i) {
    const std::string target = "replica" + std::to_string(i) + ".example";
    const auto port = static_cast<std::uint16_t>(9000 + i);
    // SRV priority == index: replica 0 is the rank-0 candidate.
    cluster.directory.AddRecord("isp.example", proto::SrvRecord{target, port, i, 1});
    cluster.replicas.push_back(std::make_unique<FailoverReplica>(target, port));
  }
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      cluster.channels.push_back(std::make_unique<LossyCallChannel>(
          [&cluster, src, dst](std::span<const std::uint8_t> request) {
            if (!cluster.Connected(src, dst)) {
              throw std::runtime_error("replica unreachable");
            }
            return cluster.replicas[static_cast<std::size_t>(dst)]
                ->coordinator->HandleReplication(request);
          },
          config.drop_rate, config.corrupt_rate,
          config.seed ^ (0xFA110ULL + static_cast<std::uint64_t>(src * n + dst))));
    }
  }
  for (int i = 0; i < n; ++i) WireCoordinator(cluster, i);

  // Truth map: (term, version) -> checksum of the frames published at it.
  // Both split-brain publishers record truth; the fence decides whose
  // frames survive, but neither ever counts as "never published".
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> truth;
  Digest digest;
  std::mt19937_64 beacon_rng(config.seed ^ 0xB34C02ULL);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const auto view_request = proto::Encode(proto::GetExternalViewReq{});

  const auto record_truth = [&](FailoverReplica& replica) {
    auto frames = replica.service.ExportFrames();
    frames.term = replica.coordinator->term();
    truth.emplace(std::pair(frames.term, frames.version),
                  proto::FrameSetChecksum(frames));
  };
  const auto current_publishers = [&] {
    std::vector<int> publishers;
    for (int i = 0; i < n; ++i) {
      const auto& replica = *cluster.replicas[static_cast<std::size_t>(i)];
      if (replica.alive && replica.coordinator->role() ==
                               proto::FailoverCoordinator::Role::kPublisher) {
        publishers.push_back(i);
      }
    }
    return publishers;
  };
  const auto max_term = [&] {
    std::uint64_t term = 0;
    for (const auto& replica : cluster.replicas) {
      if (replica->coordinator) {
        term = std::max(term, replica->coordinator->term());
      }
    }
    return term;
  };

  int disruption_round = -1;
  std::uint64_t disruption_term = 0;
  int killed_idx = -1;

  for (round = 0; round < config.rounds; ++round) {
    cluster.now += config.tick_seconds;

    // --- scheduled faults ---
    if (round == config.partition_round) {
      const auto publishers = current_publishers();
      cluster.island = publishers.empty() ? 0 : publishers.front();
      if (disruption_round < 0) {
        disruption_round = round;
        disruption_term = max_term();
      }
    }
    if (round == config.heal_round) cluster.island = -1;
    if (round == config.kill_publisher_round) {
      const auto publishers = current_publishers();
      killed_idx = publishers.empty() ? 0 : publishers.front();
      cluster.replicas[static_cast<std::size_t>(killed_idx)]->alive = false;
      if (disruption_round < 0) {
        disruption_round = round;
        disruption_term = max_term();
      }
    }
    if (round == config.revive_publisher_round && killed_idx >= 0) {
      // Cold restart: the whole process is rebuilt — empty store, fence at
      // 0, fresh coordinator — and must re-pull its way back in.
      auto& slot = cluster.replicas[static_cast<std::size_t>(killed_idx)];
      AccumulateCounters(cluster, *slot);
      const std::string target = slot->target;
      const std::uint16_t port = slot->port;
      slot = std::make_unique<FailoverReplica>(target, port);
      WireCoordinator(cluster, killed_idx);
    }

    // --- coordinator ticks (promotion / demotion decisions) ---
    for (int i = 0; i < n; ++i) {
      auto& replica = *cluster.replicas[static_cast<std::size_t>(i)];
      if (!replica.alive) continue;
      const auto before = replica.coordinator->role();
      const auto after = replica.coordinator->Tick();
      if (before == proto::FailoverCoordinator::Role::kFollower &&
          after == proto::FailoverCoordinator::Role::kPublisher) {
        // Promotion republished a re-stamped set inside Tick: record it.
        record_truth(replica);
        if (result.first_promote_round < 0) result.first_promote_round = round;
        if (disruption_round >= 0 && result.promote_latency_rounds < 0 &&
            replica.coordinator->term() > disruption_term) {
          result.promote_latency_rounds = round - disruption_round;
        }
      }
    }

    // --- every self-believed publisher drives a reprice + republish ---
    for (const int p : current_publishers()) {
      auto& replica = *cluster.replicas[static_cast<std::size_t>(p)];
      std::vector<double> loads(replica.graph.link_count(), 0.0);
      for (const net::LinkId link : {0, 5, 9}) {
        const double util =
            0.25 + 0.45 * static_cast<double>((round + link + p) % 3);
        loads[static_cast<std::size_t>(link)] =
            util * replica.graph.link(link).capacity_bps;
      }
      replica.tracker.Update(loads);  // version listener pushes to followers
      if (auto* publisher = replica.coordinator->publisher()) {
        publisher->PublishOnce();  // same-round retry of failed pushes
      }
      record_truth(replica);
    }

    // --- beacons over the lossy datagram plane ---
    for (const int p : current_publishers()) {
      auto& replica = *cluster.replicas[static_cast<std::size_t>(p)];
      const auto beacon = replica.coordinator->BeaconFrame();
      if (!beacon) continue;
      for (int dst = 0; dst < n; ++dst) {
        if (dst == p || !cluster.Connected(p, dst)) continue;
        if (uniform(beacon_rng) < config.drop_rate) continue;
        auto datagram = *beacon;
        if (uniform(beacon_rng) < config.corrupt_rate) {
          std::uniform_int_distribution<std::size_t> pick(0, datagram.size() * 8 - 1);
          const std::size_t bit = pick(beacon_rng);
          datagram[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        cluster.replicas[static_cast<std::size_t>(dst)]->follower.HandleBeacon(
            datagram);
      }
    }

    // --- backoff-gated anti-entropy pulls toward the freshest publisher ---
    const auto publishers = current_publishers();
    for (int i = 0; i < n; ++i) {
      auto& replica = *cluster.replicas[static_cast<std::size_t>(i)];
      if (!replica.alive || !replica.follower.behind()) continue;
      if (replica.coordinator->role() ==
          proto::FailoverCoordinator::Role::kPublisher) {
        continue;
      }
      int target = -1;
      std::uint64_t best_term = 0;
      for (const int p : publishers) {
        if (p == i || !cluster.Connected(i, p)) continue;
        const auto term = cluster.replicas[static_cast<std::size_t>(p)]
                              ->coordinator->term();
        if (target < 0 || term > best_term) {
          target = p;
          best_term = term;
        }
      }
      if (target < 0) continue;
      replica.follower.TryPull(
          *cluster.channels[static_cast<std::size_t>(i * n + target)],
          cluster.now);
    }

    // --- per-round invariants on every live replica ---
    for (int i = 0; i < n; ++i) {
      auto& replica = *cluster.replicas[static_cast<std::size_t>(i)];
      if (!replica.alive) continue;
      const std::string label = "replica " + std::to_string(i);
      const std::uint64_t term = replica.store.term();
      const std::uint64_t version = replica.store.version();
      if (std::pair(term, version) <
          std::pair(replica.last_term, replica.last_version)) {
        fail(label + ": installed (term, version) regressed");
      }
      if (version < replica.last_version) {
        fail(label + ": version token regressed across terms");
      }
      replica.last_term = term;
      replica.last_version = version;

      const auto held = replica.store.current();
      if (held) {
        const auto it = truth.find(std::pair(held->term, held->version));
        if (it == truth.end()) {
          fail(label + ": holds a (term, version) no publisher produced");
        } else if (proto::FrameSetChecksum(*held) != it->second) {
          fail(label + ": held frames diverge from the published bytes");
        }
      }

      const auto response = replica.serve.Handle(view_request);
      const auto decoded = proto::Decode(response);
      if (!decoded.has_value()) {
        fail(label + ": served undecodable bytes");
      } else if (std::get_if<proto::UnavailableResp>(&*decoded) != nullptr) {
        if (held) fail(label + ": served Unavailable while holding frames");
      } else if (const auto* view =
                     std::get_if<proto::GetExternalViewResp>(&*decoded)) {
        if (!held) {
          fail(label + ": served a view with no installed frames");
        } else {
          if (response != *held->external_view) {
            fail(label + ": served view bytes differ from the installed frames");
          }
          const auto conditional = proto::Decode(replica.serve.Handle(
              proto::Encode(proto::GetExternalViewReq{view->version})));
          const auto* nm = conditional
                               ? std::get_if<proto::NotModifiedResp>(&*conditional)
                               : nullptr;
          if (nm == nullptr || nm->version != view->version) {
            fail(label + ": served token did not earn NotModified");
          }
        }
      } else {
        fail(label + ": unexpected response type");
      }

      digest.Fold(static_cast<std::uint64_t>(replica.coordinator->role()));
      digest.Fold(term);
      digest.Fold(version);
      digest.Fold(response);
    }
  }
  round = -1;

  // --- settle: heal everything, fence out stale publishers, converge -------
  cluster.island = -1;
  bool converged = false;
  for (int settle = 0; settle < 200 && !converged; ++settle) {
    cluster.now += config.tick_seconds;
    for (int i = 0; i < n; ++i) {
      auto& replica = *cluster.replicas[static_cast<std::size_t>(i)];
      if (replica.alive) replica.coordinator->Tick();
    }
    const auto publishers = current_publishers();
    for (const int p : publishers) {
      auto& replica = *cluster.replicas[static_cast<std::size_t>(p)];
      // A fenced ex-publisher learns of its succession from this push's
      // kStaleTerm ack; the live publisher confirms laggards.
      if (auto* publisher = replica.coordinator->publisher()) {
        publisher->PublishOnce();
        record_truth(replica);
        for (int dst = 0; dst < n; ++dst) {
          if (dst == p || !cluster.Connected(p, dst)) continue;
          cluster.replicas[static_cast<std::size_t>(dst)]->follower.HandleBeacon(
              publisher->BeaconFrame());
        }
      }
    }
    if (publishers.size() != 1) continue;
    const int p = publishers.front();
    auto& leader = *cluster.replicas[static_cast<std::size_t>(p)];
    const auto want = std::pair(leader.coordinator->term(),
                                leader.coordinator->publisher()->published_version());
    converged = true;
    for (int i = 0; i < n; ++i) {
      auto& replica = *cluster.replicas[static_cast<std::size_t>(i)];
      if (!replica.alive || i == p) continue;
      if (std::pair(replica.store.term(), replica.store.version()) == want) {
        continue;
      }
      // Clean direct pull: loss delayed convergence, it must not block it.
      proto::InProcessTransport direct(
          [&leader](std::span<const std::uint8_t> request) {
            return leader.coordinator->HandleReplication(request);
          });
      try {
        replica.follower.PullOnce(direct);
      } catch (const std::exception&) {
      }
      if (std::pair(replica.store.term(), replica.store.version()) != want) {
        converged = false;
      }
    }
  }

  const auto publishers = current_publishers();
  if (publishers.size() != 1) {
    fail("no unique publisher after settling (split-brain persisted)");
  } else if (!converged) {
    fail("followers did not converge to the publisher over a clean channel");
  } else {
    const int p = publishers.front();
    auto& leader = *cluster.replicas[static_cast<std::size_t>(p)];
    result.final_term = leader.coordinator->term();
    result.final_version = leader.coordinator->publisher()->published_version();
    // Every live follower ends on byte-identical, truth-matched frames.
    std::shared_ptr<const proto::SnapshotFrameSet> reference;
    for (int i = 0; i < n; ++i) {
      auto& replica = *cluster.replicas[static_cast<std::size_t>(i)];
      if (!replica.alive || i == p) continue;
      const auto held = replica.store.current();
      if (!held) {
        fail("replica " + std::to_string(i) + " ended with no installed frames");
        continue;
      }
      const auto it = truth.find(std::pair(held->term, held->version));
      if (it == truth.end() || proto::FrameSetChecksum(*held) != it->second) {
        fail("replica " + std::to_string(i) + " ended on unpublished frames");
      }
      if (!reference) {
        reference = held;
      } else {
        CompareFrameSets(*held, *reference,
                         "replica " + std::to_string(i) + " vs first follower",
                         result.violations);
      }
      digest.Fold(held->term);
      digest.Fold(held->version);
    }
  }

  for (const auto& replica : cluster.replicas) {
    AccumulateCounters(cluster, *replica);
  }
  result.promotions = cluster.promotions_accum;
  result.demotions = cluster.demotions_accum;
  result.fenced_rejects = cluster.fenced_rejects_accum;
  result.pull_backoff_skips = cluster.backoff_skips_accum;
  digest.Fold(result.final_term);
  digest.Fold(result.final_version);
  result.digest = digest.value();
  return result;
}

}  // namespace p4p::testsupport
