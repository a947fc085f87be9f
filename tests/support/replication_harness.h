// Deterministic end-to-end replication conformance harness.
//
// RunReplicationScenario wires the full control loop — scripted telemetry
// -> LinkLoadCollector -> PDistanceControlLoop -> ITracker reprice ->
// SnapshotPublisher push -> follower install -> follower serving — across
// lossy channels, and checks the safety invariants every round:
//
//   * the follower's served bytes always form one complete published frame
//     set (digest-matched against a truth map recorded at publish time):
//     never a mixed set, never a version the publisher never produced;
//   * installed versions are monotone — duplicated, reordered, or corrupt
//     frames can delay convergence but never roll the follower back;
//   * before the first install the follower sheds with UnavailableResp and
//     nothing else;
//   * once the channel heals, one clean pull converges the follower to
//     byte-for-byte the publisher's frame set.
//
// Everything — fault decisions, telemetry, prices — is a pure function of
// ReplicationScenarioConfig, so a scenario replays bit-for-bit (the result
// digest folds every served byte). The harness is gtest-free: it reports
// invariant violations as strings and the conformance suite asserts the
// list is empty, so one seed's failure names the broken invariant instead
// of an anonymous EXPECT deep in a loop.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "proto/transport.h"

namespace p4p::testsupport {

/// Request/response Transport wrapper with seeded faults: a dropped request
/// or response throws (the TCP analogue of a lost datagram / reset
/// connection), a corrupt one gets a single bit flipped. Deterministic
/// given the seed and call sequence. Counts calls and forwarded bytes so
/// harnesses can account wire cost per scenario.
class LossyCallChannel final : public proto::Transport {
 public:
  LossyCallChannel(proto::Handler backend, double drop_rate, double corrupt_rate,
                   std::uint64_t seed);

  std::vector<std::uint8_t> Call(std::span<const std::uint8_t> request) override;

  std::uint64_t call_count() const { return calls_; }
  std::uint64_t drop_count() const { return drops_; }
  std::uint64_t corrupt_count() const { return corruptions_; }
  /// Request + response bytes that actually traversed the channel.
  std::uint64_t bytes_forwarded() const { return bytes_; }

 private:
  void FlipBit(std::vector<std::uint8_t>& bytes);

  proto::Handler backend_;
  double drop_rate_;
  double corrupt_rate_;
  std::mt19937_64 rng_;
  std::uint64_t calls_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t corruptions_ = 0;
  std::uint64_t bytes_ = 0;
};

struct ReplicationScenarioConfig {
  std::uint64_t seed = 1;
  /// Drop rate of the push/pull channels to the follower under test.
  double drop_rate = 0.0;
  /// Single-bit corruption rate of the same channels (and the beacons).
  double corrupt_rate = 0.0;
  /// Drop rate of the probe->collector telemetry channel. A lost flush
  /// keeps its batch buffered (sequence numbers make the retry safe), so
  /// that round's tick is empty and no version is burned.
  double telemetry_drop_rate = 0.0;
  /// Control-loop ticks driven through the scripted telemetry feed.
  int rounds = 30;
};

struct ReplicationScenarioResult {
  /// Invariant violations, empty when the scenario held every guarantee.
  /// Each entry names the round and the broken invariant.
  std::vector<std::string> violations;
  /// FNV-1a fold of every served byte and installed version across the
  /// run — two runs of the same config must produce the same digest.
  std::uint64_t digest = 0;
  /// Publisher version after the final tick (== the store after healing).
  std::uint64_t final_version = 0;
  /// Longest run of consecutive rounds the lossy follower lagged the
  /// publisher (its staleness bound under this fault profile).
  int max_staleness_rounds = 0;
  /// Ticks that actually repriced (empty telemetry ticks don't).
  std::uint64_t updates = 0;
  // Replication accounting for the scenario's publisher.
  std::uint64_t full_frames_sent = 0;
  std::uint64_t full_bytes_sent = 0;
};

/// Runs one scripted scenario end to end (see file comment). Never throws
/// on invariant failure — failures land in `violations`.
ReplicationScenarioResult RunReplicationScenario(
    const ReplicationScenarioConfig& config);

// --- failover chaos scenarios (DESIGN.md §13) -------------------------------
//
// RunFailoverScenario drives a whole replica cluster — every replica runs
// the full stack (ITracker + service + store + follower + coordinator)
// and starts as a follower — through crash/restart/partition schedules
// over lossy channels, and proves the failover invariants every round:
//
//   * installs are monotone in the lexicographic (term, version) pair per
//     store lifetime, and the raw version token never regresses either
//     (the kTermVersionStride floor at promotion);
//   * a replica only ever holds/serves a frame set some publisher actually
//     published (digest-matched against a truth map keyed by
//     (term, version) — split-brain publishers both record truth, and the
//     fence decides whose frames survive);
//   * after every fault heals, exactly one publisher remains and every
//     follower converges to its byte-identical frame set;
//   * same-seed replay is bit-identical (the digest folds every served
//     byte and installed pair).

struct FailoverScenarioConfig {
  std::uint64_t seed = 1;
  /// Drop / single-bit-corruption rates of every replication channel and
  /// of the beacon datagrams.
  double drop_rate = 0.0;
  double corrupt_rate = 0.0;
  int rounds = 40;
  /// Cluster size (2..8). SRV priority == replica index, so replica 0 is
  /// the rank-0 candidate and the first publisher.
  int replicas = 3;
  /// Round at which the current publisher process is killed (-1 = never):
  /// it stops ticking/beaconing and its endpoint throws. With drop_rate > 0
  /// the kill lands mid-replication — followers sit at mixed acked bases.
  int kill_publisher_round = -1;
  /// Round at which the killed replica cold-restarts with empty state
  /// (fresh store, fresh tracker, fence at 0) and must re-pull (-1 = never).
  int revive_publisher_round = -1;
  /// Round at which the current publisher is partitioned off alone, so the
  /// majority side promotes and two self-believed publishers coexist
  /// (-1 = never).
  int partition_round = -1;
  /// Round at which the partition heals: the fenced ex-publisher's pushes
  /// must be rejected (kStaleTerm) and it must demote (-1 = never).
  int heal_round = -1;
  /// Lease/stagger driving the coordinators (injectable virtual clock).
  double lease_seconds = 3.0;
  double stagger_seconds = 1.0;
  /// Virtual seconds per round.
  double tick_seconds = 1.0;
};

struct FailoverScenarioResult {
  /// Invariant violations, empty when the scenario held every guarantee.
  std::vector<std::string> violations;
  /// FNV-1a fold of roles, installed pairs, and served bytes across the
  /// run — two runs of the same config must produce the same digest.
  std::uint64_t digest = 0;
  /// The surviving publisher's (term, version) after post-run settling.
  std::uint64_t final_term = 0;
  std::uint64_t final_version = 0;
  /// Round of the first promotion ever (-1 = none happened).
  int first_promote_round = -1;
  /// Rounds from the scheduled disruption (kill or partition) to the first
  /// new-term publisher (-1 = no disruption scheduled / never recovered).
  int promote_latency_rounds = -1;
  /// Role transitions across the whole run (cold-restarted replicas'
  /// counts are accumulated before the rebuild).
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  /// Follower-side kStaleTerm rejections — the fence doing its job (what
  /// the bench reports as fed_fenced_rejects_total).
  std::uint64_t fenced_rejects = 0;
  /// TryPull invocations the jittered-backoff schedule suppressed.
  std::uint64_t pull_backoff_skips = 0;
};

/// Runs one failover chaos scenario end to end. Never throws on invariant
/// failure — failures land in `violations`. Throws std::invalid_argument
/// for out-of-range configs.
FailoverScenarioResult RunFailoverScenario(const FailoverScenarioConfig& config);

}  // namespace p4p::testsupport
