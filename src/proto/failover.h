// Term-fenced publisher failover for the federation plane (DESIGN.md §13).
//
// PR 5's federation elected a publisher once, statically: if that process
// died, followers served frozen frames forever and the control loop could
// never ship another reprice — exactly the stale-guidance failure mode
// "Pushing BitTorrent Locality to the Limit" shows costs ISPs the locality
// win. This module makes the election live:
//
//   * Every replica runs one FailoverCoordinator owning its role. The
//     coordinator watches publisher beacons through the follower's lease
//     clock; when the lease expires, candidates self-promote in SRV
//     priority order (rank r waits lease + r * stagger, a bully-style
//     stagger that needs no membership service).
//   * Promotion is fenced by a monotone term (Raft-style): the candidate
//     adopts max-observed-term + 1, anti-entropy-pulls the freshest held
//     set from every reachable peer, floors its tracker version at
//     term * kTermVersionStride (so version tokens never collide across
//     terms), re-stamps its service caches, and only then republishes.
//   * The old publisher can never overwrite: followers fence pushes below
//     the highest term observed (AckStatus::kStaleTerm), and a publisher
//     that receives one — or hears a higher-term beacon — demotes itself
//     back to follower on its next Tick.
//
// Everything is driven by an injectable clock and explicit Tick() calls,
// so the chaos conformance suite replays crash/partition/heal schedules
// deterministically; production wires Tick to a timer thread.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "proto/federation.h"
#include "proto/telemetry.h"

namespace p4p::proto {

/// Opens a replication channel to a peer replica's endpoint. Returning
/// null (or throwing from the transport later) marks the peer unreachable
/// for that attempt; the coordinator moves on.
using ReplicaConnector =
    std::function<std::unique_ptr<Transport>(const std::string& target,
                                             std::uint16_t port)>;

struct FailoverOptions {
  /// SRV domain whose records define the candidate order (ElectPublisher's
  /// comparator: priority ascending, then (target, port)).
  std::string domain;
  /// This replica's own SRV identity, used to find its rank and to skip
  /// itself when connecting to peers.
  std::string self_target;
  std::uint16_t self_port = 0;
  /// Beacon-silence budget before the rank-0 candidate may promote.
  double lease_seconds = 3.0;
  /// Extra wait per candidate rank, so candidates promote one at a time
  /// instead of racing (rank r waits lease + r * stagger).
  double stagger_seconds = 1.0;
};

/// Per-replica failover state machine binding the replica's tracker,
/// service, store, and follower to a dynamically elected publisher role.
///
/// Thread safety: Tick, NoteBeacon (via the follower's beacon handler),
/// HandleReplication, BeaconFrame, and the tracker's version listener may
/// all run concurrently (the TSan hammer does). Role transitions serialize
/// on an internal mutex; the hot paths (version listener, replication
/// dispatch) read the role through atomics and never take it.
class FailoverCoordinator {
 public:
  enum class Role : std::uint8_t { kFollower = 0, kPublisher = 1 };

  /// All referenced components must outlive the coordinator. `control_loop`
  /// may be null (no telemetry loop on this replica). Registers itself as
  /// the follower's beacon observer and as a tracker version listener —
  /// both are setup-time registrations, so construct the coordinator
  /// before serving threads start.
  FailoverCoordinator(core::ITracker* tracker, ITrackerService* service,
                      ReplicatedSnapshotStore* store, SnapshotFollower* follower,
                      const PortalDirectory* directory, ReplicaConnector connect,
                      FailoverOptions options, std::function<double()> clock,
                      PDistanceControlLoop* control_loop = nullptr);

  /// One state-machine step at the current clock reading:
  ///   follower + lease expired for our rank -> Promote (unless the new
  ///   term would exceed kMaxTerm: then the replica stays a follower);
  ///   publisher + fenced (kStaleTerm ack or higher-term beacon) -> Demote.
  /// Returns the role after the step.
  Role Tick();

  /// Replication endpoint dispatcher: pulls/pushes go to the publisher
  /// half when this replica is the publisher, to the follower half
  /// otherwise. Wire this (not the halves) to the replica's TcpServer.
  std::vector<std::uint8_t> HandleReplication(std::span<const std::uint8_t> request);
  Handler replication_handler() {
    return [this](std::span<const std::uint8_t> req) { return HandleReplication(req); };
  }

  /// The (term, version) beacon to broadcast, when this replica is the
  /// publisher; std::nullopt for followers (only publishers beacon).
  std::optional<std::vector<std::uint8_t>> BeaconFrame() const;

  Role role() const { return role_.load(std::memory_order_acquire); }
  /// The term this replica publishes under (its last promotion's term;
  /// 0 before the first promotion).
  std::uint64_t term() const { return term_.load(std::memory_order_acquire); }
  std::uint64_t promote_count() const { return promotes_.load(); }
  std::uint64_t demote_count() const { return demotes_.load(); }
  /// The publisher object while promoted (nullptr as follower) — benches
  /// read wire counters off it. Valid until the coordinator is destroyed
  /// (the object is reused across promotions, never freed).
  SnapshotPublisher* publisher() { return active_publisher_.load(std::memory_order_acquire); }

  /// This replica's rank in the candidate order (0 = first in line).
  /// Unknown identities rank last.
  std::size_t CandidateRank() const;

 private:
  void NoteBeacon(std::uint64_t term, std::uint64_t version);
  /// Caller must hold state_mu_.
  void PromoteLocked(double now);
  /// Caller must hold state_mu_.
  void DemoteLocked(double now);

  core::ITracker* tracker_;
  ITrackerService* service_;
  ReplicatedSnapshotStore* store_;
  SnapshotFollower* follower_;
  const PortalDirectory* directory_;
  ReplicaConnector connect_;
  FailoverOptions options_;
  std::function<double()> clock_;
  PDistanceControlLoop* control_loop_;

  /// Guards role transitions and publisher_ construction. Never taken on
  /// the version-listener or replication hot paths.
  std::mutex state_mu_;
  /// Created on first promotion, then reused (SetTerm) — listeners hold
  /// raw pointers to it, so it must never be destroyed mid-life.
  std::unique_ptr<SnapshotPublisher> publisher_;
  /// Peers already wired into publisher_ as push channels (AddFollower is
  /// once per identity). Guarded by state_mu_.
  std::vector<std::pair<std::string, std::uint16_t>> known_peers_;

  std::atomic<Role> role_{Role::kFollower};
  std::atomic<std::uint64_t> term_{0};
  /// The publisher the version listener pushes through; null as follower.
  std::atomic<SnapshotPublisher*> active_publisher_{nullptr};
  /// Clock reading of the last liveness evidence (a beacon, or our own
  /// demotion — demoting resets the lease so the ex-publisher does not
  /// instantly re-promote itself).
  std::atomic<double> last_beacon_time_;
  /// Highest term any beacon announced; promotion starts above it.
  std::atomic<std::uint64_t> max_beacon_term_{0};
  std::atomic<std::uint64_t> promotes_{0};
  std::atomic<std::uint64_t> demotes_{0};
};

}  // namespace p4p::proto
