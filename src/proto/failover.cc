#include "proto/failover.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace p4p::proto {

FailoverCoordinator::FailoverCoordinator(
    core::ITracker* tracker, ITrackerService* service,
    ReplicatedSnapshotStore* store, SnapshotFollower* follower,
    PortalDirectory* directory, ReplicaConnector connect,
    FailoverOptions options, std::function<double()> clock,
    PDistanceControlLoop* control_loop)
    : tracker_(tracker), service_(service), store_(store), follower_(follower),
      directory_(directory), connect_(std::move(connect)),
      options_(std::move(options)), clock_(std::move(clock)),
      control_loop_(control_loop) {
  if (tracker_ == nullptr || service_ == nullptr || store_ == nullptr ||
      follower_ == nullptr || directory_ == nullptr) {
    throw std::invalid_argument("FailoverCoordinator: null component");
  }
  if (!connect_ || !clock_) {
    throw std::invalid_argument("FailoverCoordinator: null connector or clock");
  }
  if (options_.domain.empty() || options_.self_target.empty() ||
      options_.self_port == 0) {
    throw std::invalid_argument("FailoverCoordinator: missing self identity");
  }
  if (options_.lease_seconds <= 0.0 || options_.stagger_seconds < 0.0) {
    throw std::invalid_argument("FailoverCoordinator: bad lease/stagger");
  }
  last_beacon_time_.store(clock_(), std::memory_order_release);
  follower_->SetBeaconObserver([this](std::uint64_t term, std::uint64_t version) {
    NoteBeacon(term, version);
  });
  // One listener for the coordinator's whole life: listeners cannot be
  // unregistered, so it routes through the active-publisher atomic instead
  // of binding any particular promotion's publisher. It runs outside the
  // tracker's lock and takes no coordinator lock, so mutators on any
  // thread can never deadlock against a concurrent role change.
  tracker_->RegisterVersionListener([this](std::uint64_t) {
    if (auto* pub = active_publisher_.load(std::memory_order_acquire)) {
      pub->PublishOnce();
    }
  });
}

std::size_t FailoverCoordinator::CandidateRank() const {
  auto records = directory_->Records(options_.domain);
  std::sort(records.begin(), records.end(),
            [](const SrvRecord& a, const SrvRecord& b) {
              return std::tie(a.priority, a.target, a.port) <
                     std::tie(b.priority, b.target, b.port);
            });
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].target == options_.self_target &&
        records[i].port == options_.self_port) {
      return i;
    }
  }
  return records.size();
}

void FailoverCoordinator::NoteBeacon(std::uint64_t term, std::uint64_t version) {
  (void)version;  // liveness and term are what the lease machine needs
  const double now = clock_();
  // Monotone max: a reordered stale beacon must not extend the lease
  // backwards (doubles: plain store after compare is fine — any racing
  // store also carries a current reading).
  double known = last_beacon_time_.load(std::memory_order_relaxed);
  while (now > known &&
         !last_beacon_time_.compare_exchange_weak(known, now,
                                                  std::memory_order_acq_rel)) {
  }
  std::uint64_t known_term = max_beacon_term_.load(std::memory_order_relaxed);
  while (term > known_term &&
         !max_beacon_term_.compare_exchange_weak(known_term, term,
                                                 std::memory_order_acq_rel)) {
  }
}

FailoverCoordinator::Role FailoverCoordinator::Tick() {
  const double now = clock_();
  std::lock_guard<std::mutex> lock(state_mu_);
  if (role_.load(std::memory_order_relaxed) == Role::kPublisher) {
    // Demotion evidence: a follower fenced us (kStaleTerm ack), or a
    // higher-term beacon reached our own beacon ear.
    const std::uint64_t own_term = term_.load(std::memory_order_relaxed);
    const bool fenced = publisher_ && publisher_->fenced();
    const bool superseded =
        max_beacon_term_.load(std::memory_order_acquire) > own_term ||
        follower_->fence_term() > own_term;
    if (fenced || superseded) DemoteLocked(now);
    return role_.load(std::memory_order_relaxed);
  }
  // Follower: promote when the beacon lease has been silent past our
  // rank's slot. Rank r waits lease + r * stagger, so candidates step up
  // one at a time in SRV priority order without any membership protocol.
  const double silent = now - last_beacon_time_.load(std::memory_order_acquire);
  const double budget = options_.lease_seconds +
                        static_cast<double>(CandidateRank()) *
                            options_.stagger_seconds;
  if (silent >= budget) PromoteLocked(now);
  return role_.load(std::memory_order_relaxed);
}

void FailoverCoordinator::PromoteLocked(double now) {
  // Anti-entropy before the term choice and the first republish: pull the
  // freshest held set from every reachable peer, so the term below
  // supersedes anything a reachable peer has installed and the version
  // floor starts from the true portal-wide maximum — our initial publish
  // can never regress a version token a client already holds.
  auto records = directory_->Records(options_.domain);
  for (const auto& record : records) {
    if (record.target == options_.self_target && record.port == options_.self_port) {
      continue;
    }
    try {
      if (auto channel = connect_(record.target, record.port)) {
        follower_->PullOnce(*channel);
      }
    } catch (const std::exception&) {
      // Unreachable peer (dead, partitioned): promotion proceeds on what
      // the reachable majority holds.
    }
  }

  // The new term supersedes everything observed from any source: beacons,
  // fenced pushes, the held set (including what the pulls above just
  // installed), and any term we ourselves published under. Collision
  // freedom (viewstamped-replication style): rank r in an n-candidate SRV
  // set only mints terms congruent to (r + 1) mod n, so two candidates
  // promoting concurrently — lossy beacons hid the earlier promotion from
  // the later slot — can never pick the same term. One strictly larger
  // term fences the other; a same-term split-brain, which no fence could
  // ever resolve, is impossible by construction. In orderly succession
  // the residue walk degenerates to max + 1.
  const std::uint64_t max_seen =
      std::max({max_beacon_term_.load(std::memory_order_acquire),
                follower_->fence_term(), store_->term(),
                term_.load(std::memory_order_relaxed)});
  std::uint64_t new_term = max_seen + 1;
  const std::size_t rank = CandidateRank();
  const std::size_t n = records.size();
  if (n > 0 && rank < n) {
    const std::uint64_t residue =
        (static_cast<std::uint64_t>(rank) + 1) % static_cast<std::uint64_t>(n);
    while (new_term % static_cast<std::uint64_t>(n) != residue) ++new_term;
  }
  // A term past kMaxTerm would wrap the version floor below and break the
  // disjoint-range argument: stay a follower, and wait a full lease before
  // trying again.
  if (new_term > kMaxTerm || new_term <= max_seen) {
    last_beacon_time_.store(now, std::memory_order_release);
    return;
  }

  // Version fencing: every term mints tokens from a disjoint strided
  // range, above anything the pulled set holds. AdvanceVersionTo notifies
  // the version listener, but active_publisher_ is still null here, so
  // nothing publishes before the caches are re-stamped.
  tracker_->AdvanceVersionTo(
      std::max(store_->version() + 1, new_term * kTermVersionStride));
  // Drop pre-promotion content stamps: they live in this replica's private
  // version space and could collide with tokens the old term published.
  service_->ResetEncodedState();

  if (!publisher_) {
    PublisherOptions pub_options;
    pub_options.enable_delta = options_.enable_delta;
    pub_options.term = new_term;
    pub_options.key = follower_->key();
    if (options_.update_directory_epochs) {
      pub_options.directory = directory_;
      pub_options.domain = options_.domain;
      pub_options.self_target = options_.self_target;
      pub_options.self_port = options_.self_port;
    }
    publisher_ = std::make_unique<SnapshotPublisher>(service_, pub_options);
  } else {
    publisher_->SetTerm(new_term);
  }
  // Push channels to every peer (the SetTerm path keeps existing channels;
  // only add ones we do not have yet — AddFollower is idempotent per
  // identity here because we only connect unseen records).
  for (const auto& record : records) {
    if (record.target == options_.self_target && record.port == options_.self_port) {
      continue;
    }
    bool known = false;
    for (const auto& peer : known_peers_) {
      if (peer.first == record.target && peer.second == record.port) {
        known = true;
        break;
      }
    }
    if (known) continue;
    try {
      if (auto channel = connect_(record.target, record.port)) {
        publisher_->AddFollower(record.target, record.port, std::move(channel));
        known_peers_.emplace_back(record.target, record.port);
      }
    } catch (const std::exception&) {
    }
  }

  // Fence ourselves at our own term (we will not accept our predecessor's
  // pushes), rebind the control loop, and open the publish gate.
  follower_->RaiseFenceTerm(new_term);
  term_.store(new_term, std::memory_order_release);
  if (control_loop_ != nullptr) control_loop_->SetPublisher(publisher_.get());
  active_publisher_.store(publisher_.get(), std::memory_order_release);
  role_.store(Role::kPublisher, std::memory_order_release);
  promotes_.fetch_add(1, std::memory_order_relaxed);
  // Lease bookkeeping: our own reign starts now.
  last_beacon_time_.store(now, std::memory_order_release);

  // Initial republish: ship the re-stamped set under the new term.
  publisher_->PublishOnce();
}

void FailoverCoordinator::DemoteLocked(double now) {
  active_publisher_.store(nullptr, std::memory_order_release);
  if (control_loop_ != nullptr) control_loop_->SetPublisher(nullptr);
  role_.store(Role::kFollower, std::memory_order_release);
  demotes_.fetch_add(1, std::memory_order_relaxed);
  // Restart the lease from the demotion instant: the superseding publisher
  // gets a full lease before this replica would consider promoting again.
  last_beacon_time_.store(now, std::memory_order_release);
}

std::vector<std::uint8_t> FailoverCoordinator::HandleReplication(
    std::span<const std::uint8_t> request) {
  // Publishers answer pulls from their own (freshest) frame cache; every
  // other role and frame kind goes through the follower half, which also
  // serves peer pulls from the held set during someone else's promotion.
  if (role_.load(std::memory_order_acquire) == Role::kPublisher) {
    if (auto* pub = active_publisher_.load(std::memory_order_acquire)) {
      if (PeekFederationTag(request) == FederationTag::kFramePull) {
        return pub->HandleReplication(request);
      }
    }
  }
  return follower_->HandleReplication(request);
}

std::optional<std::vector<std::uint8_t>> FailoverCoordinator::BeaconFrame() const {
  if (auto* pub = active_publisher_.load(std::memory_order_acquire)) {
    return pub->BeaconFrame();
  }
  return std::nullopt;
}

}  // namespace p4p::proto
