// Term-fenced publisher failover suite (DESIGN.md §13).
//
// Proves the failover plane's guarantees at three granularities:
//   * coordinator unit tests — lease expiry promotes in SRV rank order,
//     promotion floors the version token at term * kTermVersionStride and
//     re-stamps the caches, a fenced ex-publisher can never overwrite and
//     demotes itself, UDP validation tokens stay coherent across the swap;
//   * wire/codec tests — the term field rides every frame totally (any
//     single-bit flip or truncation decodes to nullopt, never a wrong
//     value), unknown AckStatus bytes are rejected outright;
//   * chaos conformance — crash/restart/partition schedules over lossy
//     channels across a seed sweep (see support/replication_harness.h),
//     plus an 8-thread promote-vs-serve-vs-tick hammer (TSan target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/itracker.h"
#include "net/topology.h"
#include "proto/failover.h"
#include "proto/federation.h"
#include "proto/messages.h"
#include "proto/telemetry.h"
#include "support/replication_harness.h"

namespace p4p::proto {
namespace {

using testsupport::FailoverScenarioConfig;
using testsupport::FailoverScenarioResult;
using testsupport::RunFailoverScenario;

constexpr const char* kDomain = "isp.example";
/// Deployment key of every federation in this file: the coordinator must
/// forward it to the publisher it builds, or no push would open.
constexpr SealKey kTestKey{0xFA11, 0x0FE2};

// --- a three-replica cluster over direct in-process channels ----------------

struct Node {
  std::string target;
  std::uint16_t port;
  net::Graph graph;
  net::RoutingTable routing;
  core::ITracker tracker;
  ITrackerService service;
  ReplicatedSnapshotStore store;
  FollowerPortalService serve;
  SnapshotFollower follower;
  std::unique_ptr<FailoverCoordinator> coordinator;

  Node(std::string target_in, std::uint16_t port_in)
      : target(std::move(target_in)), port(port_in), graph(net::MakeAbilene()),
        routing(graph), tracker(graph, routing), service(&tracker),
        serve(&store), follower(&store, kTestKey) {}

  /// One tracker mutation (version bump) — the version listener republishes.
  void Reprice(double scale) {
    std::vector<double> prices(graph.link_count(), 0.0);
    prices[0] = 1e-9 * scale;
    tracker.SetStaticPrices(prices);
  }
};

class FailoverCoordinatorTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 3;

  FailoverCoordinatorTest() {
    for (int i = 0; i < kNodes; ++i) {
      nodes_.push_back(std::make_unique<Node>(
          "replica" + std::to_string(i) + ".example",
          static_cast<std::uint16_t>(9000 + i)));
      alive_[i] = true;
      directory_.AddRecord(
          kDomain, SrvRecord{nodes_.back()->target, nodes_.back()->port, i, 1});
    }
    for (int i = 0; i < kNodes; ++i) Wire(i);
  }

  void Wire(int idx) {
    FailoverOptions options;
    options.domain = kDomain;
    options.self_target = nodes_[static_cast<std::size_t>(idx)]->target;
    options.self_port = nodes_[static_cast<std::size_t>(idx)]->port;
    options.lease_seconds = 3.0;
    options.stagger_seconds = 1.0;
    auto& node = *nodes_[static_cast<std::size_t>(idx)];
    node.coordinator = std::make_unique<FailoverCoordinator>(
        &node.tracker, &node.service, &node.store, &node.follower, &directory_,
        [this](const std::string& target,
               std::uint16_t port) -> std::unique_ptr<Transport> {
          const int dst = Find(target, port);
          if (dst < 0) return nullptr;
          return std::make_unique<InProcessTransport>(
              [this, dst](std::span<const std::uint8_t> request) {
                if (!alive_[dst]) throw std::runtime_error("replica dead");
                return nodes_[static_cast<std::size_t>(dst)]
                    ->coordinator->HandleReplication(request);
              });
        },
        options, [this] { return now_.load(std::memory_order_relaxed); });
  }

  int Find(const std::string& target, std::uint16_t port) const {
    for (int i = 0; i < kNodes; ++i) {
      if (nodes_[static_cast<std::size_t>(i)]->target == target &&
          nodes_[static_cast<std::size_t>(i)]->port == port) {
        return i;
      }
    }
    return -1;
  }

  /// Delivers every live publisher's beacon to every other live follower.
  void DeliverBeacons() {
    for (int i = 0; i < kNodes; ++i) {
      if (!alive_[i]) continue;
      const auto beacon =
          nodes_[static_cast<std::size_t>(i)]->coordinator->BeaconFrame();
      if (!beacon) continue;
      for (int j = 0; j < kNodes; ++j) {
        if (j == i || !alive_[j]) continue;
        nodes_[static_cast<std::size_t>(j)]->follower.HandleBeacon(*beacon);
      }
    }
  }

  void TickAll() {
    for (int i = 0; i < kNodes; ++i) {
      if (alive_[i]) nodes_[static_cast<std::size_t>(i)]->coordinator->Tick();
    }
  }

  /// Advances to lease expiry for rank 0 only and promotes node 0.
  void PromoteFirst() {
    now_ = 3.5;  // past rank 0's 3.0s lease, short of rank 1's 4.0s slot
    TickAll();
    ASSERT_EQ(nodes_[0]->coordinator->role(),
              FailoverCoordinator::Role::kPublisher);
    DeliverBeacons();
  }

  /// Kills node 0 and lets node 1 self-promote after its staggered slot.
  void KillFirstPromoteSecond() {
    nodes_[0]->Reprice(2.0);  // publish a term-1 version first
    DeliverBeacons();         // leases renewed at now_
    alive_[0] = false;
    now_ += 4.5;  // rank 1 waits lease + 1 * stagger = 4.0s of silence
    TickAll();
    ASSERT_EQ(nodes_[1]->coordinator->role(),
              FailoverCoordinator::Role::kPublisher);
    ASSERT_EQ(nodes_[1]->coordinator->term(), 2u);
    DeliverBeacons();
  }

  PortalDirectory directory_;
  // Atomic so the hammer's single clock-writer thread can race readers
  // (the coordinator clock callbacks) without UB; single-threaded tests
  // just use it as a double.
  std::atomic<double> now_{0.0};
  bool alive_[kNodes] = {};
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(FailoverCoordinatorTest, RankZeroPromotesAfterLeaseAndRepublishes) {
  // Before any lease expires nobody promotes and nobody beacons.
  now_ = 2.0;
  TickAll();
  for (const auto& node : nodes_) {
    EXPECT_EQ(node->coordinator->role(), FailoverCoordinator::Role::kFollower);
    EXPECT_FALSE(node->coordinator->BeaconFrame().has_value());
  }

  PromoteFirst();
  EXPECT_EQ(nodes_[0]->coordinator->term(), 1u);
  EXPECT_EQ(nodes_[0]->coordinator->promote_count(), 1u);
  ASSERT_NE(nodes_[0]->coordinator->publisher(), nullptr);
  // The promoted publisher seals with the replica's follower key.
  EXPECT_EQ(nodes_[0]->coordinator->publisher()->key(), kTestKey);
  // Version fencing: term 1 mints tokens at or above 1 * stride.
  EXPECT_GE(nodes_[0]->tracker.version(), kTermVersionStride);
  // The promotion's initial republish reached both followers.
  for (int i = 1; i < kNodes; ++i) {
    EXPECT_EQ(nodes_[static_cast<std::size_t>(i)]->store.term(), 1u);
    EXPECT_EQ(nodes_[static_cast<std::size_t>(i)]->store.version(),
              nodes_[0]->tracker.version());
    EXPECT_EQ(nodes_[static_cast<std::size_t>(i)]->coordinator->role(),
              FailoverCoordinator::Role::kFollower);
  }

  // The rebound version listener republishes every later reprice.
  nodes_[0]->Reprice(1.0);
  EXPECT_EQ(nodes_[1]->store.version(), nodes_[0]->tracker.version());
  EXPECT_EQ(nodes_[2]->store.version(), nodes_[0]->tracker.version());

  // Beacons renew the followers' leases: nobody else promotes.
  DeliverBeacons();
  now_ += 10.0;
  DeliverBeacons();
  TickAll();
  EXPECT_EQ(nodes_[1]->coordinator->role(), FailoverCoordinator::Role::kFollower);
  EXPECT_EQ(nodes_[2]->coordinator->role(), FailoverCoordinator::Role::kFollower);
}

TEST_F(FailoverCoordinatorTest, NextCandidatePromotesWithHigherTermAndNoRegression) {
  PromoteFirst();
  const std::uint64_t term1_version = nodes_[1]->store.version();
  ASSERT_GE(term1_version, kTermVersionStride);

  KillFirstPromoteSecond();
  // Term 2 tokens live in the next stride: strictly above every term-1 token.
  EXPECT_GE(nodes_[1]->tracker.version(), 2 * kTermVersionStride);
  EXPECT_GT(nodes_[1]->tracker.version(), term1_version);
  // The promotion republished to the remaining follower under term 2, and
  // its install went forward in the lexicographic order.
  EXPECT_EQ(nodes_[2]->store.term(), 2u);
  EXPECT_GT(nodes_[2]->store.version(), term1_version);
  // Rank 2 stays a follower: its slot (lease + 2 * stagger) never expired.
  EXPECT_EQ(nodes_[2]->coordinator->role(), FailoverCoordinator::Role::kFollower);
  // Promotion re-stamped the service caches above the new floor.
  EXPECT_GE(nodes_[1]->service.ExportFrames().view_version,
            2 * kTermVersionStride);
}

TEST_F(FailoverCoordinatorTest, PromotionStopsAtMaxTerm) {
  // Rank 0 of three mints terms = 1 (mod 3). Above a fence of kMaxTerm - 3
  // its next term is kMaxTerm - 2: still legal, and the version floor
  // (term * stride) does not wrap.
  nodes_[0]->follower.RaiseFenceTerm(kMaxTerm - 3);
  PromoteFirst();
  EXPECT_EQ(nodes_[0]->coordinator->term(), kMaxTerm - 2);
  EXPECT_GE(nodes_[0]->tracker.version(), (kMaxTerm - 2) * kTermVersionStride);
  EXPECT_EQ(nodes_[1]->store.term(), kMaxTerm - 2);
  EXPECT_EQ(nodes_[1]->store.version(), nodes_[0]->tracker.version());
}

TEST_F(FailoverCoordinatorTest, PromotionPastMaxTermIsRefused) {
  // With kMaxTerm already observed, the next term would be 2^32: its
  // version floor wraps, so the candidate stays a follower.
  nodes_[1]->follower.RaiseFenceTerm(kMaxTerm);
  const std::uint64_t version_before = nodes_[1]->tracker.version();
  alive_[0] = false;
  now_ = 4.5;  // past rank 1's lease + stagger
  nodes_[1]->coordinator->Tick();
  EXPECT_EQ(nodes_[1]->coordinator->role(), FailoverCoordinator::Role::kFollower);
  EXPECT_EQ(nodes_[1]->coordinator->promote_count(), 0u);
  EXPECT_EQ(nodes_[1]->coordinator->term(), 0u);
  EXPECT_EQ(nodes_[1]->tracker.version(), version_before);
  EXPECT_FALSE(nodes_[1]->coordinator->BeaconFrame().has_value());
  // A publisher cannot be handed such a term directly either.
  PublisherOptions options;
  options.term = kMaxTerm + 1;
  EXPECT_THROW(SnapshotPublisher(&nodes_[1]->service, options), std::invalid_argument);
  SnapshotPublisher publisher(&nodes_[1]->service);
  EXPECT_THROW(publisher.SetTerm(kMaxTerm + 1), std::invalid_argument);
}

TEST_F(FailoverCoordinatorTest, FencedExPublisherCannotOverwriteAndDemotes) {
  PromoteFirst();
  KillFirstPromoteSecond();

  // The old publisher comes back believing it still owns term 1.
  alive_[0] = true;
  ASSERT_EQ(nodes_[0]->coordinator->role(), FailoverCoordinator::Role::kPublisher);
  const std::uint64_t held_term = nodes_[2]->store.term();
  const std::uint64_t held_version = nodes_[2]->store.version();

  // Its republish is fenced everywhere: nothing installed anywhere.
  nodes_[0]->Reprice(3.0);
  EXPECT_EQ(nodes_[2]->store.term(), held_term);
  EXPECT_EQ(nodes_[2]->store.version(), held_version);
  EXPECT_GE(nodes_[1]->follower.stale_term_reject_count() +
                nodes_[2]->follower.stale_term_reject_count(),
            1u);
  auto* old_publisher = nodes_[0]->coordinator->publisher();
  ASSERT_NE(old_publisher, nullptr);
  EXPECT_TRUE(old_publisher->fenced());
  EXPECT_EQ(old_publisher->observed_fence_term(), 2u);

  // The kStaleTerm ack demotes it on its next tick, and the demotion resets
  // its lease so it does not instantly re-promote.
  EXPECT_EQ(nodes_[0]->coordinator->Tick(), FailoverCoordinator::Role::kFollower);
  EXPECT_EQ(nodes_[0]->coordinator->demote_count(), 1u);
  EXPECT_EQ(nodes_[0]->coordinator->publisher(), nullptr);
  EXPECT_FALSE(nodes_[0]->coordinator->BeaconFrame().has_value());

  // As a follower it catches up to term 2 through beacon + pull.
  DeliverBeacons();
  ASSERT_TRUE(nodes_[0]->follower.behind());
  InProcessTransport to_leader([this](std::span<const std::uint8_t> request) {
    return nodes_[1]->coordinator->HandleReplication(request);
  });
  EXPECT_TRUE(nodes_[0]->follower.PullOnce(to_leader));
  EXPECT_EQ(nodes_[0]->store.term(), 2u);
  EXPECT_EQ(nodes_[0]->store.version(), nodes_[1]->tracker.version());
}

TEST_F(FailoverCoordinatorTest, ValidationTokensStayCoherentAcrossPromotion) {
  PromoteFirst();
  // A client validates against the term-1 publisher and caches its token.
  const std::uint64_t old_token = nodes_[0]->service.price_version();
  ASSERT_GE(old_token, kTermVersionStride);
  {
    const auto answer = nodes_[0]->service.HandleValidationDatagram(
        EncodeValidationRequest(ValidationRequest{77, old_token}));
    ASSERT_TRUE(answer.has_value());
    const auto decoded = DecodeValidationResponse(*answer);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, ValidationStatus::kNotModified);
  }

  KillFirstPromoteSecond();

  // The promoted publisher must never confirm an old-term token — the
  // stride keeps the spaces disjoint, so the answer is a TCP redirect
  // carrying the new current version, nonce echoed.
  const auto answer = nodes_[1]->service.HandleValidationDatagram(
      EncodeValidationRequest(ValidationRequest{91, old_token}));
  ASSERT_TRUE(answer.has_value());
  const auto redirect = DecodeValidationResponse(*answer);
  ASSERT_TRUE(redirect.has_value());
  EXPECT_EQ(redirect->nonce, 91u);
  EXPECT_EQ(redirect->status, ValidationStatus::kRevalidateOverTcp);
  EXPECT_GE(redirect->version, 2 * kTermVersionStride);
  EXPECT_GT(redirect->version, old_token);

  // The new version token validates — on the publisher and on a follower
  // serving the replicated frames (portal-wide tokens survive failover).
  for (const auto& datagram :
       {nodes_[1]->service.HandleValidationDatagram(
            EncodeValidationRequest(ValidationRequest{92, redirect->version})),
        nodes_[2]->serve.HandleValidationDatagram(
            EncodeValidationRequest(ValidationRequest{93, redirect->version}))}) {
    ASSERT_TRUE(datagram.has_value());
    const auto current = DecodeValidationResponse(*datagram);
    ASSERT_TRUE(current.has_value());
    EXPECT_EQ(current->status, ValidationStatus::kNotModified);
    EXPECT_EQ(current->version, redirect->version);
  }
  // And the follower rejects the old-term token too.
  const auto stale = nodes_[2]->serve.HandleValidationDatagram(
      EncodeValidationRequest(ValidationRequest{94, old_token}));
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(DecodeValidationResponse(*stale)->status,
            ValidationStatus::kRevalidateOverTcp);
}

// --- jittered-backoff pull retry --------------------------------------------

class DeadTransport final : public Transport {
 public:
  std::vector<std::uint8_t> Call(std::span<const std::uint8_t>) override {
    ++calls_;
    throw std::runtime_error("connection refused");
  }
  std::uint64_t calls() const { return calls_; }

 private:
  std::uint64_t calls_ = 0;
};

TEST(PullBackoffTest, BacksOffExponentiallyExhaustsAndRearmsOnNewTerm) {
  ReplicatedSnapshotStore store;
  SnapshotFollower follower(&store);
  PullRetryOptions retry;
  retry.initial_backoff_seconds = 1.0;
  retry.backoff_factor = 2.0;
  retry.max_backoff_seconds = 100.0;
  retry.jitter = 0.0;  // exact delays, so the schedule is assertable
  retry.max_attempts = 3;
  follower.ConfigurePullRetry(retry, /*seed=*/7);
  DeadTransport dead;

  // Attempt 1 fires immediately and fails -> next due at t=1.
  EXPECT_FALSE(follower.TryPull(dead, 0.0));
  EXPECT_EQ(dead.calls(), 1u);
  // Backoff window: no wire traffic.
  EXPECT_FALSE(follower.PullDue(0.5));
  EXPECT_FALSE(follower.TryPull(dead, 0.5));
  EXPECT_EQ(dead.calls(), 1u);
  EXPECT_EQ(follower.pull_backoff_skip_count(), 1u);
  // Attempt 2 at t=1 -> next due at t=3; attempt 3 exhausts the cap.
  EXPECT_FALSE(follower.TryPull(dead, 1.0));
  EXPECT_EQ(dead.calls(), 2u);
  EXPECT_FALSE(follower.TryPull(dead, 2.9));
  EXPECT_EQ(dead.calls(), 2u);
  EXPECT_FALSE(follower.TryPull(dead, 3.0));
  EXPECT_EQ(dead.calls(), 3u);
  EXPECT_EQ(follower.pull_retry_exhausted_count(), 1u);
  // Disarmed: even the far future does not probe the dead endpoint.
  EXPECT_FALSE(follower.PullDue(1e6));
  EXPECT_FALSE(follower.TryPull(dead, 1e6));
  EXPECT_EQ(dead.calls(), 3u);

  // Evidence of a new publisher (a higher-term beacon) re-arms the loop.
  follower.HandleBeacon(EncodeBeacon(/*term=*/1, /*version=*/10));
  EXPECT_TRUE(follower.PullDue(1e6));
  EXPECT_FALSE(follower.TryPull(dead, 1e6));
  EXPECT_EQ(dead.calls(), 4u);
}

TEST(PullBackoffTest, SuccessfulInstallResetsTheSchedule) {
  net::Graph graph = net::MakeAbilene();
  net::RoutingTable routing(graph);
  core::ITracker tracker(graph, routing);
  ITrackerService service(&tracker);
  SnapshotPublisher publisher(&service);
  ReplicatedSnapshotStore store;
  SnapshotFollower follower(&store);
  PullRetryOptions retry;
  retry.initial_backoff_seconds = 1.0;
  retry.jitter = 0.0;
  retry.max_attempts = 2;
  follower.ConfigurePullRetry(retry, /*seed=*/7);

  DeadTransport dead;
  EXPECT_FALSE(follower.TryPull(dead, 0.0));  // one failure on the books
  // An advancing pull clears the failure count and the pending delay.
  InProcessTransport good(publisher.replication_handler());
  EXPECT_TRUE(follower.TryPull(good, 1.0));
  EXPECT_EQ(store.version(), tracker.version());
  EXPECT_TRUE(follower.PullDue(1.0));
  // The cap counts consecutive failures only: two more are available.
  EXPECT_FALSE(follower.TryPull(dead, 1.0));
  EXPECT_FALSE(follower.TryPull(dead, 2.0));
  EXPECT_EQ(follower.pull_retry_exhausted_count(), 1u);
}

// --- codec: the term field rides every frame totally ------------------------

std::vector<std::vector<std::uint8_t>> TermCarryingFrames() {
  // A coherent set (a num_pids view and one stamp per row): the push
  // encoder refuses any other.
  SnapshotFrameSet frames;
  frames.term = 3;
  frames.version = 9;
  frames.view_version = 9;
  frames.num_pids = 2;
  frames.not_modified = Encode(NotModifiedResp{9});
  frames.external_view = Share(Encode(GetExternalViewResp{2, 9, {0.0, 1.5, 2.5, 0.0}}));
  frames.row_versions = {7, 9};

  return {
      EncodeBeacon(/*term=*/3, /*version=*/9, kTestKey),
      EncodeFrameAck(FrameAck{AckStatus::kStaleTerm, 9, 3}, kTestKey),
      EncodeFramePull(FramePull{8, /*have_term=*/3}, kTestKey),
      EncodeFramePush(frames, kTestKey),
  };
}

bool DecodesToAnything(std::span<const std::uint8_t> bytes) {
  return DecodeBeacon(bytes, kTestKey).has_value() ||
         DecodeFrameAck(bytes, kTestKey).has_value() ||
         DecodeFramePull(bytes, kTestKey).has_value() ||
         DecodeFramePush(bytes, kTestKey).has_value();
}

TEST(FailoverCodecTest, EveryBitFlipAndTruncationIsRejectedNotMisread) {
  for (const auto& frame : TermCarryingFrames()) {
    ASSERT_TRUE(DecodesToAnything(frame));  // the pristine frame is valid
    // Any single-bit flip — term bytes included — breaks the MAC: the
    // frame must decode to nothing, never to a different term or version.
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      auto flipped = frame;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(DecodesToAnything(flipped)) << "bit " << bit;
    }
    // Every truncation and any trailing garbage are equally total.
    for (std::size_t len = 0; len < frame.size(); ++len) {
      EXPECT_FALSE(
          DecodesToAnything(std::span(frame.data(), len)));
    }
    auto extended = frame;
    extended.push_back(0);
    EXPECT_FALSE(DecodesToAnything(extended));
  }
}

/// Replaces the trailing MAC with one under kTestKey, so a deliberately
/// patched frame opens — payload validation must reject it.
void Reseal(std::vector<std::uint8_t>& bytes) {
  Writer w;
  w.raw(std::span(bytes.data(), bytes.size() - kSealMacBytes));
  bytes = Seal(w, kTestKey);
}

TEST(FailoverCodecTest, UnknownAckStatusIsRejectedEvenWithValidChecksum) {
  const auto pristine = EncodeFrameAck(FrameAck{AckStatus::kStaleTerm, 9, 3}, kTestKey);
  // Header is magic(4) + proto version(1) + tag(1); status is the first
  // payload byte.
  constexpr std::size_t kStatusOffset = 6;
  ASSERT_EQ(pristine[kStatusOffset],
            static_cast<std::uint8_t>(AckStatus::kStaleTerm));
  // 4 was the retired delta push's kNeedFullSet.
  for (const std::uint8_t status : {0, 4, 6, 7, 42, 255}) {
    auto patched = pristine;
    patched[kStatusOffset] = status;
    Reseal(patched);
    EXPECT_FALSE(DecodeFrameAck(patched, kTestKey).has_value())
        << "status " << static_cast<int>(status);
  }
  // Sanity: the same patch path yields every defined status, so the
  // rejections above are the range check, not a resealing artifact.
  for (const std::uint8_t status : {1, 2, 3, 5}) {
    auto patched = pristine;
    patched[kStatusOffset] = status;
    Reseal(patched);
    const auto decoded = DecodeFrameAck(patched, kTestKey);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, static_cast<AckStatus>(status));
    EXPECT_EQ(decoded->term, 3u);
  }
}

// --- telemetry reporter failover ---------------------------------------------

/// Transport whose failure mode is switchable mid-test: dead (throws), or
/// delivered-but-ack-lost (backend runs, then the response "drops").
class FlakyTransport final : public Transport {
 public:
  enum class Mode { kOk, kDead, kAckLost };
  explicit FlakyTransport(Handler backend) : backend_(std::move(backend)) {}
  void set_mode(Mode mode) { mode_ = mode; }

  std::vector<std::uint8_t> Call(std::span<const std::uint8_t> request) override {
    if (mode_ == Mode::kDead) throw std::runtime_error("connection refused");
    auto response = backend_(request);
    if (mode_ == Mode::kAckLost) throw std::runtime_error("response lost");
    return response;
  }

 private:
  Handler backend_;
  Mode mode_ = Mode::kOk;
};

TEST(ReporterFailoverTest, RebindsToTheNewCollectorAfterConsecutiveFailures) {
  LinkLoadCollector old_collector(4);
  LinkLoadCollector new_collector(4);
  FlakyTransport to_old(old_collector.handler());
  InProcessTransport to_new(new_collector.handler());

  Transport* current = &to_old;
  LinkLoadReporter reporter(
      /*reporter_id=*/7, [&current]() -> Transport* { return current; },
      /*rebind_after_failures=*/3);
  reporter.Record(0, 100.0);
  ASSERT_TRUE(reporter.Flush());
  ASSERT_EQ(old_collector.accepted_count(), 1u);

  // The publisher (and its collector) dies; the directory now points at
  // the promoted replica's collector.
  to_old.set_mode(FlakyTransport::Mode::kDead);
  current = &to_new;
  reporter.Record(1, 50.0);
  EXPECT_FALSE(reporter.Flush());
  EXPECT_FALSE(reporter.Flush());
  EXPECT_EQ(reporter.rebind_count(), 0u);  // still probing the old endpoint
  EXPECT_FALSE(reporter.Flush());          // third strike: re-resolve
  EXPECT_EQ(reporter.rebind_count(), 1u);
  // The retained batch lands on the new collector, nothing lost.
  EXPECT_TRUE(reporter.Flush());
  EXPECT_EQ(new_collector.accepted_count(), 1u);
  EXPECT_EQ(new_collector.sample_count(), 1u);
  EXPECT_EQ(reporter.pending(), 0u);
}

TEST(ReporterFailoverTest, LostAckResynchronizesWithoutDoubleCounting) {
  LinkLoadCollector collector(4);
  FlakyTransport channel(collector.handler());
  LinkLoadReporter reporter(/*reporter_id=*/9, &channel);

  // The report gets through but its ack drops: the reporter keeps the
  // batch, the collector has already counted it.
  channel.set_mode(FlakyTransport::Mode::kAckLost);
  reporter.Record(2, 10.0);
  EXPECT_FALSE(reporter.Flush());
  ASSERT_EQ(collector.accepted_count(), 1u);
  ASSERT_EQ(collector.sample_count(), 1u);

  // The retry hits the sequence gate: kStaleSeq resynchronizes the
  // reporter (batch dropped, seq advanced) and nothing is double-counted.
  channel.set_mode(FlakyTransport::Mode::kOk);
  EXPECT_TRUE(reporter.Flush());
  EXPECT_EQ(collector.accepted_count(), 1u);
  EXPECT_EQ(collector.sample_count(), 1u);
  EXPECT_EQ(collector.stale_count(), 1u);
  EXPECT_EQ(reporter.pending(), 0u);

  // Sequencing continues cleanly past the resync.
  reporter.Record(3, 20.0);
  EXPECT_TRUE(reporter.Flush());
  EXPECT_EQ(collector.accepted_count(), 2u);
  EXPECT_EQ(collector.sample_count(), 2u);
}

// --- chaos conformance: crash / restart / partition schedules ---------------

void ExpectClean(const FailoverScenarioResult& result, const std::string& tag) {
  for (const auto& violation : result.violations) {
    ADD_FAILURE() << tag << ": " << violation;
  }
}

TEST(FailoverConformanceTest, PublisherCrashPromotesWithinLeaseBudget) {
  FailoverScenarioConfig config;
  config.seed = 11;
  config.rounds = 24;
  config.kill_publisher_round = 8;
  const auto result = RunFailoverScenario(config);
  ExpectClean(result, "crash");
  // Replica 0 promoted at the start, replica 1 after the crash.
  EXPECT_GE(result.promotions, 2u);
  EXPECT_GE(result.final_term, 2u);
  EXPECT_GE(result.final_version, 2 * kTermVersionStride);
  // Lease 3s + rank-1 stagger 1s at 1s/round: the successor must appear
  // within the lease budget (some slack for the round grid).
  ASSERT_GE(result.promote_latency_rounds, 1);
  EXPECT_LE(result.promote_latency_rounds, 7);
}

TEST(FailoverConformanceTest, SplitBrainHealIsFencedNotMerged) {
  FailoverScenarioConfig config;
  config.seed = 21;
  config.rounds = 28;
  config.partition_round = 8;
  config.heal_round = 16;
  const auto result = RunFailoverScenario(config);
  ExpectClean(result, "split-brain");
  // Both sides published during the partition; after healing the fence
  // rejected the old term's pushes and the ex-publisher stepped down.
  EXPECT_GE(result.promotions, 2u);
  EXPECT_GE(result.fenced_rejects, 1u);
  EXPECT_GE(result.demotions, 1u);
  EXPECT_GE(result.final_term, 2u);
}

TEST(FailoverConformanceTest, ColdRestartRepullsAndConverges) {
  FailoverScenarioConfig config;
  config.seed = 31;
  config.rounds = 26;
  config.kill_publisher_round = 8;
  config.revive_publisher_round = 14;
  const auto result = RunFailoverScenario(config);
  ExpectClean(result, "cold-restart");
  EXPECT_GE(result.promotions, 2u);
  EXPECT_GE(result.final_term, 2u);
}

TEST(FailoverConformanceTest, FiveReplicaDoubleFailurePromotesRankTwo) {
  // Kill the first publisher, partition the second: rank 2 must end up
  // holding the cluster, three terms deep.
  FailoverScenarioConfig config;
  config.seed = 41;
  config.rounds = 36;
  config.replicas = 5;
  config.kill_publisher_round = 6;
  config.partition_round = 16;
  config.heal_round = 24;
  const auto result = RunFailoverScenario(config);
  ExpectClean(result, "double-failure");
  EXPECT_GE(result.promotions, 3u);
  EXPECT_GE(result.final_term, 3u);
}

TEST(FailoverConformanceTest, ChaosSweepHoldsInvariantsAcrossSeeds) {
  std::uint64_t total_fenced = 0;
  std::uint64_t total_backoff_skips = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    for (const double drop : {0.1, 0.4}) {
      FailoverScenarioConfig config;
      config.seed = seed;
      config.rounds = 24;
      config.drop_rate = drop;
      config.corrupt_rate = drop / 2;
      // Alternate fault schedules by seed parity: even seeds exercise
      // crash + cold restart, odd seeds exercise split-brain + heal.
      if (seed % 2 == 0) {
        config.kill_publisher_round = 6 + static_cast<int>(seed % 3);
        config.revive_publisher_round = config.kill_publisher_round + 4;
      } else {
        config.partition_round = 12;
        config.heal_round = 16;
      }
      const auto result = RunFailoverScenario(config);
      ExpectClean(result, "seed " + std::to_string(seed) + " drop " +
                              std::to_string(drop));
      total_fenced += result.fenced_rejects;
      total_backoff_skips += result.pull_backoff_skips;
    }
  }
  // The sweep as a whole must actually exercise the fence and the backoff
  // schedule — otherwise the invariants above were proved vacuously.
  EXPECT_GT(total_fenced, 0u);
  EXPECT_GT(total_backoff_skips, 0u);
}

TEST(FailoverConformanceTest, SameSeedReplayIsBitIdentical) {
  FailoverScenarioConfig config;
  config.seed = 42;
  config.rounds = 24;
  config.drop_rate = 0.3;
  config.corrupt_rate = 0.1;
  config.kill_publisher_round = 7;
  config.revive_publisher_round = 12;
  const auto first = RunFailoverScenario(config);
  const auto second = RunFailoverScenario(config);
  ExpectClean(first, "replay A");
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.final_term, second.final_term);
  EXPECT_EQ(first.final_version, second.final_version);
  EXPECT_EQ(first.fenced_rejects, second.fenced_rejects);

  config.seed = 43;
  const auto other = RunFailoverScenario(config);
  EXPECT_NE(first.digest, other.digest);
}

TEST(FailoverConformanceTest, RejectsOutOfRangeConfigs) {
  FailoverScenarioConfig config;
  config.replicas = 1;
  EXPECT_THROW(RunFailoverScenario(config), std::invalid_argument);
  config.replicas = 9;
  EXPECT_THROW(RunFailoverScenario(config), std::invalid_argument);
  config.replicas = 3;
  config.drop_rate = 1.5;
  EXPECT_THROW(RunFailoverScenario(config), std::invalid_argument);
}

// --- promote-vs-serve-vs-tick hammer (TSan target) ---------------------------

TEST_F(FailoverCoordinatorTest, EightThreadPromoteServeTickHammer) {
  // No beacons are delivered while the hammer runs, so leases keep
  // expiring and promotion churn races serving, pulls, and repricing.
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;

  // 2 tickers: thread 0 is the only clock writer; both tick every
  // coordinator.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([this, t, &done] {
      while (!done.load(std::memory_order_relaxed)) {
        if (t == 0) now_ += 0.1;
        for (auto& node : nodes_) node->coordinator->Tick();
      }
    });
  }
  // 2 servers: validate against follower stores; the (term, version) pair
  // must be monotone per observer, derived from ONE store snapshot.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([this, t, &done] {
      auto& node = *nodes_[static_cast<std::size_t>(1 + t)];
      std::pair<std::uint64_t, std::uint64_t> seen{0, 0};
      std::uint64_t nonce = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const auto held = node.store.current();
        if (held) {
          const std::pair<std::uint64_t, std::uint64_t> pair{held->term,
                                                             held->version};
          ASSERT_GE(pair, seen);
          seen = pair;
        }
        const auto answer = node.serve.HandleValidationDatagram(
            EncodeValidationRequest(ValidationRequest{++nonce, seen.second}));
        // An empty store sheds UDP validation (no answer); once frames
        // are held the answer must always decode.
        if (answer) {
          ASSERT_TRUE(DecodeValidationResponse(*answer).has_value());
        }
      }
    });
  }
  // 1 beacon prodder: replays whatever beacons exist into follower 2.
  threads.emplace_back([this, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      for (auto& node : nodes_) {
        const auto beacon = node->coordinator->BeaconFrame();
        if (beacon) nodes_[2]->follower.HandleBeacon(*beacon);
      }
    }
  });
  // 1 puller: anti-entropy pulls toward node 0's coordinator.
  threads.emplace_back([this, &done] {
    InProcessTransport to_zero([this](std::span<const std::uint8_t> request) {
      return nodes_[0]->coordinator->HandleReplication(request);
    });
    while (!done.load(std::memory_order_relaxed)) {
      nodes_[2]->follower.TryPull(to_zero,
                                  now_.load(std::memory_order_relaxed));
    }
  });
  // 2 drivers: reprice rotating trackers — races publisher republish
  // against promotion's AdvanceVersionTo/ResetEncodedState.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([this, t, &done] {
      std::uint64_t i = 0;
      while (!done.load(std::memory_order_relaxed)) {
        nodes_[(t + i) % kNodes]->Reprice(1.0 + static_cast<double>(i % 7));
        ++i;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  done.store(true, std::memory_order_relaxed);
  for (auto& thread : threads) thread.join();

  // Settle single-threaded: deliver beacons + tick until one publisher
  // survives, then check the cluster is in a legal state.
  for (int i = 0; i < 64; ++i) {
    DeliverBeacons();
    TickAll();
    int publishers = 0;
    for (const auto& node : nodes_) {
      if (node->coordinator->role() == FailoverCoordinator::Role::kPublisher) {
        ++publishers;
      }
    }
    if (publishers == 1) break;
  }
  int publishers = 0;
  std::uint64_t max_term = 0;
  for (const auto& node : nodes_) {
    if (node->coordinator->role() == FailoverCoordinator::Role::kPublisher) {
      ++publishers;
      max_term = std::max(max_term, node->coordinator->term());
    }
  }
  EXPECT_EQ(publishers, 1);
  EXPECT_GE(max_term, 1u);
}

}  // namespace
}  // namespace p4p::proto
