// Federated serving plane: snapshot replication across portal replicas.
//
// The paper's iTracker is "the" portal of an ISP, but one ISP runs many
// portal replicas (Section 3's availability argument). Only one of them —
// the publisher, elected statically from the SRV records — runs the
// super-gradient update; the rest are followers that serve the publisher's
// snapshot from replicated bytes. What replicates is not the matrix but the
// already-encoded response frames (SnapshotFrameSet): a follower installs
// the publisher's NotModifiedResp / GetExternalViewResp / GetPolicyResp
// buffers and per-row content stamps verbatim, serves them through the same
// atomic<shared_ptr> publication path the publisher uses, and cuts a per-PID
// row out of the view when a client asks for it, exactly as the publisher
// does (ServeDistances, service.h). The view frame is one immutable buffer
// per version: on the publisher the response cache, every ExportFrames, the
// term-stamped set pushes are encoded from and every full-view answer share
// it; a follower holds the one copy it reads out of the push. Consequences:
//
//   * Version tokens are portal-wide, not per-replica: a client that
//     fetched from replica A gets NotModified from replica B after
//     failover, so the conditional/UDP fast path survives failover.
//   * Aggregate NotModified throughput scales with replica count — a
//     follower's serving cost is identical to the publisher's (one atomic
//     load + a pre-encoded frame, or one row cut from the view), with zero
//     re-encode anywhere.
//   * Consistency is monotone-prefix: a follower either serves the frames
//     of some version the publisher published, or sheds with
//     UnavailableResp before its first install. It never mixes versions
//     and never serves a version it holds no frames for.
//   * Replica freshness stays inside the publisher: it tracks each
//     follower's acked version to decide whom to push, and writes nothing
//     to the PortalDirectory. Failover clients walk plain SRV order; a
//     replica that has not installed a client's token answers with the
//     full view it holds.
//
// Wire format: every frame is a sealed envelope (wire.h),
//   u32 magic "P4PF" | u8 protocol version | u8 tag | payload | u64 MAC
// where the MAC is SealMac over everything before it, keyed with the
// deployment's SealKey (PublisherOptions::key, the SnapshotFollower key).
// A frame sealed under any other key, or altered in flight, is refused, so
// a host without the key cannot push frames or fence the federation with a
// forged term. Tags:
//   kFramePush (publisher -> follower, TCP): the full SnapshotFrameSet,
//              with the matrix on the wire once (layout below).
//   kFrameAck  (follower -> publisher, TCP): install outcome + version.
//   kFramePull (follower -> publisher, TCP): anti-entropy catch-up,
//              payload u64 have_version | u64 have_term; answered with
//              the full push or an ack.
//   kBeacon    (publisher -> followers, UDP): current version, 30 bytes.
// Tag 5, ack status 4 and a 17-byte pull belonged to a retired row-diff
// delta push; all three are refused. Every decoder refuses a term above
// kMaxTerm.
//
// kFramePush payload:
//   u64 term | u64 version | u64 view_version | i32 num_pids |
//   blob not_modified | blob external_view | u32 num_rows (== num_pids) |
//   num_rows x u64 row content stamp | u8 has_policy | [blob policy]
// Row frame i is not shipped, and not held by any replica: it is the
// view's row-i slice behind a GetPDistancesResp header carrying
// (i, row stamp i), cut when a client asks for it (RowFrameFromView,
// messages.h), so every replica's row is byte-equal to the publisher's by
// construction. EncodeFramePush throws std::invalid_argument unless the
// view is a num_pids-PID view frame with one stamp per row; DecodeFramePush
// refuses a view frame that is not a well-formed num_pids x num_pids
// GetExternalViewResp, and a row count the payload cannot hold, before
// sizing anything by it.
// Push and pull ride the existing length-prefixed request/response
// transports (TcpServer/TcpClient or any Transport); the beacon is a
// fire-and-forget datagram — loss only delays gap detection until the next
// beacon or push.
//
// Every publish, and every answered pull, ships the one kFramePush the
// publisher encodes per version (DESIGN.md §12 says why there is no
// row-diff delta).
#pragma once

#include <atomic>
#include <mutex>
#include <random>

#include "proto/directory.h"
#include "proto/service.h"

namespace p4p::proto {

/// First four bytes of every federation frame ("P4PF").
inline constexpr std::uint32_t kFederationMagic = 0x50345046u;

/// Version-token stride between publisher terms: on promotion the new
/// publisher floors its tracker version at `term * kTermVersionStride`, so
/// every term mints version tokens from a disjoint range and a client token
/// can never collide between two split-brain publishers. 2^32 versions per
/// term outlasts any realistic publisher lifetime (a reprice per second for
/// ~136 years).
inline constexpr std::uint64_t kTermVersionStride = 1ULL << 32;

/// Largest term a publisher may hold, so `term * kTermVersionStride` never
/// wraps. Decoders refuse frames carrying a larger term, and a promotion
/// that would need one does not happen.
inline constexpr std::uint64_t kMaxTerm = ~0ULL / kTermVersionStride;

enum class FederationTag : std::uint8_t {
  kFramePush = 1,
  kFrameAck = 2,
  kFramePull = 3,
  kBeacon = 4,
};

enum class AckStatus : std::uint8_t {
  kInstalled = 1,      ///< frames newer than the held version: installed
  kAlreadyCurrent = 2, ///< the follower already holds this (or a newer) version
  kRejected = 3,       ///< malformed push, or a pull the endpoint cannot serve
  /// The push carried a term below the follower's fence (a newer publisher
  /// exists): nothing installed, and the ack's `term` tells the fenced
  /// ex-publisher what term superseded it, so it can demote itself.
  kStaleTerm = 5,
};

struct FrameAck {
  AckStatus status = AckStatus::kRejected;
  /// The responder's installed version after handling the frame.
  std::uint64_t version = 0;
  /// The responder's term: the held set's term for install/current acks,
  /// the fencing term for kStaleTerm.
  std::uint64_t term = 0;
};

struct FramePull {
  /// Version the follower already holds (0 = nothing); the publisher
  /// answers kAlreadyCurrent when nothing newer exists.
  std::uint64_t have_version = 0;
  /// Term of the held set (0 = nothing / pre-federation). The responder
  /// compares (have_term, have_version) lexicographically against its own
  /// pair.
  std::uint64_t have_term = 0;
};

/// Decoded kBeacon payload: the publisher's (term, version) heartbeat.
struct BeaconInfo {
  std::uint64_t term = 0;
  std::uint64_t version = 0;
};

// --- frame codec ------------------------------------------------------------
// Total like the message codec: malformed bytes (bad magic/tag/MAC, a
// different key, truncation, trailing garbage, row-count mismatch, a
// malformed view frame, a term above kMaxTerm) decode to std::nullopt.

/// Throws std::invalid_argument unless external_view is a num_pids-PID view
/// frame and row_versions has num_pids stamps (as ExportFrames produces):
/// the push carries only the view and the stamps.
std::vector<std::uint8_t> EncodeFramePush(const SnapshotFrameSet& frames,
                                          const SealKey& key = kPublicSealKey);
std::optional<SnapshotFrameSet> DecodeFramePush(std::span<const std::uint8_t> bytes,
                                                const SealKey& key = kPublicSealKey);

std::vector<std::uint8_t> EncodeFrameAck(const FrameAck& ack,
                                         const SealKey& key = kPublicSealKey);
std::optional<FrameAck> DecodeFrameAck(std::span<const std::uint8_t> bytes,
                                       const SealKey& key = kPublicSealKey);

std::vector<std::uint8_t> EncodeFramePull(const FramePull& pull,
                                          const SealKey& key = kPublicSealKey);
std::optional<FramePull> DecodeFramePull(std::span<const std::uint8_t> bytes,
                                         const SealKey& key = kPublicSealKey);

std::vector<std::uint8_t> EncodeBeacon(std::uint64_t term, std::uint64_t version,
                                       const SealKey& key = kPublicSealKey);
std::optional<BeaconInfo> DecodeBeacon(std::span<const std::uint8_t> datagram,
                                       const SealKey& key = kPublicSealKey);

/// Tag of a well-framed federation message (magic + protocol version
/// checked, MAC NOT yet verified — dispatch only).
std::optional<FederationTag> PeekFederationTag(std::span<const std::uint8_t> bytes);

// --- replica-side state -----------------------------------------------------

/// Holds the latest installed SnapshotFrameSet behind an atomic shared_ptr:
/// any number of serving threads read it lock-free while the replication
/// path installs newer versions. Installs are monotone in the lexicographic
/// (term, version) order — duplicated, reordered, or fenced-ex-publisher
/// pushes can never roll a follower back or overwrite a newer term's
/// frames. (The failover protocol additionally keeps raw versions monotone
/// across terms via the kTermVersionStride floor, so version tokens never
/// regress either; the store enforces the pair order, the chaos suite the
/// token invariant.)
class ReplicatedSnapshotStore {
 public:
  /// Installs `frames` if (frames.term, frames.version) lexicographically
  /// exceeds the held pair. Returns true when installed.
  bool Install(SnapshotFrameSet frames);

  /// The installed frame set (null before the first install). One acquire
  /// load; the returned pointer stays valid for as long as the caller
  /// holds it, across any number of later installs.
  std::shared_ptr<const SnapshotFrameSet> current() const {
    return current_.load(std::memory_order_acquire);
  }
  /// Version of the installed frame set (0 before the first install).
  std::uint64_t version() const;
  /// Term of the installed frame set (0 before the first install).
  std::uint64_t term() const;
  std::uint64_t install_count() const { return installs_.load(std::memory_order_relaxed); }
  /// Pushes ignored because their version did not exceed the held one.
  std::uint64_t stale_install_count() const {
    return stale_installs_.load(std::memory_order_relaxed);
  }

 private:
  /// Serializes the compare in Install against concurrent installers;
  /// readers never touch it.
  std::mutex install_mu_;
  std::atomic<std::shared_ptr<const SnapshotFrameSet>> current_;
  std::atomic<std::uint64_t> installs_{0};
  std::atomic<std::uint64_t> stale_installs_{0};
};

/// The follower's serving half: answers the portal protocol from a
/// ReplicatedSnapshotStore exactly as ITrackerService answers it from its
/// response cache — the same bytes, through the same ServeDistances.
/// Before the first install every request gets a retryable UnavailableResp
/// (and validation datagrams get silence), so failover clients move on to
/// a synced replica instead of caching an error.
///
/// Thread safety: all handlers may run concurrently with installs.
class FollowerPortalService {
 public:
  /// `store` must outlive the service.
  explicit FollowerPortalService(const ReplicatedSnapshotStore* store);

  std::vector<std::uint8_t> Handle(std::span<const std::uint8_t> request) const;
  SharedResponse HandleShared(std::span<const std::uint8_t> request) const;
  std::optional<std::vector<std::uint8_t>> HandleValidationDatagram(
      std::span<const std::uint8_t> datagram) const;

  Handler handler() const {
    return [this](std::span<const std::uint8_t> req) { return Handle(req); };
  }
  SharedHandler shared_handler() const {
    return [this](std::span<const std::uint8_t> req) { return HandleShared(req); };
  }
  DatagramHandler validation_handler() const {
    return [this](std::span<const std::uint8_t> d) {
      return HandleValidationDatagram(d);
    };
  }

 private:
  const ReplicatedSnapshotStore* store_;
  /// Pre-encoded UnavailableResp served before the first install.
  SharedResponse not_synced_;
};

/// Jittered exponential backoff for a follower's anti-entropy re-pull
/// loop, so a dead or unreachable publisher is probed ever more slowly
/// instead of hammered every tick, and a bounded number of consecutive
/// failures stops the loop entirely until new evidence of a live publisher
/// (a beacon or a successful install) arrives.
struct PullRetryOptions {
  double initial_backoff_seconds = 0.1;
  double backoff_factor = 2.0;
  double max_backoff_seconds = 5.0;
  /// Each delay is scaled by a factor drawn from [1-jitter, 1+jitter].
  double jitter = 0.25;
  /// Consecutive non-advancing pulls after which TryPull stops retrying
  /// (until the schedule resets). 0 = no cap.
  int max_attempts = 8;
};

/// The follower's replication half: accepts frame pushes, watches
/// (term, version) beacons for gaps, pulls from the publisher to catch up,
/// and serves its own held set to pulling peers (promotion-time
/// anti-entropy). One SnapshotFollower feeds one ReplicatedSnapshotStore;
/// handlers may run on transport threads concurrently with each other and
/// with TryPull/PullOnce.
///
/// Term fencing: the follower tracks the highest term it has ever observed
/// (beacons, pushes, installs). A push whose term is below that
/// fence is answered AckStatus::kStaleTerm without touching the store —
/// the fenced ex-publisher learns the superseding term from the ack.
class SnapshotFollower {
 public:
  /// `store` must outlive the follower. `key` opens the publisher's frames
  /// and seals this follower's answers.
  explicit SnapshotFollower(ReplicatedSnapshotStore* store,
                            SealKey key = kPublicSealKey);

  /// Handler for the replication endpoint (a TcpServer or any request/
  /// response transport): installs FramePush, answers FrameAck, and
  /// serves FramePull from the held set (so a promoting candidate can
  /// collect the freshest frames from its peers). Malformed frames get
  /// AckStatus::kRejected — never silence, so the publisher can tell a
  /// corrupt channel from a dead one; a push below the term fence gets
  /// AckStatus::kStaleTerm.
  std::vector<std::uint8_t> HandleReplication(std::span<const std::uint8_t> request);
  Handler replication_handler() {
    return [this](std::span<const std::uint8_t> req) { return HandleReplication(req); };
  }

  /// Consumes one version beacon datagram; never answers (returns
  /// std::nullopt always — beacons are fire-and-forget). Malformed or
  /// corrupt beacons are dropped by their MAC. A valid beacon raises the
  /// term fence, feeds gap detection, resets an exhausted pull schedule
  /// when it announces a newer term, and is reported to the observer (the
  /// failover coordinator's lease tracking).
  std::optional<std::vector<std::uint8_t>> HandleBeacon(
      std::span<const std::uint8_t> datagram);

  /// Called with every structurally valid beacon's (term, version), after
  /// the follower's own bookkeeping, outside its locks. Setup-time only.
  void SetBeaconObserver(std::function<void(std::uint64_t, std::uint64_t)> observer);

  /// True when a beacon announced a (term, version) lexicographically newer
  /// than the installed pair — a push was lost and a pull is due.
  bool behind() const;
  /// Highest (term, version) any beacon announced (0/0 = none seen).
  BeaconInfo beacon_horizon() const;
  std::uint64_t beacon_version() const { return beacon_horizon().version; }

  /// The highest term observed from any source (beacons, pushes, installs);
  /// pushes below it are fenced off with kStaleTerm.
  std::uint64_t fence_term() const { return fence_term_.load(std::memory_order_acquire); }
  /// The key this follower opens and seals frames with.
  const SealKey& key() const { return key_; }
  /// Raises the fence (idempotent, monotone) — the coordinator calls this
  /// when it adopts a term on promotion.
  void RaiseFenceTerm(std::uint64_t term);

  /// Anti-entropy catch-up: asks `publisher` (its replication endpoint) for
  /// anything newer than the installed (term, version) and installs the
  /// full frame set it answers with. Returns true when a newer version was
  /// installed. Throws what the transport throws; a malformed
  /// answer returns false. Does NOT consult the retry schedule — use
  /// TryPull for backoff-gated pulling.
  bool PullOnce(Transport& publisher);

  /// Configures the jittered-backoff retry schedule TryPull enforces.
  /// Setup-time only.
  void ConfigurePullRetry(PullRetryOptions options, std::uint64_t seed = 0);
  /// Whether a TryPull at `now_seconds` would actually pull (the schedule
  /// allows it and the attempt cap is not exhausted).
  bool PullDue(double now_seconds) const;
  /// Backoff-gated PullOnce: skips (returning false) while a backoff delay
  /// is pending or the consecutive-failure cap is exhausted; otherwise
  /// pulls, records the outcome (a transport throw or a non-advancing
  /// answer backs off harder; an install resets the schedule), and never
  /// propagates transport exceptions.
  bool TryPull(Transport& publisher, double now_seconds);

  std::uint64_t push_install_count() const { return push_installs_.load(); }
  std::uint64_t push_stale_count() const { return push_stales_.load(); }
  std::uint64_t push_rejected_count() const { return push_rejects_.load(); }
  /// Pushes refused because their term was below the fence.
  std::uint64_t stale_term_reject_count() const { return stale_term_rejects_.load(); }
  std::uint64_t beacon_count() const { return beacons_.load(); }
  std::uint64_t pull_count() const { return pulls_.load(); }
  std::uint64_t pull_install_count() const { return pull_installs_.load(); }
  /// Peer pulls answered from the held set.
  std::uint64_t pull_served_count() const { return pulls_served_.load(); }
  /// TryPull invocations skipped by the backoff schedule or attempt cap.
  std::uint64_t pull_backoff_skip_count() const { return pull_backoff_skips_.load(); }
  /// Times the consecutive-failure cap disarmed the retry loop.
  std::uint64_t pull_retry_exhausted_count() const {
    return pull_retry_exhaustions_.load();
  }

 private:
  /// Raises the fence from any observation; returns the resulting fence.
  std::uint64_t ObserveTerm(std::uint64_t term);
  /// Records a TryPull outcome and schedules the next attempt.
  void NotePullResult(bool advanced, double now_seconds);
  /// Re-arms the retry schedule (new-term beacon, successful install).
  void ResetPullSchedule();

  ReplicatedSnapshotStore* store_;
  const SealKey key_;
  std::atomic<std::uint64_t> fence_term_{0};
  std::function<void(std::uint64_t, std::uint64_t)> beacon_observer_;
  /// Guards the beacon horizon pair (term + version must move together).
  mutable std::mutex beacon_mu_;
  BeaconInfo beacon_horizon_{};
  /// Guards the retry schedule.
  mutable std::mutex retry_mu_;
  PullRetryOptions retry_options_{};
  bool retry_configured_ = false;
  std::mt19937_64 retry_rng_{0x9E3779B97F4A7C15ULL};
  double next_pull_due_ = 0.0;
  int consecutive_pull_failures_ = 0;
  std::atomic<std::uint64_t> push_installs_{0};
  std::atomic<std::uint64_t> push_stales_{0};
  std::atomic<std::uint64_t> push_rejects_{0};
  std::atomic<std::uint64_t> stale_term_rejects_{0};
  std::atomic<std::uint64_t> beacons_{0};
  std::atomic<std::uint64_t> pulls_{0};
  std::atomic<std::uint64_t> pull_installs_{0};
  std::atomic<std::uint64_t> pulls_served_{0};
  std::atomic<std::uint64_t> pull_backoff_skips_{0};
  std::atomic<std::uint64_t> pull_retry_exhaustions_{0};
};

struct PublisherOptions {
  /// The publisher's term, stamped into every push and beacon.
  /// 0 keeps the pre-failover single-publisher behaviour; the failover
  /// coordinator sets a real term via SetTerm on promotion. At most
  /// kMaxTerm.
  std::uint64_t term = 0;
  /// Deployment key sealing every frame this publisher sends and opening
  /// every frame it receives; followers must hold the same key.
  SealKey key = kPublicSealKey;
};

/// The publisher's replication half, layered on an ITrackerService: encodes
/// the current version's frames into one push frame (cached per version —
/// republishing to N followers encodes once) and pushes it to every
/// follower lagging the current version. Also answers follower pulls with
/// the same push frame.
///
/// Thread safety: PublishOnce, HandleReplication, and BeaconFrame may be
/// called concurrently (the TSan hammer does); AddFollower is setup-time.
class SnapshotPublisher {
 public:
  /// `service` must outlive the publisher.
  explicit SnapshotPublisher(const ITrackerService* service,
                             PublisherOptions options = {});

  /// Registers a follower push channel. The channel is typically a
  /// TcpClient to the follower's replication TcpServer. `target` and `port`
  /// name the follower's SRV record but are not read: perfbench still
  /// passes them, and they go when it stops.
  void AddFollower(std::string target, std::uint16_t port,
                   std::unique_ptr<Transport> channel);

  /// The term this publisher stamps into pushes and beacons.
  std::uint64_t term() const;
  /// The key this publisher seals and opens frames with (PublisherOptions::key).
  const SealKey& key() const { return options_.key; }
  /// Adopts a (new, higher) term: invalidates the per-version frame caches
  /// so the next publish re-stamps everything, clears every follower's
  /// acked version (their held sets belong to an older term), and
  /// un-fences the publisher. The failover coordinator calls this on
  /// promotion. Throws std::invalid_argument above kMaxTerm.
  void SetTerm(std::uint64_t term);

  /// True once any follower acked kStaleTerm: a higher-term publisher
  /// exists and this one must stop publishing (the coordinator demotes it).
  /// PublishOnce is a no-op while fenced.
  bool fenced() const;
  /// The superseding term learned from the kStaleTerm ack (0 = not fenced).
  std::uint64_t observed_fence_term() const;
  /// kStaleTerm acks received across all followers.
  std::uint64_t stale_term_ack_count() const;

  /// Pushes the current version to every follower that has not acked it
  /// yet; followers already at the current version cost nothing. A failed
  /// push (transport error or rejection) is counted and retried on the
  /// next call — PublishOnce is the idempotent unit a version listener or
  /// republish loop drives. Returns the number of followers confirmed at
  /// the current version after this round.
  std::size_t PublishOnce();

  /// The version PublishOnce last encoded (0 before the first publish).
  std::uint64_t published_version() const;
  /// The term-stamped frame set PublishOnce last encoded (null before the
  /// first publish); its view frame is the service's own buffer.
  std::shared_ptr<const SnapshotFrameSet> published_frames() const;

  /// Encoded beacon datagram for the service's current version; broadcast
  /// it over any datagram channel(s) after a publish.
  std::vector<std::uint8_t> BeaconFrame() const;

  /// Replication endpoint: answers FramePull with the cached push frame,
  /// kAlreadyCurrent when nothing newer exists, kRejected for anything
  /// malformed. Lets followers catch up through the same TcpServer
  /// machinery the portal uses.
  std::vector<std::uint8_t> HandleReplication(std::span<const std::uint8_t> request);
  Handler replication_handler() {
    return [this](std::span<const std::uint8_t> req) { return HandleReplication(req); };
  }

  // Counters are relaxed atomics: a read never waits for a publish round.
  std::uint64_t push_count() const { return pushes_.load(std::memory_order_relaxed); }
  std::uint64_t push_failure_count() const {
    return push_failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t pull_served_count() const {
    return pulls_served_.load(std::memory_order_relaxed);
  }
  /// Wire accounting over pushes and served pulls.
  std::uint64_t full_frames_sent() const {
    return full_frames_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t full_bytes_sent() const {
    return full_bytes_sent_.load(std::memory_order_relaxed);
  }
  /// Always 0, since every frame is a full push; kept for perfbench's
  /// `federation.delta_frac` and removed together with that metric.
  std::uint64_t delta_frames_sent() const { return 0; }
  std::uint64_t delta_bytes_sent() const { return 0; }

 private:
  struct FollowerChannel {
    std::unique_ptr<Transport> channel;
    std::uint64_t acked_version = 0;
  };

  /// Refreshes frames_/push_frame_ for the service's current version,
  /// re-encoding only when the version moved since the last call, and
  /// returns the push frame. Caller must hold mu_.
  std::shared_ptr<const std::vector<std::uint8_t>> CurrentPushFrameLocked();

  const ITrackerService* service_;
  PublisherOptions options_;
  mutable std::mutex mu_;
  /// Current term (starts at options_.term, moved by SetTerm). Atomic so
  /// BeaconFrame/term() never need mu_.
  std::atomic<std::uint64_t> term_{0};
  std::atomic<bool> fenced_{false};
  std::atomic<std::uint64_t> observed_fence_term_{0};
  std::atomic<std::uint64_t> stale_term_acks_{0};
  std::uint64_t encoded_version_ = 0;
  /// The current version's term-stamped frame set and its push frame.
  std::shared_ptr<const SnapshotFrameSet> frames_;
  std::shared_ptr<const std::vector<std::uint8_t>> push_frame_;
  std::vector<FollowerChannel> followers_;
  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> push_failures_{0};
  std::atomic<std::uint64_t> full_frames_sent_{0};
  std::atomic<std::uint64_t> full_bytes_sent_{0};
  std::atomic<std::uint64_t> pulls_served_{0};
};

/// Static publisher election: the record with the lowest SRV priority wins,
/// ties broken by (target, port) lexicographic order. Every replica
/// resolving the same records computes the same winner with no
/// coordination — exactly the determinism DNS SRV failover already gives
/// the client side. std::nullopt for unknown/empty domains.
std::optional<SrvRecord> ElectPublisher(const PortalDirectory& directory,
                                        const std::string& domain);

}  // namespace p4p::proto
