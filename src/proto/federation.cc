#include "proto/federation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "proto/messages.h"

namespace p4p::proto {

namespace {

/// A push row is its u64 content stamp. The decoder rejects a wire row
/// count the remaining bytes cannot hold before it sizes a reserve().
constexpr std::size_t kPushRowBytes = 8;

Writer BeginFrame(FederationTag tag, std::size_t payload_bytes) {
  return BeginSealed(kFederationMagic, static_cast<std::uint8_t>(tag), payload_bytes);
}

std::optional<Reader> OpenFrame(std::span<const std::uint8_t> bytes,
                                FederationTag expected, const SealKey& key) {
  const auto payload =
      Open(bytes, kFederationMagic, static_cast<std::uint8_t>(expected), key);
  if (!payload) return std::nullopt;
  return Reader(*payload);
}

}  // namespace

std::optional<FederationTag> PeekFederationTag(std::span<const std::uint8_t> bytes) {
  const auto tag = PeekSealedTag(bytes, kFederationMagic);
  if (!tag || *tag < static_cast<std::uint8_t>(FederationTag::kFramePush) ||
      *tag > static_cast<std::uint8_t>(FederationTag::kBeacon)) {
    return std::nullopt;
  }
  return static_cast<FederationTag>(*tag);
}

std::vector<std::uint8_t> EncodeFramePush(const SnapshotFrameSet& frames,
                                          const SealKey& key) {
  // The push ships the view once plus one stamp per row: every replica
  // cuts its row frames from that view, so they match by construction.
  const std::size_t n = frames.row_versions.size();
  const auto view = frames.view();
  if (ViewFramePids(view) != frames.num_pids ||
      static_cast<std::size_t>(frames.num_pids) != n) {
    throw std::invalid_argument(
        "EncodeFramePush: need a num_pids view frame and one content stamp per row");
  }
  const std::size_t payload = 8 + 8 + 8 + 4 + 4 + frames.not_modified.size() + 4 +
                              view.size() + 4 + n * kPushRowBytes +
                              1 + 4 + frames.policy.size();
  Writer w = BeginFrame(FederationTag::kFramePush, payload);
  w.u64(frames.term);
  w.u64(frames.version);
  w.u64(frames.view_version);
  w.i32(frames.num_pids);
  w.blob(frames.not_modified);
  w.blob(view);
  w.u32(static_cast<std::uint32_t>(n));
  for (const std::uint64_t stamp : frames.row_versions) w.u64(stamp);
  w.u8(frames.policy.empty() ? 0 : 1);
  if (!frames.policy.empty()) w.blob(frames.policy);
  return Seal(w, key);
}

std::optional<SnapshotFrameSet> DecodeFramePush(std::span<const std::uint8_t> bytes,
                                                const SealKey& key) {
  auto opened = OpenFrame(bytes, FederationTag::kFramePush, key);
  if (!opened) return std::nullopt;
  Reader& r = *opened;
  SnapshotFrameSet frames;
  frames.term = r.u64();
  frames.version = r.u64();
  frames.view_version = r.u64();
  frames.num_pids = r.i32();
  frames.not_modified = r.blob();
  frames.external_view = Share(r.blob());
  const std::uint32_t num_rows = r.u32();
  if (!r.ok() || frames.term > kMaxTerm || frames.num_pids < 0 ||
      num_rows != static_cast<std::uint32_t>(frames.num_pids) ||
      num_rows > r.remaining() / kPushRowBytes ||
      ViewFramePids(frames.view()) != frames.num_pids) {
    return std::nullopt;
  }
  frames.row_versions.reserve(num_rows);
  for (std::uint32_t i = 0; i < num_rows; ++i) frames.row_versions.push_back(r.u64());
  const std::uint8_t has_policy = r.u8();
  if (has_policy > 1) return std::nullopt;
  if (has_policy == 1) frames.policy = r.blob();
  if (!r.done()) return std::nullopt;
  return frames;
}

std::vector<std::uint8_t> EncodeFrameAck(const FrameAck& ack, const SealKey& key) {
  Writer w = BeginFrame(FederationTag::kFrameAck, 1 + 8 + 8);
  w.u8(static_cast<std::uint8_t>(ack.status));
  w.u64(ack.version);
  w.u64(ack.term);
  return Seal(w, key);
}

std::optional<FrameAck> DecodeFrameAck(std::span<const std::uint8_t> bytes,
                                       const SealKey& key) {
  auto opened = OpenFrame(bytes, FederationTag::kFrameAck, key);
  if (!opened) return std::nullopt;
  Reader& r = *opened;
  const std::uint8_t status = r.u8();
  FrameAck ack;
  ack.version = r.u64();
  ack.term = r.u64();
  if (!r.done() || ack.term > kMaxTerm) return std::nullopt;
  // Status 4 belonged to the retired delta push.
  switch (static_cast<AckStatus>(status)) {
    case AckStatus::kInstalled:
    case AckStatus::kAlreadyCurrent:
    case AckStatus::kRejected:
    case AckStatus::kStaleTerm:
      ack.status = static_cast<AckStatus>(status);
      break;
    default:
      return std::nullopt;
  }
  return ack;
}

std::vector<std::uint8_t> EncodeFramePull(const FramePull& pull, const SealKey& key) {
  Writer w = BeginFrame(FederationTag::kFramePull, 8 + 8);
  w.u64(pull.have_version);
  w.u64(pull.have_term);
  return Seal(w, key);
}

std::optional<FramePull> DecodeFramePull(std::span<const std::uint8_t> bytes,
                                         const SealKey& key) {
  auto opened = OpenFrame(bytes, FederationTag::kFramePull, key);
  if (!opened) return std::nullopt;
  Reader& r = *opened;
  FramePull pull;
  pull.have_version = r.u64();
  pull.have_term = r.u64();
  if (!r.done() || pull.have_term > kMaxTerm) return std::nullopt;
  return pull;
}

std::vector<std::uint8_t> EncodeBeacon(std::uint64_t term, std::uint64_t version,
                                       const SealKey& key) {
  Writer w = BeginFrame(FederationTag::kBeacon, 8 + 8);
  w.u64(term);
  w.u64(version);
  return Seal(w, key);
}

std::optional<BeaconInfo> DecodeBeacon(std::span<const std::uint8_t> datagram,
                                       const SealKey& key) {
  auto opened = OpenFrame(datagram, FederationTag::kBeacon, key);
  if (!opened) return std::nullopt;
  Reader& r = *opened;
  BeaconInfo info;
  info.term = r.u64();
  info.version = r.u64();
  if (!r.done() || info.term > kMaxTerm) return std::nullopt;
  return info;
}

// --- ReplicatedSnapshotStore ------------------------------------------------

bool ReplicatedSnapshotStore::Install(SnapshotFrameSet frames) {
  std::lock_guard<std::mutex> lock(install_mu_);
  const auto held = current_.load(std::memory_order_acquire);
  if (held && std::pair(frames.term, frames.version) <=
                  std::pair(held->term, held->version)) {
    stale_installs_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  current_.store(std::make_shared<const SnapshotFrameSet>(std::move(frames)),
                 std::memory_order_release);
  installs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t ReplicatedSnapshotStore::version() const {
  const auto held = current_.load(std::memory_order_acquire);
  return held ? held->version : 0;
}

std::uint64_t ReplicatedSnapshotStore::term() const {
  const auto held = current_.load(std::memory_order_acquire);
  return held ? held->term : 0;
}

// --- FollowerPortalService --------------------------------------------------

FollowerPortalService::FollowerPortalService(const ReplicatedSnapshotStore* store)
    : store_(store) {
  if (store_ == nullptr) {
    throw std::invalid_argument("FollowerPortalService: null store");
  }
  // Not-synced-yet shedding frame: explicitly retryable, so failover
  // clients try the next replica instead of surfacing an error.
  not_synced_ = Share(Encode(UnavailableResp{/*retry_after_ms=*/100}));
}

SharedResponse FollowerPortalService::HandleShared(
    std::span<const std::uint8_t> request) const {
  const auto frames = store_->current();
  if (!frames) return not_synced_;
  const auto decoded = Decode(request);
  if (!decoded) return Share(Encode(ErrorMsg{"malformed request"}));
  // Content-version tokens earn NotModified exactly as on the publisher —
  // byte-identical serving includes the conditional protocol.
  if (auto served = ServeDistances(frames, *decoded)) return served;
  if (std::holds_alternative<GetPolicyReq>(*decoded)) {
    if (frames->policy.empty()) {
      return Share(Encode(ErrorMsg{"policy interface not offered"}));
    }
    return SharedResponse(frames, &frames->policy);
  }
  // Followers replicate the p-distance/policy frames only; the capability
  // and pid-map interfaces stay on the publisher.
  return Share(Encode(ErrorMsg{"interface not offered by follower replica"}));
}

std::vector<std::uint8_t> FollowerPortalService::Handle(
    std::span<const std::uint8_t> request) const {
  return *HandleShared(request);
}

std::optional<std::vector<std::uint8_t>> FollowerPortalService::HandleValidationDatagram(
    std::span<const std::uint8_t> datagram) const {
  const auto request = DecodeValidationRequest(datagram);
  if (!request) return std::nullopt;
  const auto frames = store_->current();
  // Before the first install the follower has no version to vouch for:
  // stay silent and let the client's UDP retry/TCP fallback find a synced
  // replica (answering kRevalidateOverTcp would need a version token we
  // don't have).
  if (!frames) return std::nullopt;
  const auto status = (request->if_version != 0 && request->if_version == frames->version)
                          ? ValidationStatus::kNotModified
                          : ValidationStatus::kRevalidateOverTcp;
  return EncodeValidationResponse(request->nonce, status, frames->not_modified);
}

// --- SnapshotFollower -------------------------------------------------------

SnapshotFollower::SnapshotFollower(ReplicatedSnapshotStore* store, SealKey key)
    : store_(store), key_(key) {
  if (store_ == nullptr) {
    throw std::invalid_argument("SnapshotFollower: null store");
  }
}

std::uint64_t SnapshotFollower::ObserveTerm(std::uint64_t term) {
  std::uint64_t known = fence_term_.load(std::memory_order_relaxed);
  bool raised = false;
  while (term > known) {
    if (fence_term_.compare_exchange_weak(known, term,
                                          std::memory_order_acq_rel)) {
      raised = true;
      break;
    }
  }
  // Evidence of a newer publisher re-arms an exhausted retry loop: the
  // endpoint worth pulling from just changed.
  if (raised) ResetPullSchedule();
  return std::max(term, known);
}

void SnapshotFollower::RaiseFenceTerm(std::uint64_t term) { ObserveTerm(term); }

std::vector<std::uint8_t> SnapshotFollower::HandleReplication(
    std::span<const std::uint8_t> request) {
  // The reply to every request but a served pull: the outcome, the held
  // version, and the held term unless a fence term is reported instead.
  const auto ack = [this](AckStatus status, std::optional<std::uint64_t> term = {}) {
    return EncodeFrameAck(
        FrameAck{status, store_->version(), term.value_or(store_->term())}, key_);
  };
  const auto tag = PeekFederationTag(request);
  if (tag == FederationTag::kFramePull) {
    // Promotion-time anti-entropy: a candidate collects the freshest held
    // set from its peers before its first republish.
    const auto pull = DecodeFramePull(request, key_);
    if (!pull) {
      push_rejects_.fetch_add(1, std::memory_order_relaxed);
      return ack(AckStatus::kRejected);
    }
    const auto held = store_->current();
    if (!held || std::pair(held->term, held->version) <=
                     std::pair(pull->have_term, pull->have_version)) {
      return EncodeFrameAck(FrameAck{AckStatus::kAlreadyCurrent,
                                     held ? held->version : 0,
                                     held ? held->term : 0}, key_);
    }
    pulls_served_.fetch_add(1, std::memory_order_relaxed);
    return EncodeFramePush(*held, key_);
  }
  auto frames = DecodeFramePush(request, key_);
  if (!frames) {
    push_rejects_.fetch_add(1, std::memory_order_relaxed);
    return ack(AckStatus::kRejected);
  }
  const std::uint64_t fence = ObserveTerm(frames->term);
  if (frames->term < fence) {
    stale_term_rejects_.fetch_add(1, std::memory_order_relaxed);
    return ack(AckStatus::kStaleTerm, fence);
  }
  if (store_->Install(std::move(*frames))) {
    push_installs_.fetch_add(1, std::memory_order_relaxed);
    return ack(AckStatus::kInstalled);
  }
  push_stales_.fetch_add(1, std::memory_order_relaxed);
  return ack(AckStatus::kAlreadyCurrent);
}

std::optional<std::vector<std::uint8_t>> SnapshotFollower::HandleBeacon(
    std::span<const std::uint8_t> datagram) {
  const auto info = DecodeBeacon(datagram, key_);
  if (info) {
    beacons_.fetch_add(1, std::memory_order_relaxed);
    ObserveTerm(info->term);
    {
      std::lock_guard<std::mutex> lock(beacon_mu_);
      // Monotone lexicographic max: reordered beacons must not shrink the
      // known horizon, and a new term resets the version axis.
      if (std::pair(info->term, info->version) >
          std::pair(beacon_horizon_.term, beacon_horizon_.version)) {
        beacon_horizon_ = *info;
      }
    }
    // Observer runs outside every follower lock, so it may call back into
    // the follower (RaiseFenceTerm, behind, ...) freely.
    if (beacon_observer_) beacon_observer_(info->term, info->version);
  }
  return std::nullopt;
}

void SnapshotFollower::SetBeaconObserver(
    std::function<void(std::uint64_t, std::uint64_t)> observer) {
  beacon_observer_ = std::move(observer);
}

BeaconInfo SnapshotFollower::beacon_horizon() const {
  std::lock_guard<std::mutex> lock(beacon_mu_);
  return beacon_horizon_;
}

bool SnapshotFollower::behind() const {
  const auto horizon = beacon_horizon();
  const auto held = store_->current();
  return std::pair(horizon.term, horizon.version) >
         std::pair(held ? held->term : 0, held ? held->version : 0);
}

bool SnapshotFollower::PullOnce(Transport& publisher) {
  pulls_.fetch_add(1, std::memory_order_relaxed);
  const auto held = store_->current();
  const FramePull have{held ? held->version : 0, held ? held->term : 0};
  // A kFrameAck (kAlreadyCurrent) or a malformed answer decodes to nothing.
  auto frames = DecodeFramePush(publisher.Call(EncodeFramePull(have, key_)), key_);
  if (!frames) return false;
  // Pull answers are fenced like pushes: a stale-term publisher's set is
  // never installed, however fresh its version claims to be.
  if (frames->term < ObserveTerm(frames->term)) return false;
  if (!store_->Install(std::move(*frames))) return false;
  pull_installs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SnapshotFollower::ConfigurePullRetry(PullRetryOptions options,
                                          std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(retry_mu_);
  retry_options_ = options;
  retry_configured_ = true;
  retry_rng_.seed(seed ^ 0x9E3779B97F4A7C15ULL);
  next_pull_due_ = 0.0;
  consecutive_pull_failures_ = 0;
}

bool SnapshotFollower::PullDue(double now_seconds) const {
  std::lock_guard<std::mutex> lock(retry_mu_);
  if (!retry_configured_) return true;
  if (retry_options_.max_attempts > 0 &&
      consecutive_pull_failures_ >= retry_options_.max_attempts) {
    return false;
  }
  return now_seconds >= next_pull_due_;
}

bool SnapshotFollower::TryPull(Transport& publisher, double now_seconds) {
  if (!PullDue(now_seconds)) {
    pull_backoff_skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  bool advanced = false;
  try {
    advanced = PullOnce(publisher);
  } catch (const std::exception&) {
    // A dead transport is exactly what the backoff exists for.
  }
  NotePullResult(advanced, now_seconds);
  return advanced;
}

void SnapshotFollower::NotePullResult(bool advanced, double now_seconds) {
  std::lock_guard<std::mutex> lock(retry_mu_);
  if (!retry_configured_) return;
  if (advanced) {
    consecutive_pull_failures_ = 0;
    next_pull_due_ = now_seconds;
    return;
  }
  ++consecutive_pull_failures_;
  if (retry_options_.max_attempts > 0 &&
      consecutive_pull_failures_ >= retry_options_.max_attempts) {
    if (consecutive_pull_failures_ == retry_options_.max_attempts) {
      pull_retry_exhaustions_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  double delay = retry_options_.initial_backoff_seconds *
                 std::pow(retry_options_.backoff_factor,
                          consecutive_pull_failures_ - 1);
  delay = std::min(delay, retry_options_.max_backoff_seconds);
  if (retry_options_.jitter > 0.0) {
    std::uniform_real_distribution<double> scale(1.0 - retry_options_.jitter,
                                                 1.0 + retry_options_.jitter);
    delay *= scale(retry_rng_);
  }
  next_pull_due_ = now_seconds + delay;
}

void SnapshotFollower::ResetPullSchedule() {
  std::lock_guard<std::mutex> lock(retry_mu_);
  consecutive_pull_failures_ = 0;
  next_pull_due_ = 0.0;
}

// --- SnapshotPublisher ------------------------------------------------------

SnapshotPublisher::SnapshotPublisher(const ITrackerService* service,
                                     PublisherOptions options)
    : service_(service), options_(std::move(options)), term_(options_.term) {
  if (service_ == nullptr) {
    throw std::invalid_argument("SnapshotPublisher: null service");
  }
  if (options_.term > kMaxTerm) {
    throw std::invalid_argument("SnapshotPublisher: term above kMaxTerm");
  }
}

std::uint64_t SnapshotPublisher::term() const {
  return term_.load(std::memory_order_acquire);
}

void SnapshotPublisher::SetTerm(std::uint64_t term) {
  if (term > kMaxTerm) {
    throw std::invalid_argument("SnapshotPublisher: term above kMaxTerm");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (term <= term_.load(std::memory_order_relaxed)) return;
  term_.store(term, std::memory_order_release);
  // Everything cached was stamped with the old term: drop it so the next
  // publish re-exports and re-encodes under the new one.
  frames_.reset();
  push_frame_.reset();
  encoded_version_ = 0;
  // Followers' held sets belong to the old term: push to every one again.
  for (auto& follower : followers_) follower.acked_version = 0;
  // A promotion supersedes whatever fenced us before.
  fenced_.store(false, std::memory_order_release);
  observed_fence_term_.store(0, std::memory_order_release);
}

bool SnapshotPublisher::fenced() const {
  return fenced_.load(std::memory_order_acquire);
}

std::uint64_t SnapshotPublisher::observed_fence_term() const {
  return observed_fence_term_.load(std::memory_order_acquire);
}

std::uint64_t SnapshotPublisher::stale_term_ack_count() const {
  return stale_term_acks_.load(std::memory_order_relaxed);
}

void SnapshotPublisher::AddFollower(std::string /*target*/, std::uint16_t /*port*/,
                                    std::unique_ptr<Transport> channel) {
  if (!channel) {
    throw std::invalid_argument("SnapshotPublisher: null follower channel");
  }
  std::lock_guard<std::mutex> lock(mu_);
  followers_.push_back(FollowerChannel{std::move(channel), 0});
}

std::shared_ptr<const std::vector<std::uint8_t>>
SnapshotPublisher::CurrentPushFrameLocked() {
  const std::uint64_t version = service_->price_version();
  if (frames_ && push_frame_ && encoded_version_ == version) return push_frame_;
  // One export+encode per version regardless of follower count;
  // ExportFrames reads the service's already-encoded response cache.
  auto exported = service_->ExportFrames();
  // ExportFrames is term-agnostic; the publisher stamps its term here.
  exported.term = term_.load(std::memory_order_relaxed);
  frames_ = std::make_shared<const SnapshotFrameSet>(std::move(exported));
  push_frame_ = Share(EncodeFramePush(*frames_, options_.key));
  encoded_version_ = version;
  return push_frame_;
}

std::size_t SnapshotPublisher::PublishOnce() {
  // A fenced publisher must not push: a higher-term publisher owns the
  // followers now. The coordinator notices fenced() and demotes.
  if (fenced_.load(std::memory_order_acquire)) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const auto frame = CurrentPushFrameLocked();
  const std::uint64_t version = encoded_version_;
  std::size_t confirmed = 0;
  for (auto& follower : followers_) {
    if (follower.acked_version >= version) {
      ++confirmed;
      continue;
    }
    pushes_.fetch_add(1, std::memory_order_relaxed);
    full_frames_sent_.fetch_add(1, std::memory_order_relaxed);
    full_bytes_sent_.fetch_add(frame->size(), std::memory_order_relaxed);
    try {
      const auto ack = DecodeFrameAck(follower.channel->Call(*frame), options_.key);
      if (ack && ack->status == AckStatus::kStaleTerm) {
        // Fenced: a higher-term publisher superseded us. Record the term we
        // lost to and stop pushing — including to the remaining followers
        // in this round; everything we would send is equally stale.
        stale_term_acks_.fetch_add(1, std::memory_order_relaxed);
        observed_fence_term_.store(
            std::max(observed_fence_term_.load(std::memory_order_relaxed),
                     ack->term),
            std::memory_order_release);
        fenced_.store(true, std::memory_order_release);
        break;
      }
      if (ack && (ack->status == AckStatus::kInstalled ||
                  ack->status == AckStatus::kAlreadyCurrent)) {
        follower.acked_version = std::max(follower.acked_version, ack->version);
        if (follower.acked_version >= version) ++confirmed;
        continue;
      }
      push_failures_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception&) {
      // Dead or lossy channel: the follower keeps its last good frames and
      // the next PublishOnce (or its own pull) retries.
      push_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return confirmed;
}

std::uint64_t SnapshotPublisher::published_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return encoded_version_;
}

std::shared_ptr<const SnapshotFrameSet> SnapshotPublisher::published_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_;
}

std::vector<std::uint8_t> SnapshotPublisher::BeaconFrame() const {
  return EncodeBeacon(term_.load(std::memory_order_acquire), service_->price_version(),
                      options_.key);
}

std::vector<std::uint8_t> SnapshotPublisher::HandleReplication(
    std::span<const std::uint8_t> request) {
  const auto pull = DecodeFramePull(request, options_.key);
  const std::uint64_t own_term = term_.load(std::memory_order_acquire);
  if (!pull) {
    return EncodeFrameAck(
        FrameAck{AckStatus::kRejected, service_->price_version(), own_term}, options_.key);
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto frame = CurrentPushFrameLocked();
  if (std::pair(pull->have_term, pull->have_version) >=
      std::pair(own_term, encoded_version_)) {
    return EncodeFrameAck(FrameAck{AckStatus::kAlreadyCurrent, encoded_version_, own_term},
                          options_.key);
  }
  pulls_served_.fetch_add(1, std::memory_order_relaxed);
  full_frames_sent_.fetch_add(1, std::memory_order_relaxed);
  full_bytes_sent_.fetch_add(frame->size(), std::memory_order_relaxed);
  return *frame;
}

// --- publisher election -----------------------------------------------------

std::optional<SrvRecord> ElectPublisher(const PortalDirectory& directory,
                                        const std::string& domain) {
  const auto records = directory.Records(domain);
  if (records.empty()) return std::nullopt;
  const auto* best = &records.front();
  for (const auto& r : records) {
    if (r.priority < best->priority ||
        (r.priority == best->priority &&
         std::tie(r.target, r.port) < std::tie(best->target, best->port))) {
      best = &r;
    }
  }
  return *best;
}

}  // namespace p4p::proto
