#include "proto/federation.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "proto/messages.h"

namespace p4p::proto {

namespace {

/// Smallest encoded rows: a push row is its u64 content stamp; a delta row
/// is a u32 pid, a u64 stamp and a u32 blob length. Decoders reject a wire
/// row count the remaining bytes cannot hold before it sizes a reserve().
constexpr std::size_t kPushRowBytes = 8;
constexpr std::size_t kMinDeltaRowBytes = 4 + 8 + 4;

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
      *tag > static_cast<std::uint8_t>(FederationTag::kDeltaPush)) {
    return std::nullopt;
  }
  return static_cast<FederationTag>(*tag);
}

std::uint64_t FrameSetChecksum(const SnapshotFrameSet& frames) {
  SipHasher hasher(kPublicSealKey);
  const auto u64 = [&hasher](std::uint64_t v) {
    std::uint8_t word[8];
    StoreBig(v, word);
    hasher.update(word);
  };
  // Length-prefixed, so adjacent variable-size fields cannot alias.
  const auto blob = [&](std::span<const std::uint8_t> bytes) {
    u64(bytes.size());
    hasher.update(bytes);
  };
  u64(frames.term);
  u64(frames.version);
  u64(frames.view_version);
  u64(static_cast<std::uint32_t>(frames.num_pids));
  // Row i is hashed as the frame a replica serves for it, streamed from its
  // two parts rather than materialized.
  u64(frames.row_versions.size());
  for (std::size_t i = 0; i < frames.row_versions.size(); ++i) {
    const auto row = SliceViewRow(frames.view(), static_cast<std::int32_t>(i),
                                  frames.row_versions[i]);
    u64(frames.row_versions[i]);
    u64(row.header.size() + row.doubles.size());
    hasher.update(row.header);
    hasher.update(row.doubles);
  }
  blob(frames.not_modified);
  blob(frames.view());
  blob(frames.policy);
  return hasher.finish();
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

std::vector<std::uint8_t> EncodeDeltaPush(const DeltaPush& delta, const SealKey& key) {
  std::size_t payload = 8 + 8 + 8 + 8 + 4 + 4 + delta.not_modified.size() + 4 +
                        1 + 4 + delta.policy.size() + 8;
  for (const auto& row : delta.rows) payload += 4 + 8 + 4 + row.bytes.size();
  Writer w = BeginFrame(FederationTag::kDeltaPush, payload);
  w.u64(delta.term);
  w.u64(delta.base_version);
  w.u64(delta.version);
  w.u64(delta.view_version);
  w.i32(delta.num_pids);
  w.blob(delta.not_modified);
  w.u32(static_cast<std::uint32_t>(delta.rows.size()));
  for (const auto& row : delta.rows) {
    w.u32(static_cast<std::uint32_t>(row.pid));
    w.u64(row.row_version);
    w.blob(row.bytes);
  }
  w.u8(delta.policy.empty() ? 0 : 1);
  if (!delta.policy.empty()) w.blob(delta.policy);
  w.u64(delta.result_checksum);
  return Seal(w, key);
}

std::optional<DeltaPush> DecodeDeltaPush(std::span<const std::uint8_t> bytes,
                                         const SealKey& key) {
  auto opened = OpenFrame(bytes, FederationTag::kDeltaPush, key);
  if (!opened) return std::nullopt;
  Reader& r = *opened;
  DeltaPush delta;
  delta.term = r.u64();
  delta.base_version = r.u64();
  delta.version = r.u64();
  delta.view_version = r.u64();
  delta.num_pids = r.i32();
  delta.not_modified = r.blob();
  const std::uint32_t num_rows = r.u32();
  // Protocol-meaningful relations are validated here (not just by the
  // MAC): a delta that violates them could never have been produced by a
  // correct publisher, so it is rejected before touching any store.
  if (!r.ok() || delta.term > kMaxTerm || delta.num_pids < 0 ||
      delta.base_version >= delta.version ||
      delta.view_version > delta.version ||
      num_rows > static_cast<std::uint32_t>(delta.num_pids) ||
      num_rows > r.remaining() / kMinDeltaRowBytes) {
    return std::nullopt;
  }
  delta.rows.reserve(num_rows);
  std::int64_t prev_pid = -1;
  for (std::uint32_t i = 0; i < num_rows && r.ok(); ++i) {
    DeltaRow row;
    row.pid = static_cast<std::int32_t>(r.u32());
    row.row_version = r.u64();
    row.bytes = r.blob();
    // Canonical strictly-increasing pid order; row stamps must lie in
    // (base, version] or the delta is incoherent.
    if (row.pid <= prev_pid || row.pid >= delta.num_pids ||
        row.row_version <= delta.base_version ||
        row.row_version > delta.version) {
      return std::nullopt;
    }
    prev_pid = row.pid;
    delta.rows.push_back(std::move(row));
  }
  const std::uint8_t has_policy = r.u8();
  if (has_policy > 1) return std::nullopt;
  if (has_policy == 1) delta.policy = r.blob();
  delta.result_checksum = r.u64();
  if (!r.done()) return std::nullopt;
  return delta;
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
  if (status < static_cast<std::uint8_t>(AckStatus::kInstalled) ||
      status > static_cast<std::uint8_t>(AckStatus::kStaleTerm)) {
    return std::nullopt;
  }
  ack.status = static_cast<AckStatus>(status);
  return ack;
}

std::vector<std::uint8_t> EncodeFramePull(const FramePull& pull, const SealKey& key) {
  Writer w = BeginFrame(FederationTag::kFramePull, 8 + 8 + 1);
  w.u64(pull.have_version);
  w.u64(pull.have_term);
  w.u8(pull.want_full ? 1 : 0);
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
  const std::uint8_t want_full = r.u8();
  if (!r.done() || want_full > 1 || pull.have_term > kMaxTerm) return std::nullopt;
  pull.want_full = want_full == 1;
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

ReplicatedSnapshotStore::DeltaResult ReplicatedSnapshotStore::InstallDelta(
    const DeltaPush& delta) {
  std::lock_guard<std::mutex> lock(install_mu_);
  const auto held = current_.load(std::memory_order_acquire);
  // Fencing first: a delta from a term below the held one is a fenced
  // ex-publisher's, whatever its version claims.
  if (held && delta.term < held->term) {
    stale_installs_.fetch_add(1, std::memory_order_relaxed);
    return DeltaResult::kStaleTerm;
  }
  if (held && std::pair(delta.term, delta.version) <=
                  std::pair(held->term, held->version)) {
    stale_installs_.fetch_add(1, std::memory_order_relaxed);
    return DeltaResult::kStale;
  }
  // Exact-base rule: a delta applies to precisely the (term, version) it
  // was computed against, never to "close enough" — deltas never span
  // terms (the publisher's first export after promotion re-stamps every
  // row, so a cross-term delta could not exist anyway).
  if (!held || held->term != delta.term || held->version != delta.base_version ||
      held->num_pids != delta.num_pids ||
      held->row_versions.size() != static_cast<std::size_t>(delta.num_pids) ||
      ViewFramePids(held->view()) != delta.num_pids) {
    return DeltaResult::kBaseMismatch;
  }
  const std::size_t n = held->row_versions.size();

  // Splice into a private copy; readers only ever see the held set or the
  // fully-verified result. The held view buffer is shared with readers and
  // answers in flight, so the splice writes into a copy of it (never into
  // the held bytes).
  auto next = std::make_shared<SnapshotFrameSet>(*held);
  next->version = delta.version;
  next->view_version = delta.view_version;
  next->not_modified = delta.not_modified;
  next->policy = delta.policy;
  std::vector<std::uint8_t> view = *held->external_view;
  for (const auto& row : delta.rows) {
    const auto i = static_cast<std::size_t>(row.pid);
    if (row.bytes.size() !=
        kDistanceFrameDoublesOffset + n * sizeof(double)) {
      return DeltaResult::kBaseMismatch;
    }
    std::memcpy(view.data() + kDistanceFrameDoublesOffset + i * n * sizeof(double),
                row.bytes.data() + kDistanceFrameDoublesOffset,
                n * sizeof(double));
    // Only the doubles and the stamp are taken, so the set stays one matrix
    // whatever the delta row's header said; the checksum below then proves
    // it equals the publisher's.
    next->row_versions[i] = row.row_version;
  }
  // The view frame's embedded version is its content stamp; unchanged rows
  // keep their doubles, so only this field differs from a re-encode.
  PatchVersionField(view, delta.view_version);
  next->external_view = Share(std::move(view));

  // Checksum chain: the spliced result must digest to exactly what the
  // publisher computed over its own frame set, or the delta is discarded
  // with the held frames untouched.
  if (FrameSetChecksum(*next) != delta.result_checksum) {
    return DeltaResult::kChecksumMismatch;
  }
  current_.store(std::move(next), std::memory_order_release);
  installs_.fetch_add(1, std::memory_order_relaxed);
  return DeltaResult::kInstalled;
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
  if (tag == FederationTag::kDeltaPush) {
    const auto delta = DecodeDeltaPush(request, key_);
    if (!delta) {
      push_rejects_.fetch_add(1, std::memory_order_relaxed);
      return ack(AckStatus::kRejected);
    }
    const std::uint64_t fence = ObserveTerm(delta->term);
    if (delta->term < fence) {
      stale_term_rejects_.fetch_add(1, std::memory_order_relaxed);
      return ack(AckStatus::kStaleTerm, fence);
    }
    switch (store_->InstallDelta(*delta)) {
      case ReplicatedSnapshotStore::DeltaResult::kInstalled:
        delta_installs_.fetch_add(1, std::memory_order_relaxed);
        return ack(AckStatus::kInstalled);
      case ReplicatedSnapshotStore::DeltaResult::kStale:
        delta_stales_.fetch_add(1, std::memory_order_relaxed);
        return ack(AckStatus::kAlreadyCurrent);
      case ReplicatedSnapshotStore::DeltaResult::kStaleTerm:
        stale_term_rejects_.fetch_add(1, std::memory_order_relaxed);
        return ack(AckStatus::kStaleTerm);
      case ReplicatedSnapshotStore::DeltaResult::kBaseMismatch:
      case ReplicatedSnapshotStore::DeltaResult::kChecksumMismatch:
        delta_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        return ack(AckStatus::kNeedFullSet);
    }
    // Unreachable, but keeps -Wswitch honest without a default case.
    return ack(AckStatus::kRejected);
  }
  if (tag == FederationTag::kFramePull) {
    // Promotion-time anti-entropy: a candidate collects the freshest held
    // set from its peers before its first republish. Full set only — peers
    // never compute deltas for each other.
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
  const FramePull have{held ? held->version : 0, held ? held->term : 0, false};
  const auto response = publisher.Call(EncodeFramePull(have, key_));
  const auto tag = PeekFederationTag(response);
  if (tag == FederationTag::kFramePush) {
    auto frames = DecodeFramePush(response, key_);
    if (!frames) return false;
    // Pull answers are fenced like pushes: a stale-term publisher's set is
    // never installed, however fresh its version claims to be.
    if (frames->term < ObserveTerm(frames->term)) return false;
    if (store_->Install(std::move(*frames))) {
      pull_installs_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  if (tag == FederationTag::kDeltaPush) {
    if (const auto delta = DecodeDeltaPush(response, key_)) {
      if (delta->term < ObserveTerm(delta->term)) return false;
      switch (store_->InstallDelta(*delta)) {
        case ReplicatedSnapshotStore::DeltaResult::kInstalled:
          delta_installs_.fetch_add(1, std::memory_order_relaxed);
          pull_installs_.fetch_add(1, std::memory_order_relaxed);
          return true;
        case ReplicatedSnapshotStore::DeltaResult::kStale:
          delta_stales_.fetch_add(1, std::memory_order_relaxed);
          return false;
        case ReplicatedSnapshotStore::DeltaResult::kStaleTerm:
          stale_term_rejects_.fetch_add(1, std::memory_order_relaxed);
          return false;
        case ReplicatedSnapshotStore::DeltaResult::kBaseMismatch:
        case ReplicatedSnapshotStore::DeltaResult::kChecksumMismatch:
          delta_fallbacks_.fetch_add(1, std::memory_order_relaxed);
          break;  // unusable delta: escalate to a full pull below
      }
    }
    // The delta answer could not advance us (our base moved between the
    // pull and the answer, or the chain broke): demand the full set once.
    pull_full_retries_.fetch_add(1, std::memory_order_relaxed);
    const auto now_held = store_->current();
    const FramePull full_pull{now_held ? now_held->version : 0,
                              now_held ? now_held->term : 0, true};
    const auto full = publisher.Call(EncodeFramePull(full_pull, key_));
    if (PeekFederationTag(full) == FederationTag::kFramePush) {
      auto frames = DecodeFramePush(full, key_);
      if (frames && frames->term >= ObserveTerm(frames->term) &&
          store_->Install(std::move(*frames))) {
        pull_installs_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }
  // kFrameAck (kAlreadyCurrent) or malformed: nothing newer installed.
  return false;
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
  if (options_.directory != nullptr &&
      (options_.domain.empty() || options_.self_target.empty() ||
       options_.self_port == 0)) {
    throw std::invalid_argument(
        "SnapshotPublisher: directory epoch updates need domain and self identity");
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
  delta_cache_.clear();
  encoded_version_ = 0;
  // Followers' held sets belong to the old term; deltas never span terms,
  // so every follower starts over from a full push.
  for (auto& follower : followers_) {
    follower.acked_version = 0;
    follower.needs_full = false;
  }
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

void SnapshotPublisher::AddFollower(std::string target, std::uint16_t port,
                                    std::unique_ptr<Transport> channel) {
  if (!channel) {
    throw std::invalid_argument("SnapshotPublisher: null follower channel");
  }
  std::lock_guard<std::mutex> lock(mu_);
  followers_.push_back(FollowerChannel{std::move(target), port, std::move(channel), 0});
}

std::size_t SnapshotPublisher::follower_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return followers_.size();
}

void SnapshotPublisher::RefreshLocked() {
  const std::uint64_t version = service_->price_version();
  if (frames_ && push_frame_ && encoded_version_ == version) return;
  // One export+encode per version regardless of follower count;
  // ExportFrames reads the service's already-encoded response cache. The
  // per-base delta cache is valid only for one target version, so it drops
  // here too.
  auto exported = service_->ExportFrames();
  // ExportFrames is term-agnostic; the publisher stamps its term here, so
  // the frames, their checksum, and every delta derived from them carry it.
  exported.term = term_.load(std::memory_order_relaxed);
  frames_ = std::make_shared<const SnapshotFrameSet>(std::move(exported));
  push_frame_ = Share(EncodeFramePush(*frames_, options_.key));
  delta_cache_.clear();
  encoded_version_ = version;
  if (options_.directory != nullptr) {
    options_.directory->UpdateReplicaEpoch(options_.domain, options_.self_target,
                                           options_.self_port,
                                           term_.load(std::memory_order_relaxed),
                                           version);
  }
}

std::shared_ptr<const std::vector<std::uint8_t>>
SnapshotPublisher::CurrentPushFrameLocked() {
  RefreshLocked();
  return push_frame_;
}

std::shared_ptr<const std::vector<std::uint8_t>>
SnapshotPublisher::DeltaFrameLocked(std::uint64_t base) {
  RefreshLocked();
  if (base == 0 || base >= encoded_version_) return nullptr;
  if (const auto it = delta_cache_.find(base); it != delta_cache_.end()) {
    return it->second;
  }
  // Changed rows relative to base are exactly the ones stamped newer: the
  // follower's held set at `base` is a faithful copy of what was published
  // at `base` (monotone installs guarantee it), so no history is needed.
  const auto& stamps = frames_->row_versions;
  const std::size_t n = stamps.size();
  const auto changed = static_cast<std::size_t>(std::count_if(
      stamps.begin(), stamps.end(), [base](std::uint64_t v) { return v > base; }));
  if (changed == n && n > 0) return nullptr;  // full set is no bigger
  DeltaPush delta;
  delta.term = frames_->term;
  delta.base_version = base;
  delta.version = frames_->version;
  delta.view_version = frames_->view_version;
  delta.num_pids = frames_->num_pids;
  delta.not_modified = frames_->not_modified;
  delta.policy = frames_->policy;
  delta.result_checksum = FrameSetChecksum(*frames_);
  delta.rows.reserve(changed);
  for (std::size_t i = 0; i < n; ++i) {
    if (stamps[i] <= base) continue;
    const auto pid = static_cast<std::int32_t>(i);
    delta.rows.push_back(
        DeltaRow{pid, stamps[i], RowFrameFromView(frames_->view(), pid, stamps[i])});
  }
  auto encoded = Share(EncodeDeltaPush(delta, options_.key));
  delta_cache_.emplace(base, encoded);
  return encoded;
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
    auto wire = frame;
    bool is_delta = false;
    if (options_.enable_delta && !follower.needs_full) {
      if (const auto delta = DeltaFrameLocked(follower.acked_version)) {
        wire = delta;
        is_delta = true;
      }
    }
    ++pushes_;
    if (is_delta) {
      ++delta_frames_sent_;
      delta_bytes_sent_ += wire->size();
    } else {
      ++full_frames_sent_;
      full_bytes_sent_ += wire->size();
    }
    try {
      auto response = follower.channel->Call(*wire);
      auto ack = DecodeFrameAck(response, options_.key);
      if (ack && ack->status == AckStatus::kNeedFullSet && is_delta) {
        // The follower's base diverged from its acked version (restart,
        // reset) or the chain broke: fall back to the full set in the same
        // round, and keep sending full until an ack re-establishes a base.
        follower.needs_full = true;
        ++delta_fallbacks_;
        ++pushes_;
        ++full_frames_sent_;
        full_bytes_sent_ += frame->size();
        response = follower.channel->Call(*frame);
        ack = DecodeFrameAck(response, options_.key);
      }
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
        follower.needs_full = false;
        if (options_.directory != nullptr) {
          options_.directory->UpdateReplicaEpoch(
              options_.domain, follower.target, follower.port,
              term_.load(std::memory_order_relaxed), ack->version);
        }
        if (follower.acked_version >= version) ++confirmed;
        continue;
      }
      ++push_failures_;
    } catch (const std::exception&) {
      // Dead or lossy channel: the follower keeps its last good frames and
      // the next PublishOnce (or its own pull) retries.
      ++push_failures_;
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
  // Deltas are only meaningful within one term: a puller holding an older
  // term's set gets the full frame set, whatever its version.
  if (options_.enable_delta && !pull->want_full && pull->have_term == own_term) {
    if (const auto delta = DeltaFrameLocked(pull->have_version)) {
      ++delta_frames_sent_;
      delta_bytes_sent_ += delta->size();
      return *delta;
    }
  }
  ++full_frames_sent_;
  full_bytes_sent_ += frame->size();
  return *frame;
}

std::uint64_t SnapshotPublisher::push_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pushes_;
}

std::uint64_t SnapshotPublisher::push_failure_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return push_failures_;
}

std::uint64_t SnapshotPublisher::pull_served_count() const {
  return pulls_served_.load(std::memory_order_relaxed);
}

std::uint64_t SnapshotPublisher::delta_frames_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_frames_sent_;
}

std::uint64_t SnapshotPublisher::full_frames_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return full_frames_sent_;
}

std::uint64_t SnapshotPublisher::delta_bytes_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_bytes_sent_;
}

std::uint64_t SnapshotPublisher::full_bytes_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return full_bytes_sent_;
}

std::uint64_t SnapshotPublisher::delta_fallback_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_fallbacks_;
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
