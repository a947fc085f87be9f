#include "proto/federation.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "proto/messages.h"

namespace p4p::proto {

namespace {

/// Appends the frame header (magic + protocol version + tag).
void FrameHeader(Writer& w, FederationTag tag) {
  w.u32(kFederationMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(tag));
}

/// Seals the frame with the trailing FNV-1a checksum.
std::vector<std::uint8_t> Seal(Writer& w) {
  w.u32(FrameChecksum(w.bytes()));
  return w.take();
}

/// Smallest encoded rows: a frame row is a u64 stamp plus a u32 blob
/// length; a delta row adds a u32 pid. Decoders reject a wire row count
/// the remaining bytes cannot hold before it sizes a reserve().
constexpr std::size_t kMinFrameRowBytes = 8 + 4;
constexpr std::size_t kMinDeltaRowBytes = 4 + 8 + 4;

/// Verifies the trailing checksum and the header; returns a Reader over
/// the payload after the tag, or std::nullopt. `expected` pins the tag.
std::optional<std::span<const std::uint8_t>> CheckedPayload(
    std::span<const std::uint8_t> bytes, FederationTag expected) {
  // Header (6) + checksum (4) is the minimum frame.
  if (bytes.size() < 10) return std::nullopt;
  const auto body = bytes.first(bytes.size() - 4);
  Reader tail(bytes.subspan(body.size()));
  if (tail.u32() != FrameChecksum(body)) return std::nullopt;
  Reader header(body);
  if (header.u32() != kFederationMagic) return std::nullopt;
  if (header.u8() != kProtocolVersion) return std::nullopt;
  if (header.u8() != static_cast<std::uint8_t>(expected)) return std::nullopt;
  return body.subspan(6);
}

}  // namespace

std::optional<FederationTag> PeekFederationTag(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  if (r.u32() != kFederationMagic) return std::nullopt;
  if (r.u8() != kProtocolVersion) return std::nullopt;
  const std::uint8_t tag = r.u8();
  if (!r.ok() || tag < static_cast<std::uint8_t>(FederationTag::kFramePush) ||
      tag > static_cast<std::uint8_t>(FederationTag::kDeltaPush)) {
    return std::nullopt;
  }
  return static_cast<FederationTag>(tag);
}

namespace {

/// Incremental FNV-1a (same constants as FrameChecksum) for digesting a
/// frame set without materializing one contiguous buffer.
class Fnv32 {
 public:
  void bytes(std::span<const std::uint8_t> data) {
    for (const std::uint8_t b : data) {
      hash_ = (hash_ ^ b) * 16777619u;
    }
  }
  void u32(std::uint32_t v) {
    const std::uint8_t buf[4] = {
        static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    bytes(buf);
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  /// Length-prefixed, so adjacent variable-size fields cannot alias.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    bytes(data);
  }
  std::uint32_t digest() const { return hash_; }

 private:
  std::uint32_t hash_ = 2166136261u;
};

}  // namespace

std::uint32_t FrameSetChecksum(const SnapshotFrameSet& frames) {
  Fnv32 fnv;
  fnv.u64(frames.term);
  fnv.u64(frames.version);
  fnv.u64(frames.view_version);
  fnv.u32(static_cast<std::uint32_t>(frames.num_pids));
  fnv.u32(static_cast<std::uint32_t>(frames.rows.size()));
  for (std::size_t i = 0; i < frames.rows.size(); ++i) {
    fnv.u64(i < frames.row_versions.size() ? frames.row_versions[i] : 0);
    fnv.blob(frames.rows[i]);
  }
  fnv.blob(frames.not_modified);
  fnv.blob(frames.external_view);
  fnv.blob(frames.policy);
  return fnv.digest();
}

std::vector<std::uint8_t> EncodeFramePush(const SnapshotFrameSet& frames) {
  Writer w;
  std::size_t payload = 8 + 8 + 8 + 4 + 4 + frames.external_view.size() + 4 +
                        frames.not_modified.size() + 4 + 1 + 4 + frames.policy.size();
  for (const auto& row : frames.rows) payload += 8 + 4 + row.size();
  w.reserve(6 + payload + 4);
  FrameHeader(w, FederationTag::kFramePush);
  w.u64(frames.term);
  w.u64(frames.version);
  w.u64(frames.view_version);
  w.i32(frames.num_pids);
  w.blob(frames.not_modified);
  w.blob(frames.external_view);
  w.u32(static_cast<std::uint32_t>(frames.rows.size()));
  for (std::size_t i = 0; i < frames.rows.size(); ++i) {
    w.u64(i < frames.row_versions.size() ? frames.row_versions[i] : frames.version);
    w.blob(frames.rows[i]);
  }
  w.u8(frames.policy.empty() ? 0 : 1);
  if (!frames.policy.empty()) w.blob(frames.policy);
  return Seal(w);
}

std::optional<SnapshotFrameSet> DecodeFramePush(std::span<const std::uint8_t> bytes) {
  const auto payload = CheckedPayload(bytes, FederationTag::kFramePush);
  if (!payload) return std::nullopt;
  Reader r(*payload);
  SnapshotFrameSet frames;
  frames.term = r.u64();
  frames.version = r.u64();
  frames.view_version = r.u64();
  frames.num_pids = r.i32();
  frames.not_modified = r.blob();
  frames.external_view = r.blob();
  const std::uint32_t num_rows = r.u32();
  if (!r.ok() || frames.num_pids < 0 ||
      num_rows != static_cast<std::uint32_t>(frames.num_pids) ||
      num_rows > r.remaining() / kMinFrameRowBytes) {
    return std::nullopt;
  }
  frames.rows.reserve(num_rows);
  frames.row_versions.reserve(num_rows);
  for (std::uint32_t i = 0; i < num_rows && r.ok(); ++i) {
    frames.row_versions.push_back(r.u64());
    frames.rows.push_back(r.blob());
  }
  const std::uint8_t has_policy = r.u8();
  if (has_policy > 1) return std::nullopt;
  if (has_policy == 1) frames.policy = r.blob();
  if (!r.done()) return std::nullopt;
  return frames;
}

std::vector<std::uint8_t> EncodeDeltaPush(const DeltaPush& delta) {
  Writer w;
  std::size_t payload = 8 + 8 + 8 + 8 + 4 + 4 + delta.not_modified.size() + 4 +
                        1 + 4 + delta.policy.size() + 4;
  for (const auto& row : delta.rows) payload += 4 + 8 + 4 + row.bytes.size();
  w.reserve(6 + payload + 4);
  FrameHeader(w, FederationTag::kDeltaPush);
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
  w.u32(delta.result_checksum);
  return Seal(w);
}

std::optional<DeltaPush> DecodeDeltaPush(std::span<const std::uint8_t> bytes) {
  const auto payload = CheckedPayload(bytes, FederationTag::kDeltaPush);
  if (!payload) return std::nullopt;
  Reader r(*payload);
  DeltaPush delta;
  delta.term = r.u64();
  delta.base_version = r.u64();
  delta.version = r.u64();
  delta.view_version = r.u64();
  delta.num_pids = r.i32();
  delta.not_modified = r.blob();
  const std::uint32_t num_rows = r.u32();
  // Protocol-meaningful relations are validated here (not just by
  // checksum): a delta that violates them could never have been produced
  // by a correct publisher, so it is rejected before touching any store.
  if (!r.ok() || delta.num_pids < 0 ||
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
  delta.result_checksum = r.u32();
  if (!r.done()) return std::nullopt;
  return delta;
}

std::vector<std::uint8_t> EncodeFrameAck(const FrameAck& ack) {
  Writer w;
  w.reserve(6 + 1 + 8 + 8 + 4);
  FrameHeader(w, FederationTag::kFrameAck);
  w.u8(static_cast<std::uint8_t>(ack.status));
  w.u64(ack.version);
  w.u64(ack.term);
  return Seal(w);
}

std::optional<FrameAck> DecodeFrameAck(std::span<const std::uint8_t> bytes) {
  const auto payload = CheckedPayload(bytes, FederationTag::kFrameAck);
  if (!payload) return std::nullopt;
  Reader r(*payload);
  const std::uint8_t status = r.u8();
  FrameAck ack;
  ack.version = r.u64();
  ack.term = r.u64();
  if (!r.done()) return std::nullopt;
  if (status < static_cast<std::uint8_t>(AckStatus::kInstalled) ||
      status > static_cast<std::uint8_t>(AckStatus::kStaleTerm)) {
    return std::nullopt;
  }
  ack.status = static_cast<AckStatus>(status);
  return ack;
}

std::vector<std::uint8_t> EncodeFramePull(const FramePull& pull) {
  Writer w;
  w.reserve(6 + 8 + 8 + 1 + 4);
  FrameHeader(w, FederationTag::kFramePull);
  w.u64(pull.have_version);
  w.u64(pull.have_term);
  w.u8(pull.want_full ? 1 : 0);
  return Seal(w);
}

std::optional<FramePull> DecodeFramePull(std::span<const std::uint8_t> bytes) {
  const auto payload = CheckedPayload(bytes, FederationTag::kFramePull);
  if (!payload) return std::nullopt;
  Reader r(*payload);
  FramePull pull;
  pull.have_version = r.u64();
  pull.have_term = r.u64();
  const std::uint8_t want_full = r.u8();
  if (want_full > 1) return std::nullopt;
  pull.want_full = want_full == 1;
  if (!r.done()) return std::nullopt;
  return pull;
}

std::vector<std::uint8_t> EncodeBeacon(std::uint64_t term, std::uint64_t version) {
  Writer w;
  w.reserve(6 + 8 + 8 + 4);
  FrameHeader(w, FederationTag::kBeacon);
  w.u64(term);
  w.u64(version);
  return Seal(w);
}

std::optional<BeaconInfo> DecodeBeacon(std::span<const std::uint8_t> datagram) {
  const auto payload = CheckedPayload(datagram, FederationTag::kBeacon);
  if (!payload) return std::nullopt;
  Reader r(*payload);
  BeaconInfo info;
  info.term = r.u64();
  info.version = r.u64();
  if (!r.done()) return std::nullopt;
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

namespace {

// Byte layout facts about EncodeBody the delta splice depends on: both
// GetExternalViewResp and GetPDistancesResp are
//   [0..1] header | [2..5] i32 (num_pids / from) | [6..13] u64 version |
//   [14..17] u32 count | [18..] doubles as big-endian u64
// so row i of the external view occupies bytes [18 + i*n*8, 18 + (i+1)*n*8).
constexpr std::size_t kDistanceFrameDoublesOffset = 18;
constexpr std::size_t kDistanceFrameVersionOffset = 6;

void PatchVersionField(std::vector<std::uint8_t>& frame, std::uint64_t version) {
  for (int i = 0; i < 8; ++i) {
    frame[kDistanceFrameVersionOffset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(version >> (56 - 8 * i));
  }
}

}  // namespace

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
      held->rows.size() != static_cast<std::size_t>(delta.num_pids) ||
      held->row_versions.size() != held->rows.size()) {
    return DeltaResult::kBaseMismatch;
  }
  const std::size_t n = held->rows.size();
  if (held->external_view.size() !=
      kDistanceFrameDoublesOffset + n * n * sizeof(double)) {
    return DeltaResult::kBaseMismatch;
  }

  // Splice into a private copy; readers only ever see the held set or the
  // fully-verified result.
  auto next = std::make_shared<SnapshotFrameSet>(*held);
  next->version = delta.version;
  next->view_version = delta.view_version;
  next->not_modified = delta.not_modified;
  next->policy = delta.policy;
  for (const auto& row : delta.rows) {
    const auto i = static_cast<std::size_t>(row.pid);
    if (row.bytes.size() !=
        kDistanceFrameDoublesOffset + n * sizeof(double)) {
      return DeltaResult::kBaseMismatch;
    }
    next->rows[i] = row.bytes;
    next->row_versions[i] = row.row_version;
    std::memcpy(next->external_view.data() + kDistanceFrameDoublesOffset +
                    i * n * sizeof(double),
                row.bytes.data() + kDistanceFrameDoublesOffset,
                n * sizeof(double));
  }
  // The view frame's embedded version is its content stamp; unchanged rows
  // keep their doubles, so only this field differs from a re-encode.
  PatchVersionField(next->external_view, delta.view_version);

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
  not_synced_ = std::make_shared<const std::vector<std::uint8_t>>(
      Encode(UnavailableResp{/*retry_after_ms=*/100}));
}

namespace {

/// Aliases a frame inside `frames` as a SharedResponse (no copy; the
/// aliased shared_ptr keeps the whole frame set alive).
SharedResponse AliasFrame(const std::shared_ptr<const SnapshotFrameSet>& frames,
                          const std::vector<std::uint8_t>& bytes) {
  return SharedResponse(frames, &bytes);
}

std::optional<MsgType> PeekMsgType(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 2 || bytes[0] != kProtocolVersion) return std::nullopt;
  return static_cast<MsgType>(bytes[1]);
}

}  // namespace

SharedResponse FollowerPortalService::HandleShared(
    std::span<const std::uint8_t> request) const {
  const auto frames = store_->current();
  if (!frames) return not_synced_;
  const auto type = PeekMsgType(request);
  const auto decoded = Decode(request);
  if (!type || !decoded) {
    return std::make_shared<const std::vector<std::uint8_t>>(
        Encode(ErrorMsg{"malformed request"}));
  }
  switch (*type) {
    case MsgType::kGetExternalViewReq: {
      const auto& req = std::get<GetExternalViewReq>(*decoded);
      // Content-version tokens earn NotModified exactly as on the
      // publisher (service.cc) — byte-identical serving includes the
      // conditional protocol.
      if (req.if_version != 0 && (req.if_version == frames->version ||
                                  req.if_version == frames->view_version)) {
        return AliasFrame(frames, frames->not_modified);
      }
      return AliasFrame(frames, frames->external_view);
    }
    case MsgType::kGetPDistancesReq: {
      const auto& req = std::get<GetPDistancesReq>(*decoded);
      if (req.from < 0 ||
          static_cast<std::size_t>(req.from) >= frames->rows.size()) {
        return std::make_shared<const std::vector<std::uint8_t>>(
            Encode(ErrorMsg{"unknown PID"}));
      }
      const auto idx = static_cast<std::size_t>(req.from);
      if (req.if_version != 0 &&
          (req.if_version == frames->version ||
           (idx < frames->row_versions.size() &&
            req.if_version == frames->row_versions[idx]))) {
        return AliasFrame(frames, frames->not_modified);
      }
      return AliasFrame(frames, frames->rows[idx]);
    }
    case MsgType::kGetPolicyReq: {
      if (frames->policy.empty()) {
        return std::make_shared<const std::vector<std::uint8_t>>(
            Encode(ErrorMsg{"policy interface not offered"}));
      }
      return AliasFrame(frames, frames->policy);
    }
    default:
      // Followers replicate the p4p-distance/policy frames only; the
      // capability and pid-map interfaces stay on the publisher.
      return std::make_shared<const std::vector<std::uint8_t>>(
          Encode(ErrorMsg{"interface not offered by follower replica"}));
  }
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

SnapshotFollower::SnapshotFollower(ReplicatedSnapshotStore* store) : store_(store) {
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
  const auto tag = PeekFederationTag(request);
  if (tag == FederationTag::kDeltaPush) {
    const auto delta = DecodeDeltaPush(request);
    if (!delta) {
      push_rejects_.fetch_add(1, std::memory_order_relaxed);
      return EncodeFrameAck(
          FrameAck{AckStatus::kRejected, store_->version(), store_->term()});
    }
    const std::uint64_t fence = ObserveTerm(delta->term);
    if (delta->term < fence) {
      stale_term_rejects_.fetch_add(1, std::memory_order_relaxed);
      return EncodeFrameAck(
          FrameAck{AckStatus::kStaleTerm, store_->version(), fence});
    }
    switch (store_->InstallDelta(*delta)) {
      case ReplicatedSnapshotStore::DeltaResult::kInstalled:
        delta_installs_.fetch_add(1, std::memory_order_relaxed);
        return EncodeFrameAck(
            FrameAck{AckStatus::kInstalled, store_->version(), store_->term()});
      case ReplicatedSnapshotStore::DeltaResult::kStale:
        delta_stales_.fetch_add(1, std::memory_order_relaxed);
        return EncodeFrameAck(FrameAck{AckStatus::kAlreadyCurrent,
                                       store_->version(), store_->term()});
      case ReplicatedSnapshotStore::DeltaResult::kStaleTerm:
        stale_term_rejects_.fetch_add(1, std::memory_order_relaxed);
        return EncodeFrameAck(
            FrameAck{AckStatus::kStaleTerm, store_->version(), store_->term()});
      case ReplicatedSnapshotStore::DeltaResult::kBaseMismatch:
      case ReplicatedSnapshotStore::DeltaResult::kChecksumMismatch:
        delta_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        return EncodeFrameAck(
            FrameAck{AckStatus::kNeedFullSet, store_->version(), store_->term()});
    }
    // Unreachable, but keeps -Wswitch honest without a default case.
    return EncodeFrameAck(
        FrameAck{AckStatus::kRejected, store_->version(), store_->term()});
  }
  if (tag == FederationTag::kFramePull) {
    // Promotion-time anti-entropy: a candidate collects the freshest held
    // set from its peers before its first republish. Full set only — peers
    // never compute deltas for each other.
    const auto pull = DecodeFramePull(request);
    if (!pull) {
      push_rejects_.fetch_add(1, std::memory_order_relaxed);
      return EncodeFrameAck(
          FrameAck{AckStatus::kRejected, store_->version(), store_->term()});
    }
    const auto held = store_->current();
    if (!held || std::pair(held->term, held->version) <=
                     std::pair(pull->have_term, pull->have_version)) {
      return EncodeFrameAck(FrameAck{AckStatus::kAlreadyCurrent,
                                     held ? held->version : 0,
                                     held ? held->term : 0});
    }
    pulls_served_.fetch_add(1, std::memory_order_relaxed);
    return EncodeFramePush(*held);
  }
  auto frames = DecodeFramePush(request);
  if (!frames) {
    push_rejects_.fetch_add(1, std::memory_order_relaxed);
    return EncodeFrameAck(
        FrameAck{AckStatus::kRejected, store_->version(), store_->term()});
  }
  const std::uint64_t fence = ObserveTerm(frames->term);
  if (frames->term < fence) {
    stale_term_rejects_.fetch_add(1, std::memory_order_relaxed);
    return EncodeFrameAck(
        FrameAck{AckStatus::kStaleTerm, store_->version(), fence});
  }
  if (store_->Install(std::move(*frames))) {
    push_installs_.fetch_add(1, std::memory_order_relaxed);
    return EncodeFrameAck(
        FrameAck{AckStatus::kInstalled, store_->version(), store_->term()});
  }
  push_stales_.fetch_add(1, std::memory_order_relaxed);
  return EncodeFrameAck(
      FrameAck{AckStatus::kAlreadyCurrent, store_->version(), store_->term()});
}

std::optional<std::vector<std::uint8_t>> SnapshotFollower::HandleBeacon(
    std::span<const std::uint8_t> datagram) {
  const auto info = DecodeBeacon(datagram);
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
  const auto response = publisher.Call(EncodeFramePull(have));
  const auto tag = PeekFederationTag(response);
  if (tag == FederationTag::kFramePush) {
    auto frames = DecodeFramePush(response);
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
    if (const auto delta = DecodeDeltaPush(response)) {
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
    const auto full = publisher.Call(EncodeFramePull(full_pull));
    if (PeekFederationTag(full) == FederationTag::kFramePush) {
      auto frames = DecodeFramePush(full);
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
  push_frame_ = std::make_shared<const std::vector<std::uint8_t>>(
      EncodeFramePush(*frames_));
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
  DeltaPush delta;
  delta.term = frames_->term;
  delta.base_version = base;
  delta.version = frames_->version;
  delta.view_version = frames_->view_version;
  delta.num_pids = frames_->num_pids;
  delta.not_modified = frames_->not_modified;
  delta.policy = frames_->policy;
  delta.result_checksum = FrameSetChecksum(*frames_);
  const std::size_t n = frames_->rows.size();
  if (frames_->row_versions.size() != n) return nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    if (frames_->row_versions[i] <= base) continue;
    delta.rows.push_back(DeltaRow{static_cast<std::int32_t>(i),
                                  frames_->row_versions[i], frames_->rows[i]});
  }
  if (delta.rows.size() == n && n > 0) return nullptr;  // full set is no bigger
  auto encoded = std::make_shared<const std::vector<std::uint8_t>>(
      EncodeDeltaPush(delta));
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
      auto ack = DecodeFrameAck(response);
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
        ack = DecodeFrameAck(response);
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

std::vector<std::uint8_t> SnapshotPublisher::BeaconFrame() const {
  return EncodeBeacon(term_.load(std::memory_order_acquire),
                      service_->price_version());
}

std::vector<std::uint8_t> SnapshotPublisher::HandleReplication(
    std::span<const std::uint8_t> request) {
  const auto pull = DecodeFramePull(request);
  const std::uint64_t own_term = term_.load(std::memory_order_acquire);
  if (!pull) {
    return EncodeFrameAck(
        FrameAck{AckStatus::kRejected, service_->price_version(), own_term});
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto frame = CurrentPushFrameLocked();
  if (std::pair(pull->have_term, pull->have_version) >=
      std::pair(own_term, encoded_version_)) {
    return EncodeFrameAck(
        FrameAck{AckStatus::kAlreadyCurrent, encoded_version_, own_term});
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
