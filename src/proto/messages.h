// Message schema of the P4P portal protocol: the three iTracker interfaces
// (p4p-distance, policy, capability) plus the IP -> PID mapping query.
//
// Every message is framed as: u8 version | u8 type | payload. Transports
// add an outer u32 length prefix. Decoding is total: malformed bytes decode
// to std::nullopt, never UB or exceptions.
#pragma once

#include <optional>
#include <variant>

#include "core/capability.h"
#include "core/pid.h"
#include "core/policy.h"
#include "proto/wire.h"

namespace p4p::proto {

enum class MsgType : std::uint8_t {
  kError = 0,
  kGetPDistancesReq = 1,
  kGetPDistancesResp = 2,
  kGetExternalViewReq = 3,
  kGetExternalViewResp = 4,
  kGetPolicyReq = 5,
  kGetPolicyResp = 6,
  kGetCapabilityReq = 7,
  kGetCapabilityResp = 8,
  kGetPidMapReq = 9,
  kGetPidMapResp = 10,
  kNotModified = 11,
  kUnavailable = 12,
};

struct ErrorMsg {
  std::string message;
};

/// p4p-distance: one row of the external view. `if_version` carries the
/// version token of the data the client already holds (0 = none): when it
/// matches the server's current price version, the server answers
/// NotModifiedResp instead of re-sending the row.
struct GetPDistancesReq {
  core::Pid from = core::kInvalidPid;
  std::uint64_t if_version = 0;
};
struct GetPDistancesResp {
  core::Pid from = core::kInvalidPid;
  std::uint64_t version = 0;  ///< iTracker price version, for caching
  std::vector<double> distances;
};

/// p4p-distance: full-mesh snapshot. `if_version` as in GetPDistancesReq.
struct GetExternalViewReq {
  std::uint64_t if_version = 0;
};
struct GetExternalViewResp {
  std::int32_t num_pids = 0;
  std::uint64_t version = 0;
  /// Row-major distances, num_pids^2 entries.
  std::vector<double> distances;
};

/// Tiny answer to a conditional p4p-distance request whose version token is
/// still current: the client's cached data is valid through `version`. This
/// turns periodic cache refreshes into ~16-byte validations.
struct NotModifiedResp {
  std::uint64_t version = 0;
};

/// The replica cannot serve this request right now (a follower before its
/// first install). Unlike ErrorMsg this is explicitly retryable.
/// `retry_after_ms` hints when to ask again; it stays on the wire, but the
/// shipped PortalClient surfaces only the typed PortalUnavailableError.
struct UnavailableResp {
  std::uint32_t retry_after_ms = 0;
};

/// policy interface.
struct GetPolicyReq {};
struct GetPolicyResp {
  core::UsageThresholds thresholds;
  std::vector<core::TimeOfDayPolicy> time_of_day;
};

/// capability interface.
struct GetCapabilityReq {
  core::CapabilityType type = core::CapabilityType::kCache;
  std::string content_id;
};
struct GetCapabilityResp {
  std::vector<core::Capability> capabilities;
};

/// IP -> PID mapping.
struct GetPidMapReq {
  std::string client_ip;
};
struct GetPidMapResp {
  bool found = false;
  core::Pid pid = core::kInvalidPid;
  std::int32_t as_number = 0;
};

/// The alternatives are listed in MsgType order: a message's type byte is
/// its variant index.
using Message =
    std::variant<ErrorMsg, GetPDistancesReq, GetPDistancesResp, GetExternalViewReq,
                 GetExternalViewResp, GetPolicyReq, GetPolicyResp, GetCapabilityReq,
                 GetCapabilityResp, GetPidMapReq, GetPidMapResp, NotModifiedResp,
                 UnavailableResp>;

namespace detail {
/// The index of T among Ts, or sizeof...(Ts) when T is not one of them.
template <typename T, typename... Ts>
constexpr std::size_t IndexIn(const std::variant<Ts...>*) {
  std::size_t i = 0;
  ((std::is_same_v<T, Ts> ? false : (++i, true)) && ...);
  return i;
}
}  // namespace detail

/// One concrete alternative of Message.
template <typename T>
concept MessageBody =
    detail::IndexIn<T>(static_cast<const Message*>(nullptr)) < std::variant_size_v<Message>;

/// Serializes a message (version byte + type byte + payload).
std::vector<std::uint8_t> Encode(const Message& message);
/// As Encode(Message), byte for byte, without first copying `message` into
/// a Message.
template <MessageBody T>
std::vector<std::uint8_t> Encode(const T& message);

/// Parses a message; std::nullopt on malformed input, unknown type, or
/// version mismatch.
std::optional<Message> Decode(std::span<const std::uint8_t> bytes);

MsgType TypeOf(const Message& message);

// --- distance-frame layout ----------------------------------------------
//
// GetExternalViewResp and GetPDistancesResp frames share one byte layout:
//   [0..1] header | [2..5] i32 (num_pids / from) | [6..13] u64 version |
//   [14..17] u32 count | [18..] doubles as big-endian u64
// so row i of an n-PID view frame occupies bytes [18 + i*n*8, 18 + (i+1)*n*8),
// and the row frame for PID i is those bytes behind a row header. Replicas
// hold only the view frame and cut a row frame out of it when a client asks
// for one; the federation push ships only the view.

inline constexpr std::size_t kDistanceFrameVersionOffset = 6;
inline constexpr std::size_t kDistanceFrameDoublesOffset = 18;

/// The GetExternalViewResp frame {num_pids, version, distances}, byte-equal
/// to Encode() of that message, written straight from `distances` (row
/// major, num_pids^2 entries) with no staging copy.
std::vector<std::uint8_t> EncodeViewFrame(std::int32_t num_pids, std::uint64_t version,
                                          std::span<const double> distances);

/// The PID count n of an encoded GetExternalViewResp frame, or std::nullopt
/// unless it is one: current protocol version, view type byte, n >= 0, a
/// count of exactly n*n (checked without overflow) and exactly that many
/// doubles. Reads the header only; never allocates.
std::optional<std::int32_t> ViewFramePids(std::span<const std::uint8_t> view);

/// The GetPDistancesResp frame {from, version, row `from` of the view},
/// byte-equal to Encode() of that message: a row header carrying
/// (from, version, n) and the view bytes holding the row's doubles. Throws
/// std::invalid_argument unless ViewFramePids accepts `view`, and
/// std::out_of_range for a `from` outside [0, n).
std::vector<std::uint8_t> RowFrameFromView(std::span<const std::uint8_t> view,
                                           std::int32_t from, std::uint64_t version);

// --- UDP validation datagram codec -----------------------------------------
//
// The conditional (`if_version` -> NotModified) exchange compressed into one
// datagram each way, for short-lived clients that would otherwise pay a TCP
// handshake just to learn "nothing changed". Datagrams are sealed envelopes
// (wire.h) under the published kPublicSealKey, since clients hold no
// deployment key: the MAC catches UDP corruption (and the fault injector's
// bit flips) that would otherwise decode into a wrong answer, not forgery.
// A response embeds the server's pre-encoded NotModifiedResp frame
// verbatim, so the serving path reuses its version-keyed buffer. Decoding
// is total, mirroring Decode(): malformed bytes yield std::nullopt.

/// First four bytes of every validation datagram ("P4PV").
inline constexpr std::uint32_t kValidationMagic = 0x50345056u;

/// Hard cap on validation datagram size. Both directions are a few dozen
/// bytes; anything larger is hostile and rejected before parsing.
inline constexpr std::size_t kMaxValidationDatagramBytes = 64;

enum class ValidationStatus : std::uint8_t {
  /// The presented token is current: the client's cached matrix is valid.
  kNotModified = 1,
  /// The token is stale or absent: the data must be (re)fetched over TCP.
  /// UDP never carries a matrix — any response that would not fit in one
  /// datagram becomes this redirect.
  kRevalidateOverTcp = 2,
};

struct ValidationRequest {
  std::uint64_t nonce = 0;       ///< Echoed verbatim; pairs answer to question.
  std::uint64_t if_version = 0;  ///< Version token the client holds (0 = none).
};

struct ValidationResponse {
  std::uint64_t nonce = 0;
  ValidationStatus status = ValidationStatus::kRevalidateOverTcp;
  std::uint64_t version = 0;  ///< The server's current price version.
};

std::vector<std::uint8_t> EncodeValidationRequest(const ValidationRequest& request);
/// `not_modified_frame` must be an encoded NotModifiedResp frame carrying
/// the server's current version; it is embedded as the datagram tail (the
/// service passes its pre-encoded version-keyed buffer).
std::vector<std::uint8_t> EncodeValidationResponse(
    std::uint64_t nonce, ValidationStatus status,
    std::span<const std::uint8_t> not_modified_frame);
std::optional<ValidationRequest> DecodeValidationRequest(
    std::span<const std::uint8_t> datagram);
std::optional<ValidationResponse> DecodeValidationResponse(
    std::span<const std::uint8_t> datagram);

}  // namespace p4p::proto
