#include "proto/messages.h"

#include <algorithm>
#include <stdexcept>

namespace p4p::proto {

namespace {

void EncodeBody(const ErrorMsg& m, Writer& w) { w.str(m.message); }

void EncodeBody(const GetPDistancesReq& m, Writer& w) {
  w.i32(m.from);
  w.u64(m.if_version);
}

/// The body shared by both distance frames (the layout below).
void EncodeDistances(std::int32_t pids_or_from, std::uint64_t version,
                     std::span<const double> distances, Writer& w) {
  w.i32(pids_or_from);
  w.u64(version);
  w.f64_vec(distances);
}

void EncodeBody(const GetPDistancesResp& m, Writer& w) {
  EncodeDistances(m.from, m.version, m.distances, w);
}

void EncodeBody(const GetExternalViewReq& m, Writer& w) { w.u64(m.if_version); }

void EncodeBody(const GetExternalViewResp& m, Writer& w) {
  EncodeDistances(m.num_pids, m.version, m.distances, w);
}

void EncodeBody(const GetPolicyReq&, Writer&) {}

void EncodeBody(const NotModifiedResp& m, Writer& w) { w.u64(m.version); }

void EncodeBody(const UnavailableResp& m, Writer& w) { w.u32(m.retry_after_ms); }

void EncodeBody(const GetPolicyResp& m, Writer& w) {
  w.f64(m.thresholds.near_congestion_utilization);
  w.f64(m.thresholds.heavy_usage_utilization);
  w.reserve(8 + 8 + 4 + m.time_of_day.size() * (4 + 1 + 1 + 8));
  w.u32(static_cast<std::uint32_t>(m.time_of_day.size()));
  for (const auto& p : m.time_of_day) {
    w.i32(p.link);
    w.u8(static_cast<std::uint8_t>(p.start_hour));
    w.u8(static_cast<std::uint8_t>(p.end_hour));
    w.f64(p.max_utilization);
  }
}

void EncodeBody(const GetCapabilityReq& m, Writer& w) {
  w.u8(static_cast<std::uint8_t>(m.type));
  w.str(m.content_id);
}

void EncodeBody(const GetCapabilityResp& m, Writer& w) {
  // Reserve the fixed-width footprint; the per-capability str() appends
  // reserve for their own payloads.
  w.reserve(4 + m.capabilities.size() * (1 + 4 + 8));
  w.u32(static_cast<std::uint32_t>(m.capabilities.size()));
  for (const auto& c : m.capabilities) {
    w.u8(static_cast<std::uint8_t>(c.type));
    w.i32(c.pid);
    w.f64(c.capacity_bps);
    w.str(c.description);
  }
}

void EncodeBody(const GetPidMapReq& m, Writer& w) { w.str(m.client_ip); }

void EncodeBody(const GetPidMapResp& m, Writer& w) {
  w.u8(m.found ? 1 : 0);
  w.i32(m.pid);
  w.i32(m.as_number);
}

// Body decoders: each reads one message's fields and returns false on a
// value out of range. DecodeAs rejects a body the reader ran past or did
// not consume to the end.

bool DecodeBody(Reader& r, ErrorMsg& m) {
  m.message = r.str();
  return true;
}

bool DecodeBody(Reader& r, GetPDistancesReq& m) {
  m.from = r.i32();
  // The version token was appended in a compatible revision: absent bytes
  // decode as 0 (unconditional), so pre-token encoders still parse.
  if (r.ok() && r.remaining() > 0) m.if_version = r.u64();
  return true;
}

bool DecodeBody(Reader& r, GetPDistancesResp& m) {
  m.from = r.i32();
  m.version = r.u64();
  m.distances = r.f64_vec();
  return true;
}

bool DecodeBody(Reader& r, GetExternalViewReq& m) {
  // Optional version token, as in GetPDistancesReq.
  if (r.ok() && r.remaining() > 0) m.if_version = r.u64();
  return true;
}

bool DecodeBody(Reader& r, NotModifiedResp& m) {
  m.version = r.u64();
  return true;
}

bool DecodeBody(Reader& r, UnavailableResp& m) {
  m.retry_after_ms = r.u32();
  return true;
}

bool DecodeBody(Reader& r, GetExternalViewResp& m) {
  m.num_pids = r.i32();
  m.version = r.u64();
  m.distances = r.f64_vec();
  return m.num_pids >= 0 &&
         m.distances.size() ==
             static_cast<std::size_t>(m.num_pids) * static_cast<std::size_t>(m.num_pids);
}

bool DecodeBody(Reader&, GetPolicyReq&) { return true; }

bool DecodeBody(Reader& r, GetPolicyResp& m) {
  m.thresholds.near_congestion_utilization = r.f64();
  m.thresholds.heavy_usage_utilization = r.f64();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    core::TimeOfDayPolicy p;
    p.link = r.i32();
    p.start_hour = r.u8();
    p.end_hour = r.u8();
    p.max_utilization = r.f64();
    m.time_of_day.push_back(p);
  }
  return true;
}

bool DecodeBody(Reader& r, GetCapabilityReq& m) {
  const std::uint8_t type = r.u8();
  if (type > static_cast<std::uint8_t>(core::CapabilityType::kServiceClass)) return false;
  m.type = static_cast<core::CapabilityType>(type);
  m.content_id = r.str();
  return true;
}

bool DecodeBody(Reader& r, GetCapabilityResp& m) {
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    core::Capability c;
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(core::CapabilityType::kServiceClass)) return false;
    c.type = static_cast<core::CapabilityType>(type);
    c.pid = r.i32();
    c.capacity_bps = r.f64();
    c.description = r.str();
    m.capabilities.push_back(std::move(c));
  }
  return true;
}

bool DecodeBody(Reader& r, GetPidMapReq& m) {
  m.client_ip = r.str();
  return true;
}

bool DecodeBody(Reader& r, GetPidMapResp& m) {
  m.found = r.u8() != 0;
  m.pid = r.i32();
  m.as_number = r.i32();
  return true;
}

template <typename T>
std::optional<Message> DecodeAs(Reader& r) {
  T m;
  if (!DecodeBody(r, m) || !r.done()) return std::nullopt;
  return m;
}

}  // namespace

static_assert(std::variant_size_v<Message> ==
              static_cast<std::size_t>(MsgType::kUnavailable) + 1);

MsgType TypeOf(const Message& message) { return static_cast<MsgType>(message.index()); }

template <MessageBody T>
std::vector<std::uint8_t> Encode(const T& message) {
  Writer w;
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(detail::IndexIn<T>(static_cast<const Message*>(nullptr))));
  EncodeBody(message, w);
  return w.take();
}

template std::vector<std::uint8_t> Encode(const ErrorMsg&);
template std::vector<std::uint8_t> Encode(const GetPDistancesReq&);
template std::vector<std::uint8_t> Encode(const GetPDistancesResp&);
template std::vector<std::uint8_t> Encode(const GetExternalViewReq&);
template std::vector<std::uint8_t> Encode(const GetExternalViewResp&);
template std::vector<std::uint8_t> Encode(const GetPolicyReq&);
template std::vector<std::uint8_t> Encode(const GetPolicyResp&);
template std::vector<std::uint8_t> Encode(const GetCapabilityReq&);
template std::vector<std::uint8_t> Encode(const GetCapabilityResp&);
template std::vector<std::uint8_t> Encode(const GetPidMapReq&);
template std::vector<std::uint8_t> Encode(const GetPidMapResp&);
template std::vector<std::uint8_t> Encode(const NotModifiedResp&);
template std::vector<std::uint8_t> Encode(const UnavailableResp&);

std::vector<std::uint8_t> Encode(const Message& message) {
  return std::visit([](const auto& m) { return Encode(m); }, message);
}

std::vector<std::uint8_t> EncodeViewFrame(std::int32_t num_pids, std::uint64_t version,
                                          std::span<const double> distances) {
  Writer w;
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kGetExternalViewResp));
  EncodeDistances(num_pids, version, distances, w);
  return w.take();
}

std::optional<std::int32_t> ViewFramePids(std::span<const std::uint8_t> view) {
  Reader r(view);
  const std::uint8_t version = r.u8();
  const std::uint8_t type = r.u8();
  const std::int32_t n = r.i32();
  (void)r.u64();
  const std::uint64_t count = r.u32();
  // n < 2^31, so n*n fits in 64 bits; count < 2^32, so count*8 does too.
  if (!r.ok() || version != kProtocolVersion ||
      type != static_cast<std::uint8_t>(MsgType::kGetExternalViewResp) || n < 0 ||
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) != count ||
      r.remaining() != count * sizeof(double)) {
    return std::nullopt;
  }
  return n;
}

std::vector<std::uint8_t> RowFrameFromView(std::span<const std::uint8_t> view,
                                           std::int32_t from, std::uint64_t version) {
  const auto pids = ViewFramePids(view);
  if (!pids) throw std::invalid_argument("RowFrameFromView: not a view frame");
  if (from < 0 || from >= *pids) {
    throw std::out_of_range("RowFrameFromView: PID out of range");
  }
  const auto n = static_cast<std::size_t>(*pids);
  const std::size_t row_bytes = n * sizeof(double);
  std::vector<std::uint8_t> frame(kDistanceFrameDoublesOffset + row_bytes);
  auto* p = frame.data();
  p[0] = kProtocolVersion;
  p[1] = static_cast<std::uint8_t>(MsgType::kGetPDistancesResp);
  StoreBig(static_cast<std::uint32_t>(from), p + 2);
  StoreBig(version, p + kDistanceFrameVersionOffset);
  StoreBig(static_cast<std::uint32_t>(n), p + kDistanceFrameVersionOffset + 8);
  const auto doubles = view.subspan(
      kDistanceFrameDoublesOffset + static_cast<std::size_t>(from) * row_bytes, row_bytes);
  std::copy(doubles.begin(), doubles.end(), p + kDistanceFrameDoublesOffset);
  return frame;
}

namespace {

constexpr std::uint8_t kValidationRequestTag = 1;
constexpr std::uint8_t kValidationResponseTag = 2;
/// Response payload bytes before the embedded NotModifiedResp frame:
/// status + nonce.
constexpr std::size_t kValidationResponseFixedBytes = 1 + 8;

/// Opens a validation datagram after the size cap.
std::optional<std::span<const std::uint8_t>> OpenValidation(
    std::span<const std::uint8_t> datagram, std::uint8_t tag) {
  if (datagram.size() > kMaxValidationDatagramBytes) return std::nullopt;
  return Open(datagram, kValidationMagic, tag, kPublicSealKey);
}

}  // namespace

std::vector<std::uint8_t> EncodeValidationRequest(const ValidationRequest& request) {
  Writer w = BeginSealed(kValidationMagic, kValidationRequestTag, 8 + 8);
  w.u64(request.nonce);
  w.u64(request.if_version);
  return Seal(w, kPublicSealKey);
}

std::vector<std::uint8_t> EncodeValidationResponse(
    std::uint64_t nonce, ValidationStatus status,
    std::span<const std::uint8_t> not_modified_frame) {
  Writer w = BeginSealed(kValidationMagic, kValidationResponseTag,
                         kValidationResponseFixedBytes + not_modified_frame.size());
  w.u8(static_cast<std::uint8_t>(status));
  w.u64(nonce);
  w.raw(not_modified_frame);
  return Seal(w, kPublicSealKey);
}

std::optional<ValidationRequest> DecodeValidationRequest(
    std::span<const std::uint8_t> datagram) {
  const auto payload = OpenValidation(datagram, kValidationRequestTag);
  if (!payload) return std::nullopt;
  Reader r(*payload);
  ValidationRequest request;
  request.nonce = r.u64();
  request.if_version = r.u64();
  if (!r.done()) return std::nullopt;
  return request;
}

std::optional<ValidationResponse> DecodeValidationResponse(
    std::span<const std::uint8_t> datagram) {
  const auto payload = OpenValidation(datagram, kValidationResponseTag);
  if (!payload) return std::nullopt;
  Reader r(*payload);
  const std::uint8_t status = r.u8();
  ValidationResponse response;
  response.nonce = r.u64();
  if (!r.ok()) return std::nullopt;
  if (status != static_cast<std::uint8_t>(ValidationStatus::kNotModified) &&
      status != static_cast<std::uint8_t>(ValidationStatus::kRevalidateOverTcp)) {
    return std::nullopt;
  }
  response.status = static_cast<ValidationStatus>(status);
  // The tail is the server's pre-encoded NotModifiedResp frame; any other
  // (or malformed) embedded message is rejected.
  const auto inner = Decode(payload->subspan(kValidationResponseFixedBytes));
  if (!inner) return std::nullopt;
  const auto* not_modified = std::get_if<NotModifiedResp>(&*inner);
  if (not_modified == nullptr) return std::nullopt;
  response.version = not_modified->version;
  return response;
}

std::optional<Message> Decode(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  const std::uint8_t version = r.u8();
  const std::uint8_t type = r.u8();
  if (!r.ok() || version != kProtocolVersion) return std::nullopt;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kError: return DecodeAs<ErrorMsg>(r);
    case MsgType::kGetPDistancesReq: return DecodeAs<GetPDistancesReq>(r);
    case MsgType::kGetPDistancesResp: return DecodeAs<GetPDistancesResp>(r);
    case MsgType::kGetExternalViewReq: return DecodeAs<GetExternalViewReq>(r);
    case MsgType::kGetExternalViewResp: return DecodeAs<GetExternalViewResp>(r);
    case MsgType::kGetPolicyReq: return DecodeAs<GetPolicyReq>(r);
    case MsgType::kGetPolicyResp: return DecodeAs<GetPolicyResp>(r);
    case MsgType::kGetCapabilityReq: return DecodeAs<GetCapabilityReq>(r);
    case MsgType::kGetCapabilityResp: return DecodeAs<GetCapabilityResp>(r);
    case MsgType::kGetPidMapReq: return DecodeAs<GetPidMapReq>(r);
    case MsgType::kGetPidMapResp: return DecodeAs<GetPidMapResp>(r);
    case MsgType::kNotModified: return DecodeAs<NotModifiedResp>(r);
    case MsgType::kUnavailable: return DecodeAs<UnavailableResp>(r);
  }
  return std::nullopt;
}

}  // namespace p4p::proto
