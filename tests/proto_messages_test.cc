#include "proto/messages.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

namespace p4p::proto {
namespace {

template <typename T>
T RoundTrip(const T& msg) {
  const auto bytes = Encode(msg);
  const auto decoded = Decode(bytes);
  EXPECT_TRUE(decoded.has_value());
  const T* out = std::get_if<T>(&*decoded);
  EXPECT_NE(out, nullptr);
  return *out;
}

TEST(Messages, ErrorRoundTrip) {
  const auto out = RoundTrip(ErrorMsg{"something broke"});
  EXPECT_EQ(out.message, "something broke");
}

TEST(Messages, GetPDistancesReqRoundTrip) {
  const auto out = RoundTrip(GetPDistancesReq{17});
  EXPECT_EQ(out.from, 17);
  EXPECT_EQ(out.if_version, 0u);
}

TEST(Messages, ConditionalRequestsCarryVersionToken) {
  const auto row = RoundTrip(GetPDistancesReq{4, 77u});
  EXPECT_EQ(row.from, 4);
  EXPECT_EQ(row.if_version, 77u);
  const auto view = RoundTrip(GetExternalViewReq{123456789u});
  EXPECT_EQ(view.if_version, 123456789u);
}

TEST(Messages, PreTokenRequestsStillDecode) {
  // Requests encoded before the if_version field existed (no trailing u64)
  // must decode as unconditional.
  const std::vector<std::uint8_t> old_view = {kProtocolVersion,
                                              static_cast<std::uint8_t>(
                                                  MsgType::kGetExternalViewReq)};
  const auto view = Decode(old_view);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(std::get<GetExternalViewReq>(*view).if_version, 0u);

  std::vector<std::uint8_t> old_row = {kProtocolVersion,
                                       static_cast<std::uint8_t>(
                                           MsgType::kGetPDistancesReq),
                                       0, 0, 0, 9};
  const auto row = Decode(old_row);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(std::get<GetPDistancesReq>(*row).from, 9);
  EXPECT_EQ(std::get<GetPDistancesReq>(*row).if_version, 0u);
}

TEST(Messages, NotModifiedRoundTrip) {
  const auto out = RoundTrip(NotModifiedResp{42u});
  EXPECT_EQ(out.version, 42u);
  // The whole point: the encoded answer is tiny (frame header aside).
  EXPECT_LE(Encode(NotModifiedResp{42u}).size(), 16u);
}

TEST(Messages, NotModifiedRejectsTruncation) {
  auto bytes = Encode(NotModifiedResp{42u});
  bytes.pop_back();
  EXPECT_FALSE(Decode(bytes).has_value());
}

TEST(Messages, GetPDistancesRespRoundTrip) {
  GetPDistancesResp msg;
  msg.from = 3;
  msg.version = 987654321012345ULL;
  msg.distances = {0.0, 1.5, 2.25, 1e-12};
  const auto out = RoundTrip(msg);
  EXPECT_EQ(out.from, 3);
  EXPECT_EQ(out.version, 987654321012345ULL);
  EXPECT_EQ(out.distances, msg.distances);
}

TEST(Messages, ExternalViewRoundTrip) {
  GetExternalViewResp msg;
  msg.num_pids = 2;
  msg.version = 5;
  msg.distances = {0.0, 1.0, 2.0, 0.0};
  const auto out = RoundTrip(msg);
  EXPECT_EQ(out.num_pids, 2);
  EXPECT_EQ(out.distances, msg.distances);
}

TEST(Messages, ExternalViewRejectsMismatchedSize) {
  GetExternalViewResp msg;
  msg.num_pids = 3;
  msg.distances = {1.0, 2.0};  // should be 9
  const auto bytes = Encode(msg);
  EXPECT_FALSE(Decode(bytes).has_value());
}

TEST(Messages, PolicyRoundTrip) {
  GetPolicyResp msg;
  msg.thresholds = {0.65, 0.85};
  msg.time_of_day.push_back({4, 18, 23, 0.5});
  msg.time_of_day.push_back({7, 22, 6, 0.3});
  const auto out = RoundTrip(msg);
  EXPECT_DOUBLE_EQ(out.thresholds.near_congestion_utilization, 0.65);
  ASSERT_EQ(out.time_of_day.size(), 2u);
  EXPECT_EQ(out.time_of_day[1].link, 7);
  EXPECT_EQ(out.time_of_day[1].start_hour, 22);
  EXPECT_EQ(out.time_of_day[1].end_hour, 6);
  EXPECT_DOUBLE_EQ(out.time_of_day[1].max_utilization, 0.3);
}

TEST(Messages, CapabilityRoundTrip) {
  GetCapabilityReq req;
  req.type = core::CapabilityType::kOnDemandServer;
  req.content_id = "movie-42";
  const auto rout = RoundTrip(req);
  EXPECT_EQ(rout.type, core::CapabilityType::kOnDemandServer);
  EXPECT_EQ(rout.content_id, "movie-42");

  GetCapabilityResp resp;
  resp.capabilities.push_back({core::CapabilityType::kCache, 9, 1e9, "edge"});
  const auto out = RoundTrip(resp);
  ASSERT_EQ(out.capabilities.size(), 1u);
  EXPECT_EQ(out.capabilities[0].pid, 9);
  EXPECT_EQ(out.capabilities[0].description, "edge");
}

TEST(Messages, PidMapRoundTrip) {
  const auto req = RoundTrip(GetPidMapReq{"10.1.2.3"});
  EXPECT_EQ(req.client_ip, "10.1.2.3");
  GetPidMapResp resp;
  resp.found = true;
  resp.pid = 6;
  resp.as_number = 4711;
  const auto out = RoundTrip(resp);
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.pid, 6);
  EXPECT_EQ(out.as_number, 4711);
}

TEST(Messages, EmptyRequestsRoundTrip) {
  RoundTrip(GetExternalViewReq{});
  RoundTrip(GetPolicyReq{});
}

TEST(Messages, TypeOfCoversAll) {
  EXPECT_EQ(TypeOf(ErrorMsg{}), MsgType::kError);
  EXPECT_EQ(TypeOf(GetPDistancesReq{}), MsgType::kGetPDistancesReq);
  EXPECT_EQ(TypeOf(GetPDistancesResp{}), MsgType::kGetPDistancesResp);
  EXPECT_EQ(TypeOf(GetExternalViewReq{}), MsgType::kGetExternalViewReq);
  EXPECT_EQ(TypeOf(GetExternalViewResp{}), MsgType::kGetExternalViewResp);
  EXPECT_EQ(TypeOf(GetPolicyReq{}), MsgType::kGetPolicyReq);
  EXPECT_EQ(TypeOf(GetPolicyResp{}), MsgType::kGetPolicyResp);
  EXPECT_EQ(TypeOf(GetCapabilityReq{}), MsgType::kGetCapabilityReq);
  EXPECT_EQ(TypeOf(GetCapabilityResp{}), MsgType::kGetCapabilityResp);
  EXPECT_EQ(TypeOf(GetPidMapReq{}), MsgType::kGetPidMapReq);
  EXPECT_EQ(TypeOf(GetPidMapResp{}), MsgType::kGetPidMapResp);
}

/// Lowercase hex of `bytes`, so a golden mismatch reads as bytes.
std::string Hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += "0123456789abcdef"[b >> 4];
    out += "0123456789abcdef"[b & 15];
  }
  return out;
}

// One message of every type, pinned byte for byte: both Encode overloads
// (the concrete body and the Message variant) and the integer writers
// behind them must keep every byte.
TEST(Messages, EveryTypeEncodesToPinnedBytes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  GetCapabilityResp capability;
  capability.capabilities.push_back({core::CapabilityType::kCache, 4, 1e9, "cache"});
  const std::vector<std::pair<Message, std::string>> cases = {
      {ErrorMsg{"boom"}, "02000004626f6f6d"},
      {GetPDistancesReq{7, 0x0102030405060708ULL}, "0201000000070102030405060708"},
      {GetPDistancesResp{3, 99, {1.5, -0.0, nan, inf, -inf}},
       "0202000000030000000000000063000000053ff8000000000000800000000000000"
       "07ff80000000000007ff0000000000000fff0000000000000"},
      {GetExternalViewReq{0xfffffffffULL}, "02030000000fffffffff"},
      {GetExternalViewResp{2, 42, {0.0, -0.0, nan, -inf}},
       "020400000002000000000000002a0000000400000000000000008000000000000000"
       "7ff8000000000000fff0000000000000"},
      {GetPolicyReq{}, "0205"},
      {GetPolicyResp{{0.7, 0.9}, {{1, 8, 18, 0.5}, {-3, 0, 23, 0.25}}},
       "02063fe66666666666663feccccccccccccd000000020000000108123fe000000000"
       "0000fffffffd00173fd0000000000000"},
      {GetCapabilityReq{core::CapabilityType::kCache, "cid"}, "0207000003636964"},
      {capability, "020800000001000000000441cdcd650000000000056361636865"},
      {GetPidMapReq{"10.0.0.1"}, "0209000831302e302e302e31"},
      {GetPidMapResp{true, 5, 65001}, "020a01000000050000fde9"},
      {NotModifiedResp{0xdeadbeefULL}, "020b00000000deadbeef"},
      {UnavailableResp{1234}, "020c000004d2"},
  };
  ASSERT_EQ(cases.size(), std::variant_size_v<Message>);
  for (const auto& [message, hex] : cases) {
    EXPECT_EQ(Hex(Encode(message)), hex);
    std::visit([&hex](const auto& body) { EXPECT_EQ(Hex(Encode(body)), hex); }, message);
    EXPECT_EQ(TypeOf(message), static_cast<MsgType>(message.index()));
  }
}

// The snapshot-side view encoder writes the frame Encode() writes, special
// doubles included, into a buffer of exactly the frame's size.
TEST(Messages, ViewFrameEncoderMatchesEncode) {
  const std::vector<double> specials = {
      -0.0,
      0.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(0xfff0000000000123ULL),  // negative NaN with a payload
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      1.5};
  EXPECT_EQ(EncodeViewFrame(0, 3, {}), Encode(GetExternalViewResp{0, 3, {}}));
  for (const double x : specials) {
    EXPECT_EQ(EncodeViewFrame(1, 3, std::span(&x, 1)), Encode(GetExternalViewResp{1, 3, {x}}));
  }
  std::vector<double> view(144 * 144);
  for (std::size_t i = 0; i < view.size(); ++i) {
    view[i] = i % 3 == 0 ? specials[i % specials.size()] : 0.25 * static_cast<double>(i);
  }
  const auto frame = EncodeViewFrame(144, ~0ULL, view);
  EXPECT_EQ(frame, Encode(GetExternalViewResp{144, ~0ULL, view}));
  EXPECT_EQ(frame.capacity(), frame.size());
}

TEST(Messages, RejectsUnknownType) {
  std::vector<std::uint8_t> bytes = {kProtocolVersion, 0xFF};
  EXPECT_FALSE(Decode(bytes).has_value());
}

TEST(Messages, RejectsWrongVersion) {
  auto bytes = Encode(GetPolicyReq{});
  bytes[0] = kProtocolVersion + 1;
  EXPECT_FALSE(Decode(bytes).has_value());
}

TEST(Messages, RejectsEmptyAndTruncated) {
  EXPECT_FALSE(Decode({}).has_value());
  const std::vector<std::uint8_t> only_version = {kProtocolVersion};
  EXPECT_FALSE(Decode(only_version).has_value());
  auto bytes = Encode(GetPDistancesReq{5});
  bytes.pop_back();
  EXPECT_FALSE(Decode(bytes).has_value());
}

TEST(Messages, RejectsTrailingGarbage) {
  auto bytes = Encode(GetPDistancesReq{5});
  bytes.push_back(0x00);
  EXPECT_FALSE(Decode(bytes).has_value());
}

TEST(Messages, RejectsInvalidCapabilityType) {
  auto bytes = Encode(GetCapabilityReq{core::CapabilityType::kCache, "x"});
  bytes[2] = 0x77;  // capability type byte
  EXPECT_FALSE(Decode(bytes).has_value());
}

TEST(Messages, FuzzDecodeNeverCrashes) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 64);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(len(rng)));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(byte(rng));
    (void)Decode(bytes);  // must not crash/throw
  }
}

TEST(Messages, MutatedValidMessagesNeverCrash) {
  GetPolicyResp msg;
  msg.thresholds = {0.65, 0.85};
  msg.time_of_day.push_back({4, 18, 23, 0.5});
  const auto base = Encode(msg);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int trial = 0; trial < 5000; ++trial) {
    auto bytes = base;
    bytes[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    (void)Decode(bytes);
  }
}

// --- UDP validation datagram codec -----------------------------------------

TEST(ValidationDatagrams, RequestRoundTrip) {
  const auto bytes = EncodeValidationRequest({0xDEADBEEFCAFEBABEull, 42u});
  EXPECT_LE(bytes.size(), kMaxValidationDatagramBytes);
  const auto decoded = DecodeValidationRequest(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->nonce, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(decoded->if_version, 42u);
}

TEST(ValidationDatagrams, ResponseRoundTripReusesNotModifiedFrame) {
  // The response tail is the server's pre-encoded NotModifiedResp frame.
  const auto frame = Encode(NotModifiedResp{77u});
  const auto bytes =
      EncodeValidationResponse(123u, ValidationStatus::kNotModified, frame);
  EXPECT_LE(bytes.size(), kMaxValidationDatagramBytes);
  const auto decoded = DecodeValidationResponse(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->nonce, 123u);
  EXPECT_EQ(decoded->status, ValidationStatus::kNotModified);
  EXPECT_EQ(decoded->version, 77u);

  const auto redirect =
      EncodeValidationResponse(9u, ValidationStatus::kRevalidateOverTcp, frame);
  const auto r = DecodeValidationResponse(redirect);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ValidationStatus::kRevalidateOverTcp);
  EXPECT_EQ(r->version, 77u);
}

TEST(ValidationDatagrams, TruncationRejectedAtEveryLength) {
  const auto request = EncodeValidationRequest({1u, 2u});
  for (std::size_t len = 0; len < request.size(); ++len) {
    EXPECT_FALSE(DecodeValidationRequest(
                     std::span<const std::uint8_t>(request.data(), len))
                     .has_value())
        << "request truncated to " << len;
  }
  const auto response = EncodeValidationResponse(
      1u, ValidationStatus::kNotModified, Encode(NotModifiedResp{5u}));
  for (std::size_t len = 0; len < response.size(); ++len) {
    EXPECT_FALSE(DecodeValidationResponse(
                     std::span<const std::uint8_t>(response.data(), len))
                     .has_value())
        << "response truncated to " << len;
  }
}

TEST(ValidationDatagrams, BadMagicRejected) {
  auto request = EncodeValidationRequest({1u, 2u});
  request[0] ^= 0xFF;
  EXPECT_FALSE(DecodeValidationRequest(request).has_value());
  auto response = EncodeValidationResponse(1u, ValidationStatus::kNotModified,
                                           Encode(NotModifiedResp{5u}));
  response[0] ^= 0xFF;
  EXPECT_FALSE(DecodeValidationResponse(response).has_value());
}

TEST(ValidationDatagrams, CrossedTagsRejected) {
  // A request parsed as a response (and vice versa) must fail.
  const auto request = EncodeValidationRequest({1u, 2u});
  EXPECT_FALSE(DecodeValidationResponse(request).has_value());
  const auto response = EncodeValidationResponse(1u, ValidationStatus::kNotModified,
                                                 Encode(NotModifiedResp{5u}));
  EXPECT_FALSE(DecodeValidationRequest(response).has_value());
}

TEST(ValidationDatagrams, OversizedDatagramRejected) {
  // Valid prefix + padding past the cap: rejected before any parsing.
  auto bytes = EncodeValidationRequest({1u, 2u});
  bytes.resize(kMaxValidationDatagramBytes + 1, 0x00);
  EXPECT_FALSE(DecodeValidationRequest(bytes).has_value());
  std::vector<std::uint8_t> huge(4096, 0xAB);
  EXPECT_FALSE(DecodeValidationRequest(huge).has_value());
  EXPECT_FALSE(DecodeValidationResponse(huge).has_value());
}

TEST(ValidationDatagrams, EverySingleBitFlipRejected) {
  // The trailing checksum must catch any single-bit corruption — this is
  // what makes "never a wrong answer" hold on a corrupting network.
  const auto request = EncodeValidationRequest({0x1122334455667788ull, 7u});
  for (std::size_t byte = 0; byte < request.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = request;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(DecodeValidationRequest(mutated).has_value())
          << "bit " << bit << " of byte " << byte;
    }
  }
  const auto response = EncodeValidationResponse(
      0x99AABBCCDDEEFF00ull, ValidationStatus::kNotModified,
      Encode(NotModifiedResp{1234567u}));
  for (std::size_t byte = 0; byte < response.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = response;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(DecodeValidationResponse(mutated).has_value())
          << "bit " << bit << " of byte " << byte;
    }
  }
}

TEST(ValidationDatagrams, BadStatusAndBadInnerFrameRejected) {
  // Unknown status byte (MAC recomputed so only the status is wrong).
  // Encode via the public encoder with a corrupted status is impossible, so
  // splice: body with patched status + fresh MAC must still fail on the
  // status check.
  const auto frame = Encode(NotModifiedResp{5u});
  auto bytes = EncodeValidationResponse(1u, ValidationStatus::kNotModified, frame);
  bytes[6] = 0x7F;  // status byte
  // Re-seal under the datagrams' published key so the MAC passes.
  Writer resealed;
  resealed.raw(std::span(bytes.data(), bytes.size() - kSealMacBytes));
  bytes = Seal(resealed, kPublicSealKey);
  EXPECT_FALSE(DecodeValidationResponse(bytes).has_value());
  // The same splice with a valid status opens, so the rejection above is
  // the status check, not a sealing artifact.
  bytes[6] = static_cast<std::uint8_t>(ValidationStatus::kRevalidateOverTcp);
  resealed.raw(std::span(bytes.data(), bytes.size() - kSealMacBytes));
  EXPECT_TRUE(DecodeValidationResponse(Seal(resealed, kPublicSealKey)).has_value());

  // An embedded frame that is not NotModifiedResp is rejected even though
  // the datagram is otherwise well-formed.
  const auto wrong_inner = EncodeValidationResponse(
      1u, ValidationStatus::kNotModified, Encode(ErrorMsg{"x"}));
  EXPECT_FALSE(DecodeValidationResponse(wrong_inner).has_value());
}

TEST(ValidationDatagrams, FuzzDecodeNeverCrashes) {
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 96);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(len(rng)));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(byte(rng));
    (void)DecodeValidationRequest(bytes);   // must not crash/throw
    (void)DecodeValidationResponse(bytes);  // must not crash/throw
  }
}

TEST(ValidationDatagrams, MutatedValidDatagramsNeverCrash) {
  const auto request = EncodeValidationRequest({42u, 7u});
  const auto response = EncodeValidationResponse(
      42u, ValidationStatus::kNotModified, Encode(NotModifiedResp{7u}));
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int trial = 0; trial < 5000; ++trial) {
    auto a = request;
    auto b = response;
    a[std::uniform_int_distribution<std::size_t>(0, a.size() - 1)(rng)] =
        static_cast<std::uint8_t>(byte(rng));
    b[std::uniform_int_distribution<std::size_t>(0, b.size() - 1)(rng)] =
        static_cast<std::uint8_t>(byte(rng));
    (void)DecodeValidationRequest(a);
    (void)DecodeValidationResponse(b);
  }
}

// --- row frames cut from a view -------------------------------------------

GetExternalViewResp ThreePidView() {
  return GetExternalViewResp{3, 9, {0.0, 1.0, 2.5, 1.0, 0.0, 4.0, 2.5, -0.0, 0.0}};
}

TEST(RowFrameFromView, EqualsTheEncodedRow) {
  const auto view = ThreePidView();
  const auto frame = Encode(view);
  for (std::int32_t i = 0; i < 3; ++i) {
    for (const std::uint64_t stamp : {std::uint64_t{0}, std::uint64_t{7}, ~std::uint64_t{0}}) {
      GetPDistancesResp row{i, stamp, {}};
      row.distances.assign(view.distances.begin() + 3 * i,
                           view.distances.begin() + 3 * (i + 1));
      EXPECT_EQ(RowFrameFromView(frame, i, stamp), Encode(row)) << i << " @ " << stamp;
      const auto parts = SliceViewRow(frame, i, stamp);
      std::vector<std::uint8_t> joined(parts.header.begin(), parts.header.end());
      joined.insert(joined.end(), parts.doubles.begin(), parts.doubles.end());
      EXPECT_EQ(joined, Encode(row));
    }
  }
}

TEST(RowFrameFromView, RejectsPidsOutsideTheView) {
  const auto frame = Encode(ThreePidView());
  for (const std::int32_t pid : {-1, 3, 4, std::numeric_limits<std::int32_t>::max(),
                                 std::numeric_limits<std::int32_t>::min()}) {
    EXPECT_THROW(RowFrameFromView(frame, pid, 1), std::out_of_range) << pid;
    EXPECT_THROW(SliceViewRow(frame, pid, 1), std::out_of_range) << pid;
  }
  // An empty view has no PIDs at all.
  EXPECT_THROW(RowFrameFromView(Encode(GetExternalViewResp{0, 1, {}}), 0, 1),
               std::out_of_range);
}

TEST(RowFrameFromView, RejectsBuffersThatAreNotViewFrames) {
  const auto frame = Encode(ThreePidView());
  auto row_typed = frame;
  row_typed[1] = static_cast<std::uint8_t>(MsgType::kGetPDistancesResp);
  auto old_version = frame;
  old_version[0] = 1;
  auto more_pids = frame;
  more_pids[5] = 4;  // num_pids 4 over a 3x3 body
  const std::vector<std::pair<std::string, std::vector<std::uint8_t>>> bad = {
      {"empty", {}},
      {"header only", std::vector<std::uint8_t>(frame.begin(), frame.begin() + 17)},
      {"one double short", std::vector<std::uint8_t>(frame.begin(), frame.end() - 1)},
      {"trailing byte", [&] {
         auto longer = frame;
         longer.push_back(0);
         return longer;
       }()},
      {"row frame type", row_typed},
      {"old protocol version", old_version},
      {"num_pids disagrees with the body", more_pids},
      {"a row frame", Encode(GetPDistancesResp{0, 9, {0.0, 1.0, 2.5}})},
      {"not modified", Encode(NotModifiedResp{9})},
  };
  for (const auto& [what, bytes] : bad) {
    EXPECT_THROW(RowFrameFromView(bytes, 0, 1), std::invalid_argument) << what;
    EXPECT_THROW(SliceViewRow(bytes, 0, 1), std::invalid_argument) << what;
  }
}

}  // namespace
}  // namespace p4p::proto
