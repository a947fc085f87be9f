#include "proto/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>

#include "proto/federation.h"
#include "proto/messages.h"
#include "support/frame_rows.h"

namespace p4p::proto {
namespace {

TEST(Wire, IntegersRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_TRUE(r.done());
}

TEST(Wire, BigEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[3], 0x04);
}

TEST(Wire, DoublesRoundTrip) {
  Writer w;
  w.f64(3.14159);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(1e-300);
  Reader r(w.bytes());
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_DOUBLE_EQ(r.f64(), -0.0);
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_DOUBLE_EQ(r.f64(), 1e-300);
  EXPECT_TRUE(r.done());
}

TEST(Wire, StringsRoundTrip) {
  Writer w;
  w.str("");
  w.str("hello");
  w.str(std::string(1000, 'x'));
  Reader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str().size(), 1000u);
  EXPECT_TRUE(r.done());
}

TEST(Wire, StringTooLongThrows) {
  Writer w;
  EXPECT_THROW(w.str(std::string(70000, 'x')), std::length_error);
}

TEST(Wire, VectorRoundTrip) {
  Writer w;
  const std::vector<double> v = {1.0, -2.5, 1e9};
  w.f64_vec(v);
  w.f64_vec(std::vector<double>{});
  Reader r(w.bytes());
  EXPECT_EQ(r.f64_vec(), v);
  EXPECT_TRUE(r.f64_vec().empty());
  EXPECT_TRUE(r.done());
}

// Every integer width through put/get, pinned byte for byte.
TEST(Wire, PutAndGetPinEveryWidth) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-2);
  w.f64(-0.0);
  w.put(std::uint16_t{0xBEEF});
  EXPECT_EQ(w.bytes(), (std::vector<std::uint8_t>{
                           0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45,
                           0x67, 0x89, 0xAB, 0xCD, 0xEF, 0xFF, 0xFF, 0xFF, 0xFE, 0x80,
                           0, 0, 0, 0, 0, 0, 0, 0xBE, 0xEF}));
  Reader r(w.bytes());
  EXPECT_EQ(r.get<std::uint8_t>(), 0xAB);
  EXPECT_EQ(r.get<std::uint16_t>(), 0x1234);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.get<std::uint64_t>(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -2);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x8000000000000000ULL);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_TRUE(r.done());
}

TEST(Wire, TruncatedU64FailsAtEveryCut) {
  Writer w;
  w.u64(~0ULL);
  for (std::size_t cut = 0; cut < 8; ++cut) {
    Reader r(std::span<const std::uint8_t>(w.bytes().data(), cut));
    EXPECT_EQ(r.u64(), 0u) << cut;
    EXPECT_FALSE(r.ok());
  }
}

TEST(Wire, TruncatedReadsFailCleanly) {
  Writer w;
  w.u32(12345);
  for (std::size_t cut = 0; cut < 4; ++cut) {
    Reader r(std::span<const std::uint8_t>(w.bytes().data(), cut));
    r.u32();
    EXPECT_FALSE(r.ok());
    // Further reads stay at zero without UB.
    EXPECT_EQ(r.u8(), 0);
  }
}

TEST(Wire, TruncatedStringFails) {
  Writer w;
  w.str("hello");
  Reader r(std::span<const std::uint8_t>(w.bytes().data(), 4));
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Wire, HostileVectorLengthRejected) {
  // A length prefix of 2^31 must not allocate 16 GiB.
  Writer w;
  w.u32(0x80000000u);
  Reader r(w.bytes());
  EXPECT_TRUE(r.f64_vec().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Wire, DoneDetectsTrailingBytes) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.bytes());
  r.u8();
  EXPECT_FALSE(r.done());
  r.u8();
  EXPECT_TRUE(r.done());
}

TEST(Wire, RemainingTracksPosition) {
  Writer w;
  w.u32(7);
  w.u32(8);
  Reader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Wire, TakeMovesBuffer) {
  Writer w;
  w.u8(9);
  const auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(Wire, VectorEncodeReservesExactly) {
  // The f64_vec appender must pre-reserve its whole footprint: the final
  // buffer capacity equals its size instead of the up-to-2x slack that
  // doubling growth leaves behind.
  for (const std::size_t n : {1u, 7u, 64u, 1000u, 5000u}) {
    Writer w;
    w.f64_vec(std::vector<double>(n, 1.5));
    EXPECT_EQ(w.bytes().capacity(), w.bytes().size()) << "n=" << n;
  }
}

TEST(Wire, RandomMatrixMessagesRoundTripWithTightCapacity) {
  // Fuzz-ish sweep: random matrix payloads of random sizes through the
  // full message codec. Checks (a) exact round-trip, (b) the encoders'
  // reserve() calls keep the final capacity at (or within one small header
  // growth-step of) the final size.
  std::mt19937_64 rng(20260806);
  std::uniform_int_distribution<int> num_pids(1, 40);
  std::uniform_real_distribution<double> dist(0.0, 1e6);
  for (int iter = 0; iter < 50; ++iter) {
    const int n = num_pids(rng);
    GetExternalViewResp view;
    view.num_pids = n;
    view.version = rng();
    view.distances.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (auto& d : view.distances) d = dist(rng);

    const auto bytes = Encode(view);
    // version byte + type byte + i32 + u64 + (u32 + 8n^2).
    EXPECT_EQ(bytes.size(), 2u + 4u + 8u + 4u + view.distances.size() * 8u);
    EXPECT_LE(bytes.capacity(), bytes.size() + 32u) << "n=" << n;

    const auto decoded = Decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    const auto* out = std::get_if<GetExternalViewResp>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->num_pids, view.num_pids);
    EXPECT_EQ(out->version, view.version);
    EXPECT_EQ(out->distances, view.distances);

    GetPDistancesResp row;
    row.from = n - 1;
    row.version = rng();
    row.distances.assign(static_cast<std::size_t>(n), dist(rng));
    const auto row_bytes = Encode(row);
    EXPECT_LE(row_bytes.capacity(), row_bytes.size() + 32u) << "n=" << n;
    const auto row_decoded = Decode(row_bytes);
    ASSERT_TRUE(row_decoded.has_value());
    EXPECT_EQ(std::get<GetPDistancesResp>(*row_decoded).distances, row.distances);
  }
}

// --- golden bytes: the bulk f64 codec against the per-byte encoder ----------

/// Bit patterns a byte-swapping codec could plausibly mangle: NaN payloads
/// (quiet, negative, signaling), signed zeros, infinities, the denormal
/// range, and the extreme normals.
const std::vector<std::uint64_t> kSpecialBits = {
    0x7FF8000000000001ULL, 0xFFF8000000000000ULL, 0x7FF0000000000001ULL,
    0x0000000000000000ULL, 0x8000000000000000ULL, 0x7FF0000000000000ULL,
    0xFFF0000000000000ULL, 0x0000000000000001ULL, 0x000FFFFFFFFFFFFFULL,
    0x7FEFFFFFFFFFFFFFULL, 0xFFEFFFFFFFFFFFFFULL, 0x0010000000000000ULL};

std::vector<double> SpecialDoubles() {
  std::vector<double> values;
  for (const auto bits : kSpecialBits) values.push_back(std::bit_cast<double>(bits));
  return values;
}

/// Bytes the per-byte big-endian encoder (protocol version 1) produced.
const std::vector<std::uint8_t> kGoldenF64Vec = {
    0x00, 0x00, 0x00, 0x0C, 0x7F, 0xF8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0xFF, 0xF8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x7F, 0xF0, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x7F, 0xF0, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xFF, 0xF0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x0F, 0xFF, 0xFF,
    0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
    0xFF, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x10, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00};

const std::vector<std::uint8_t> kGoldenView = {  // GetExternalViewResp, v1
    0x01, 0x04, 0x00, 0x00, 0x00, 0x02, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
    0x07, 0x08, 0x00, 0x00, 0x00, 0x04, 0x7F, 0xF8, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x7F, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF,
    0xFF, 0xFF};

/// kFramePush of GoldenFrames(), sealed under kPublicSealKey: the matrix
/// travels once, as the view frame, followed by one content stamp per row.
const std::vector<std::uint8_t> kGoldenPush = {
    0x50, 0x34, 0x50, 0x46, 0x02, 0x01,              // "P4PF" | v2 | kFramePush
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,  // term
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,  // version
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06,  // view_version
    0x00, 0x00, 0x00, 0x02,                          // num_pids
    0x00, 0x00, 0x00, 0x0A,                          // not_modified: 10 bytes
    0x02, 0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,
    0x00, 0x00, 0x00, 0x32,                          // external_view: 50 bytes
    0x02, 0x04, 0x00, 0x00, 0x00, 0x02, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
    0x07, 0x08, 0x00, 0x00, 0x00, 0x04, 0x7F, 0xF8, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x7F, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF,
    0xFF, 0xFF,
    0x00, 0x00, 0x00, 0x02,                          // num_rows
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,  // row 0 stamp
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,  // row 1 stamp
    0x01,                                            // has policy
    0x00, 0x00, 0x00, 0x16,                          // policy: 22 bytes
    0x02, 0x06, 0x3F, 0xE0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3F, 0xE8,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x8F, 0xFA, 0x90, 0x57, 0xD2, 0x78, 0x7D, 0xB8};  // SealMac

GetExternalViewResp GoldenView() {
  const auto v = SpecialDoubles();
  GetExternalViewResp view;
  view.num_pids = 2;
  view.version = 0x0102030405060708ULL;
  view.distances = {v[0], v[4], v[7], v[9]};
  return view;
}

SnapshotFrameSet GoldenFrames() {
  SnapshotFrameSet f;
  f.term = 3;
  f.version = 7;
  f.view_version = 6;
  f.num_pids = 2;
  f.not_modified = Encode(NotModifiedResp{7});
  f.external_view = Share(Encode(GoldenView()));
  f.row_versions = {5, 7};
  f.policy = Encode(GetPolicyResp{{0.5, 0.75}, {}});
  return f;
}

/// Expects `now` to equal `old` except at `version_bytes`, where `old` holds
/// protocol version 1 and `now` the current one.
void ExpectSameButVersion(const std::vector<std::uint8_t>& now,
                          const std::vector<std::uint8_t>& old,
                          const std::vector<std::size_t>& version_bytes) {
  ASSERT_EQ(now.size(), old.size());
  auto patched = old;
  for (const std::size_t at : version_bytes) {
    ASSERT_EQ(old[at], 1u) << "byte " << at;
    patched[at] = kProtocolVersion;
  }
  EXPECT_EQ(now, patched);
}

TEST(WireGolden, F64VecBytesMatchThePerByteEncoder) {
  Writer w;
  w.f64_vec(SpecialDoubles());
  EXPECT_EQ(w.bytes(), kGoldenF64Vec);
  // Each element is exactly its bit pattern, most significant byte first.
  for (std::size_t i = 0; i < kSpecialBits.size(); ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      EXPECT_EQ(w.bytes()[4 + 8 * i + b],
                static_cast<std::uint8_t>(kSpecialBits[i] >> (56 - 8 * b)));
    }
  }
  // Decoding restores every bit pattern, NaN payloads and signs included.
  Reader r(w.bytes());
  const auto decoded = r.f64_vec();
  ASSERT_TRUE(r.done());
  ASSERT_EQ(decoded.size(), kSpecialBits.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded[i]), kSpecialBits[i]) << i;
  }
}

TEST(WireGolden, ExternalViewDiffersOnlyInTheVersionByte) {
  ExpectSameButVersion(Encode(GoldenView()), kGoldenView, {0});
}

TEST(WireGolden, FramePushShipsTheViewOnce) {
  const auto frames = GoldenFrames();
  EXPECT_EQ(EncodeFramePush(frames), kGoldenPush);
  // A replica cuts each row frame out of the view: byte-equal to Encode()
  // of that row under its stamp.
  const auto v = SpecialDoubles();
  const auto decoded = DecodeFramePush(kGoldenPush);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(testsupport::RowFrames(*decoded),
            (std::vector<std::vector<std::uint8_t>>{
                Encode(GetPDistancesResp{0, 5, {v[0], v[4]}}),
                Encode(GetPDistancesResp{1, 7, {v[7], v[9]}})}));
  EXPECT_EQ(decoded->row_versions, frames.row_versions);
  EXPECT_EQ(*decoded->external_view, *frames.external_view);
}

TEST(Wire, TruncatedF64VecRejected) {
  Writer w;
  w.f64_vec(SpecialDoubles());
  const auto& bytes = w.bytes();
  for (std::size_t cut = 1; cut < bytes.size(); cut += 3) {
    Reader r(std::span(bytes.data(), bytes.size() - cut));
    EXPECT_TRUE(r.f64_vec().empty()) << "cut " << cut;
    EXPECT_FALSE(r.ok()) << "cut " << cut;
  }
}

// --- SipHash-2-4 ------------------------------------------------------------

TEST(SipHash, MatchesReferenceVectors) {
  // Key 00 01 .. 0f and message 00 01 .. (len-1), from the SipHash paper's
  // reference implementation.
  const SealKey key{0x0706050403020100ULL, 0x0F0E0D0C0B0A0908ULL};
  std::vector<std::uint8_t> message(64);
  for (std::size_t i = 0; i < message.size(); ++i) message[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(SipHash24(key, std::span(message.data(), 0)), 0x726FDB47DD0E0E31ULL);
  EXPECT_EQ(SipHash24(key, std::span(message.data(), 1)), 0x74F839C593DC67FDULL);
  EXPECT_EQ(SipHash24(key, std::span(message.data(), 15)), 0xA129CA6149BE45E5ULL);
}

TEST(SipHash, StreamingMatchesOneShotAtEverySplit) {
  std::mt19937_64 rng(0x51F);
  std::vector<std::uint8_t> message(77);
  for (auto& b : message) b = static_cast<std::uint8_t>(rng());
  const SealKey key{rng(), rng()};
  const std::uint64_t expected = SipHash24(key, message);
  for (std::size_t a = 0; a <= message.size(); ++a) {
    for (std::size_t b = a; b <= message.size(); b += 5) {
      SipHasher hasher(key);
      hasher.update(std::span(message.data(), a));
      hasher.update(std::span(message.data() + a, b - a));
      hasher.update(std::span(message.data() + b, message.size() - b));
      ASSERT_EQ(hasher.finish(), expected) << a << "," << b;
    }
  }
}

// --- SealMac: NH-Toeplitz chunk digests under the SipHash-2-4 PRF ----------

__extension__ using U128 = unsigned __int128;

/// SealMac as wire.h specifies it, one word at a time: each chunk's words
/// assembled byte by byte, each NH pass summed in its own __int128.
std::uint64_t OracleSealMac(const SealKey& key, std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> outer(kSealMacDomain.begin(), kSealMacDomain.end());
  const auto put = [&outer](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) outer.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  for (std::size_t at = 0; at < bytes.size(); at += kNhChunkBytes) {
    const std::size_t n = std::min(kNhChunkBytes, bytes.size() - at);
    std::vector<std::uint64_t> m((n + 15) / 16 * 2, 0);  // zero-padded to 16 bytes
    for (std::size_t b = 0; b < n; ++b) {
      m[b / 8] |= std::uint64_t{bytes[at + b]} << (8 * (b % 8));
    }
    for (std::size_t pass = 0; pass < 2; ++pass) {
      U128 sum = 0;
      for (std::size_t i = 0; i < m.size(); i += 2) {
        const std::uint64_t x = m[i] + key.nh()[i + 2 * pass];
        const std::uint64_t y = m[i + 1] + key.nh()[i + 1 + 2 * pass];
        sum += static_cast<U128>(x) * y;
      }
      put(static_cast<std::uint64_t>(sum));
      put(static_cast<std::uint64_t>(sum >> 64));
    }
  }
  put(bytes.size());
  return SipHash24(key, outer);
}

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

constexpr std::size_t kMaxMacLength = 3 * kNhChunkBytes + 17;

TEST(SealMac, MatchesThePerWordOracleAtEveryLength) {
  constexpr SealKey kKey{0x5EA1AB1E5EA1AB1EULL, 0x0DDBA11C0FFEE000ULL};
  const auto message = RandomBytes(kMaxMacLength, 0x3AC);
  for (std::size_t len = 0; len <= kMaxMacLength; ++len) {
    const std::span<const std::uint8_t> m(message.data(), len);
    ASSERT_EQ(SealMac(kKey, m), OracleSealMac(kKey, m)) << "len " << len;
  }
  // Long inputs, around the points where SealMac hands its staged chunk
  // digests to SipHash, up to a push-sized frame.
  constexpr std::size_t K = kNhChunkBytes;
  const auto long_message = RandomBytes(166 * K, 0x3AD);
  for (const std::size_t len : {16 * K - 1, 16 * K, 16 * K + 1, 17 * K, 32 * K + 17,
                                33 * K, 166 * K}) {
    const std::span<const std::uint8_t> m(long_message.data(), len);
    EXPECT_EQ(SealMac(kKey, m), OracleSealMac(kKey, m)) << "len " << len;
  }
}

TEST(SealMac, EveryChunkAndThePaddedTailAreCovered) {
  constexpr SealKey kKey{0xC0DE, 0xFACE};
  auto message = RandomBytes(kMaxMacLength, 0xF11);
  for (std::size_t len = 1; len <= kMaxMacLength; ++len) {
    const std::span<const std::uint8_t> m(message.data(), len);
    const std::uint64_t tag = SealMac(kKey, m);
    // One flip in every chunk, at an offset that walks through the chunk as
    // the length grows; then one in the last byte, inside the padded block.
    std::vector<std::size_t> flips;
    for (std::size_t at = 0; at < len; at += kNhChunkBytes) {
      flips.push_back(std::min(len - 1, at + len * 7 % kNhChunkBytes));
    }
    flips.push_back(len - 1);
    for (const std::size_t at : flips) {
      const std::uint8_t bit = static_cast<std::uint8_t>(1u << (len % 8));
      message[at] ^= bit;
      EXPECT_NE(SealMac(kKey, m), tag) << "len " << len << ", byte " << at;
      message[at] ^= bit;
    }
  }
}

TEST(SealMac, TrailingZeroByteChangesTheTag) {
  // Zero padding makes m and m|00 hash to the same chunk digests whenever
  // they share a padded block; only the length word tells them apart.
  std::vector<std::uint8_t> message = RandomBytes(kMaxMacLength, 0x2E0);
  std::vector<std::uint8_t> longer;
  for (std::size_t len = 0; len <= kMaxMacLength; ++len) {
    longer.assign(message.begin(), message.begin() + static_cast<std::ptrdiff_t>(len));
    const std::uint64_t tag = SealMac(kPublicSealKey, longer);
    longer.push_back(0x00);
    EXPECT_NE(SealMac(kPublicSealKey, longer), tag) << "len " << len;
  }
}

TEST(SealMac, EachKeyHalfMatters) {
  constexpr SealKey kKey{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
  constexpr SealKey kOtherK0{kKey.k0() ^ 1, kKey.k1()};
  constexpr SealKey kOtherK1{kKey.k0(), kKey.k1() ^ 1};
  EXPECT_NE(kKey.nh(), kOtherK0.nh());
  EXPECT_NE(kKey.nh(), kOtherK1.nh());
  for (const std::size_t len : {0u, 1u, 16u, 1024u, 1500u}) {
    const auto m = RandomBytes(len, len);
    const std::uint64_t tag = SealMac(kKey, m);
    EXPECT_NE(SealMac(kOtherK0, m), tag) << "len " << len;
    EXPECT_NE(SealMac(kOtherK1, m), tag) << "len " << len;
  }
}

TEST(SealMac, UnalignedInputGivesTheSameTag) {
  const auto message = RandomBytes(2 * kNhChunkBytes + 9, 0xA11);
  const std::uint64_t tag = SealMac(kPublicSealKey, message);
  std::vector<std::uint8_t> shifted(message.size() + 16);
  for (std::size_t offset = 1; offset < 16; ++offset) {
    std::uint8_t* unaligned = shifted.data() + offset;
    std::copy(message.begin(), message.end(), unaligned);
    EXPECT_EQ(SealMac(kPublicSealKey, std::span(unaligned, message.size())), tag)
        << "offset " << offset;
  }
}

TEST(SealMac, CompileTimeKeyMatchesRuntimeDerivation) {
  static_assert(kPublicSealKey.nh()[kNhKeyWords - 1] != 0, "derived at compile time");
  volatile std::uint64_t k0 = kPublicSealKey.k0();
  volatile std::uint64_t k1 = kPublicSealKey.k1();
  const SealKey runtime{k0, k1};
  EXPECT_EQ(runtime, kPublicSealKey);
  EXPECT_EQ(runtime.nh(), kPublicSealKey.nh());
  for (std::uint64_t i = 0; i < kNhKeyWords; ++i) {
    std::uint8_t word[8];
    for (int b = 0; b < 8; ++b) word[b] = static_cast<std::uint8_t>(i >> (8 * b));
    EXPECT_EQ(kPublicSealKey.nh()[i], SipHash24(kPublicSealKey, word)) << "word " << i;
  }
}

TEST(SealMac, MatchesPinnedVectors) {
  // Key 00 01 .. 0f and message 00 01 .. (len-1) mod 256, as for SipHash.
  constexpr SealKey kKey{0x0706050403020100ULL, 0x0F0E0D0C0B0A0908ULL};
  std::vector<std::uint8_t> message(20 * kNhChunkBytes + 3);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(SealMac(kKey, std::span(message.data(), 0)), 0x3C3B09FAF8093888ULL);
  EXPECT_EQ(SealMac(kKey, std::span(message.data(), 15)), 0x082E8FB48D7793E2ULL);
  EXPECT_EQ(SealMac(kKey, std::span(message.data(), 2 * kNhChunkBytes + 17)),
            0x1F0778CA15A4F302ULL);
  EXPECT_EQ(SealMac(kKey, message), 0x2DA559BDCD829660ULL);
}

// --- the sealed envelope -----------------------------------------------------

TEST(SealedEnvelope, OpensOnlyTheExactFrameUnderItsKey) {
  constexpr SealKey kKey{1, 2};
  constexpr std::uint32_t kMagic = 0x54455354u;  // "TEST"
  Writer w = BeginSealed(kMagic, 7, 3);
  w.u8(0xAA);
  w.u16(0xBBCC);
  const auto frame = Seal(w, kKey);
  ASSERT_EQ(frame.size(), kSealHeaderBytes + 3 + kSealMacBytes);
  EXPECT_EQ(frame.capacity(), frame.size());  // header, payload and MAC reserved
  const auto payload = Open(frame, kMagic, 7, kKey);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(payload->begin(), payload->end()),
            (std::vector<std::uint8_t>{0xAA, 0xBB, 0xCC}));
  EXPECT_EQ(PeekSealedTag(frame, kMagic), 7);

  EXPECT_FALSE(Open(frame, kMagic, 8, kKey).has_value());           // wrong tag
  EXPECT_FALSE(Open(frame, kMagic + 1, 7, kKey).has_value());       // wrong magic
  EXPECT_FALSE(Open(frame, kMagic, 7, SealKey{1, 3}).has_value());  // wrong key
  EXPECT_FALSE(Open(frame, kMagic, 7, kPublicSealKey).has_value());
  EXPECT_FALSE(PeekSealedTag(frame, kMagic + 1).has_value());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(Open(std::span(frame.data(), len), kMagic, 7, kKey).has_value());
  }
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    auto flipped = frame;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(Open(flipped, kMagic, 7, kKey).has_value()) << "bit " << bit;
  }
  auto other_version = frame;
  other_version[4] = kProtocolVersion - 1;
  Writer resealed;
  resealed.raw(std::span(other_version.data(), other_version.size() - kSealMacBytes));
  EXPECT_FALSE(Open(Seal(resealed, kKey), kMagic, 7, kKey).has_value());
}

}  // namespace
}  // namespace p4p::proto
