// Deterministic, structure-aware mutational fuzzer over every wire decoder.
//
// The corpus is encoder output for every federation, telemetry and
// validation frame and every portal message. Each iteration mutates one or
// two corpus entries (bit flips, truncation, extension, splicing, and
// inflation of u32 fields that look like counts or lengths) and, for sealed
// frames, usually re-seals the result under the frame's own key: the test
// holds the key, so the mutant gets past the MAC and only each decoder's
// structural checks stand between it and a wrong answer or a huge
// allocation. Every decoder then sees every mutant. The property: nothing
// throws, and whatever decodes re-encodes to a frame that decodes again,
// and then re-encodes to the same bytes. Run under ASan/UBSan this is also
// the memory-safety check for the decoders.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "proto/federation.h"
#include "proto/messages.h"
#include "proto/telemetry.h"
#include "proto/wire.h"

namespace p4p::proto {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Deployment key of the fuzzed federation and telemetry frames.
constexpr SealKey kTestKey{0xF022F022F022F022ULL, 0x0123456789ABCDEFULL};

/// Iterations per corpus slice: enough to reach every decoder's checks
/// many times over, small enough for the sanitizer jobs.
constexpr int kIterations = 20000;

struct Codec {
  std::string name;
  /// Decodes `bytes`; on success returns the re-encoded frame.
  std::function<std::optional<Bytes>(std::span<const std::uint8_t>)> reencode;
};

template <typename Decode, typename Encode>
Codec MakeCodec(std::string name, Decode decode, Encode encode) {
  return Codec{std::move(name),
               [decode, encode](std::span<const std::uint8_t> bytes) -> std::optional<Bytes> {
                 const auto value = decode(bytes);
                 if (!value) return std::nullopt;
                 return encode(*value);
               }};
}

std::vector<Codec> AllCodecs() {
  const auto& key = kTestKey;
  return {
      MakeCodec("FramePush", [&](auto b) { return DecodeFramePush(b, key); },
                [&](const auto& v) { return EncodeFramePush(v, key); }),
      MakeCodec("DeltaPush", [&](auto b) { return DecodeDeltaPush(b, key); },
                [&](const auto& v) { return EncodeDeltaPush(v, key); }),
      MakeCodec("FrameAck", [&](auto b) { return DecodeFrameAck(b, key); },
                [&](const auto& v) { return EncodeFrameAck(v, key); }),
      MakeCodec("FramePull", [&](auto b) { return DecodeFramePull(b, key); },
                [&](const auto& v) { return EncodeFramePull(v, key); }),
      MakeCodec("Beacon", [&](auto b) { return DecodeBeacon(b, key); },
                [&](const auto& v) { return EncodeBeacon(v.term, v.version, key); }),
      MakeCodec("LinkLoadReport", [&](auto b) { return DecodeLinkLoadReport(b, key); },
                [&](const auto& v) { return EncodeLinkLoadReport(v, key); }),
      MakeCodec("TelemetryAck", [&](auto b) { return DecodeTelemetryAck(b, key); },
                [&](const auto& v) { return EncodeTelemetryAck(v, key); }),
      MakeCodec("ValidationRequest", [](auto b) { return DecodeValidationRequest(b); },
                [](const auto& v) { return EncodeValidationRequest(v); }),
      MakeCodec("ValidationResponse", [](auto b) { return DecodeValidationResponse(b); },
                [](const auto& v) {
                  return EncodeValidationResponse(v.nonce, v.status,
                                                  Encode(NotModifiedResp{v.version}));
                }),
      MakeCodec("Message", [](auto b) { return Decode(b); },
                [](const auto& v) { return Encode(v); }),
  };
}

/// A coherent frame set: an n-PID view and one content stamp per row, as
/// the push encoder requires.
SnapshotFrameSet CorpusFrames() {
  SnapshotFrameSet f;
  f.term = 2;
  f.version = 9;
  f.view_version = 9;
  f.num_pids = 3;
  f.not_modified = Encode(NotModifiedResp{9});
  f.external_view = Share(Encode(
      GetExternalViewResp{3, 9, {0.0, 1.0, 2.5, 1.0, 0.0, 4.0, 2.5, 4.0, 0.0}}));
  f.row_versions = {8, 9, 8};
  f.policy = Encode(GetPolicyResp{{0.7, 0.9}, {{1, 8, 18, 0.5}}});
  return f;
}

std::vector<Bytes> FederationCorpus() {
  const auto frames = CorpusFrames();
  DeltaPush delta;
  delta.term = 2;
  delta.base_version = 8;
  delta.version = 9;
  delta.view_version = 9;
  delta.num_pids = 3;
  delta.not_modified = frames.not_modified;
  delta.rows.push_back(DeltaRow{1, 9, RowFrameFromView(frames.view(), 1, 9)});
  delta.policy = frames.policy;
  delta.result_checksum = FrameSetChecksum(frames);
  auto no_policy = frames;
  no_policy.policy.clear();
  SnapshotFrameSet empty;
  empty.term = 2;
  empty.version = 9;
  empty.view_version = 9;
  empty.not_modified = frames.not_modified;
  empty.external_view = Share(Encode(GetExternalViewResp{0, 9, {}}));
  return {EncodeFramePush(frames, kTestKey),
          EncodeFramePush(no_policy, kTestKey),
          EncodeFramePush(empty, kTestKey),
          EncodeDeltaPush(delta, kTestKey),
          EncodeFrameAck(FrameAck{AckStatus::kInstalled, 9, 2}, kTestKey),
          EncodeFrameAck(FrameAck{AckStatus::kStaleTerm, 4, kMaxTerm}, kTestKey),
          EncodeFramePull(FramePull{8, 2, true}, kTestKey),
          EncodeBeacon(2, 9, kTestKey)};
}

std::vector<Bytes> TelemetryCorpus() {
  return {EncodeLinkLoadReport(LinkLoadReport{7, 3, {{0, 1.5e9}, {4, 0.0}, {9, 2e6}}},
                               kTestKey),
          EncodeLinkLoadReport(LinkLoadReport{1, 1, {}}, kTestKey),
          EncodeTelemetryAck(TelemetryAck{TelemetryStatus::kStaleSeq, 12}, kTestKey)};
}

std::vector<Bytes> ValidationCorpus() {
  return {EncodeValidationRequest(ValidationRequest{0xABCD, 77}),
          EncodeValidationResponse(0xABCD, ValidationStatus::kNotModified,
                                   Encode(NotModifiedResp{77})),
          EncodeValidationResponse(1, ValidationStatus::kRevalidateOverTcp,
                                   Encode(NotModifiedResp{78}))};
}

std::vector<Bytes> MessageCorpus() {
  core::Capability cache;
  cache.type = core::CapabilityType::kCache;
  cache.pid = 2;
  cache.capacity_bps = 1e9;
  cache.description = "edge cache";
  return {Encode(ErrorMsg{"unknown PID"}),
          Encode(GetPDistancesReq{4, 11}),
          Encode(GetPDistancesResp{4, 11, {0.5, 1.5, 2.5}}),
          Encode(GetExternalViewReq{11}),
          Encode(GetExternalViewResp{2, 11, {0.0, 1.0, 1.0, 0.0}}),
          Encode(GetPolicyReq{}),
          Encode(GetPolicyResp{{0.6, 0.8}, {{3, 1, 6, 0.4}, {5, 20, 23, 0.9}}}),
          Encode(GetCapabilityReq{core::CapabilityType::kCache, "swarm-42"}),
          Encode(GetCapabilityResp{{cache}}),
          Encode(GetPidMapReq{"10.0.0.7"}),
          Encode(GetPidMapResp{true, 3, 64512}),
          Encode(NotModifiedResp{11}),
          Encode(UnavailableResp{250})};
}

std::vector<Bytes> AllCorpus() {
  std::vector<Bytes> all;
  for (auto part : {FederationCorpus(), TelemetryCorpus(), ValidationCorpus(),
                    MessageCorpus()}) {
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

/// The key a sealed frame was minted under, judged by its magic;
/// std::nullopt for the unsealed portal messages.
std::optional<SealKey> KeyFor(const Bytes& frame) {
  if (PeekSealedTag(frame, kValidationMagic)) return kPublicSealKey;
  if (PeekSealedTag(frame, kFederationMagic) || PeekSealedTag(frame, kTelemetryMagic)) {
    return kTestKey;
  }
  return std::nullopt;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t Below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  /// One mutant of `base` (splicing draws its donor from `corpus`).
  Bytes Mutate(const Bytes& base, const std::vector<Bytes>& corpus) {
    const auto key = KeyFor(base);
    // Sealed frames: mutate the body and usually re-seal, so the mutant
    // reaches the decoder behind the MAC.
    const bool reseal = key && Below(4) != 0;
    Bytes bytes = base;
    if (reseal) bytes.resize(bytes.size() - kSealMacBytes);
    switch (Below(5)) {
      case 0:  // bit flips
        for (std::size_t n = 1 + Below(4); n > 0 && !bytes.empty(); --n) {
          bytes[Below(bytes.size())] ^= static_cast<std::uint8_t>(1u << Below(8));
        }
        break;
      case 1:  // truncation
        bytes.resize(Below(bytes.size() + 1));
        break;
      case 2:  // extension
        for (std::size_t n = 1 + Below(16); n > 0; --n) {
          bytes.push_back(static_cast<std::uint8_t>(rng_()));
        }
        break;
      case 3: {  // splice: a prefix of this frame, the tail of another
        const Bytes& donor = corpus[Below(corpus.size())];
        bytes.resize(Below(bytes.size() + 1));
        bytes.insert(bytes.end(), donor.begin() + static_cast<std::ptrdiff_t>(
                                                      Below(donor.size() + 1)),
                     donor.end());
        break;
      }
      default:
        Inflate(bytes);
        break;
    }
    if (!reseal) return bytes;
    Writer w;
    w.raw(bytes);
    return Seal(w, *key);
  }

 private:
  /// Rewrites a u32 that looks like a count or a length (at most the frame
  /// size) to a value the remaining bytes cannot back. Half the time every
  /// u32 holding the same value moves with it, so counts a decoder
  /// cross-checks (num_pids against the row count) stay consistent and
  /// only its bound against the remaining bytes can refuse them.
  void Inflate(Bytes& bytes) {
    std::vector<std::size_t> fields;
    for (std::size_t at = 0; at + 4 <= bytes.size(); ++at) {
      if (ReadU32(bytes, at) <= bytes.size()) fields.push_back(at);
    }
    if (fields.empty()) return;
    const std::size_t at = fields[Below(fields.size())];
    const std::uint32_t old = ReadU32(bytes, at);
    const std::uint32_t inflated[] = {old + 1, old * 2 + 1, 0x7FFFFFFFu, 0xFFFFFFFFu,
                                      0x80000000u, old == 0 ? 1 : old - 1};
    const std::uint32_t v = inflated[Below(std::size(inflated))];
    const bool all_alike = Below(2) == 0;
    for (const std::size_t field : fields) {
      if (field == at || (all_alike && ReadU32(bytes, field) == old)) {
        for (std::size_t i = 0; i < 4; ++i) {
          bytes[field + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
        }
      }
    }
  }

  static std::uint32_t ReadU32(const Bytes& bytes, std::size_t at) {
    return (std::uint32_t{bytes[at]} << 24) | (std::uint32_t{bytes[at + 1]} << 16) |
           (std::uint32_t{bytes[at + 2]} << 8) | bytes[at + 3];
  }

  std::mt19937_64 rng_;
};

/// Feeds `input` to every decoder and checks the round-trip property.
/// Returns how many decoders accepted it.
int CheckAllDecoders(const std::vector<Codec>& codecs, const Bytes& input) {
  int accepted = 0;
  for (const auto& codec : codecs) {
    try {
      const auto first = codec.reencode(input);
      if (!first) continue;
      ++accepted;
      const auto second = codec.reencode(*first);
      if (!second) {
        ADD_FAILURE() << codec.name << ": re-encoded frame does not decode";
        continue;
      }
      const auto third = codec.reencode(*second);
      if (!third || *third != *second) {
        ADD_FAILURE() << codec.name << ": re-encoding is not a fixed point";
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << codec.name << " threw: " << e.what();
    }
  }
  return accepted;
}

/// Mutates entries of `slice` (donors from the whole corpus) and checks
/// every mutant against every decoder.
void Fuzz(const std::vector<Bytes>& slice, std::uint64_t seed) {
  const auto codecs = AllCodecs();
  const auto corpus = AllCorpus();
  // The pristine corpus decodes: the fuzzer starts from valid frames.
  for (const auto& frame : slice) ASSERT_EQ(CheckAllDecoders(codecs, frame), 1);
  Mutator mutator(seed);
  int accepted = 0;
  for (int i = 0; i < kIterations && !::testing::Test::HasFailure(); ++i) {
    const Bytes& base = slice[mutator.Below(slice.size())];
    accepted += CheckAllDecoders(codecs, mutator.Mutate(base, corpus)) > 0 ? 1 : 0;
  }
  // Some mutants must get through (re-sealed, structurally valid), or the
  // round-trip half of the property was never exercised.
  EXPECT_GT(accepted, 0);
}

TEST(WireFuzz, FederationFrames) { Fuzz(FederationCorpus(), 0xFED); }

TEST(WireFuzz, TelemetryFrames) { Fuzz(TelemetryCorpus(), 0x7E1); }

TEST(WireFuzz, ValidationDatagrams) { Fuzz(ValidationCorpus(), 0x0DA7A); }

TEST(WireFuzz, PortalMessages) { Fuzz(MessageCorpus(), 0x90127A1); }

}  // namespace
}  // namespace p4p::proto
