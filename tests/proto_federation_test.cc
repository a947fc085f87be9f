// Federated serving plane tests: frame codec totality, monotone installs,
// byte-identical follower serving, publisher push/pull/beacon replication
// under lossy links, static publisher election,
// and the end-to-end failover guarantee — a version token obtained from the
// publisher must earn NotModified from a follower after failover.
#include "proto/federation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "net/topology.h"
#include "proto/directory.h"
#include "proto/messages.h"
#include "proto/wire.h"
#include "support/fault_injection.h"
#include "support/frame_rows.h"
#include "support/replication_harness.h"

namespace p4p::proto {
namespace {

// --- codec ------------------------------------------------------------------

class FederationCodecTest : public ::testing::Test {
 protected:
  /// A coherent frame set: an n-PID view whose embedded version is its
  /// content stamp and one stamp per row — exactly what ITrackerService
  /// exports and what the push encoder requires.
  SnapshotFrameSet MakeFrames(std::uint64_t version, int num_pids,
                              double fill = 1.5) {
    const auto n = static_cast<std::size_t>(num_pids);
    SnapshotFrameSet f;
    f.version = version;
    f.view_version = version;
    f.num_pids = num_pids;
    f.row_versions.assign(n, version);
    f.not_modified = Encode(NotModifiedResp{version});
    GetExternalViewResp view;
    view.num_pids = num_pids;
    view.version = version;
    view.distances.assign(n * n, fill);
    f.external_view = Share(Encode(view));
    return f;
  }

  /// The frame set at `version` after re-pricing only `changed_pids` rows
  /// (their doubles become `value`, their stamps `version`); everything
  /// else carries the base's bytes and stamps forward, the way the
  /// service's diff-based rebuild does.
  SnapshotFrameSet Advance(const SnapshotFrameSet& base, std::uint64_t version,
                           const std::vector<int>& changed_pids, double value) {
    const auto n = static_cast<std::size_t>(base.num_pids);
    SnapshotFrameSet next = base;
    next.version = version;
    next.not_modified = Encode(NotModifiedResp{version});
    if (changed_pids.empty()) return next;
    next.view_version = version;
    auto view = std::get<GetExternalViewResp>(*Decode(base.view()));
    view.version = version;
    for (const int pid : changed_pids) {
      next.row_versions[static_cast<std::size_t>(pid)] = version;
      std::fill_n(view.distances.begin() + pid * base.num_pids, n, value);
    }
    next.external_view = Share(Encode(view));
    return next;
  }

};

TEST_F(FederationCodecTest, PushRoundTrip) {
  // Rows re-priced at different versions carry different stamps. Built by
  // advancing a coherent set, so every row is still the view's slice under
  // its own stamp, which is all a push can carry.
  auto frames = Advance(Advance(MakeFrames(3, 4), 5, {0}, 2.5), 7, {1, 3}, 4.0);
  frames.policy = Encode(GetPolicyResp{});
  ASSERT_EQ(frames.row_versions, (std::vector<std::uint64_t>{5, 7, 3, 7}));
  const auto bytes = EncodeFramePush(frames);
  EXPECT_EQ(PeekFederationTag(bytes), FederationTag::kFramePush);
  // The matrix travels once: the view, then one stamp per row.
  EXPECT_EQ(bytes.size(), kSealHeaderBytes + 8 + 8 + 8 + 4 + 4 +
                              frames.not_modified.size() + 4 +
                              frames.view().size() + 4 + 4 * 8 + 1 + 4 +
                              frames.policy.size() + kSealMacBytes);
  const auto decoded = DecodeFramePush(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->view_version, 7u);
  EXPECT_EQ(decoded->num_pids, 4);
  EXPECT_EQ(decoded->row_versions, frames.row_versions);
  EXPECT_EQ(decoded->not_modified, frames.not_modified);
  EXPECT_EQ(*decoded->external_view, *frames.external_view);
  EXPECT_EQ(decoded->policy, frames.policy);
  // Row 1 was re-priced at 7: the follower cuts it from the view under that
  // stamp, byte-equal to Encode() of the row.
  EXPECT_EQ(testsupport::RowFrames(*decoded)[1],
            Encode(GetPDistancesResp{1, 7, {4.0, 4.0, 4.0, 4.0}}));
}

TEST_F(FederationCodecTest, PushRefusesInconsistentFrameSets) {
  const auto good = Advance(MakeFrames(3, 3), 5, {1}, 2.5);
  ASSERT_NO_THROW(EncodeFramePush(good));

  auto missing_stamp = good;
  missing_stamp.row_versions.pop_back();
  EXPECT_THROW(EncodeFramePush(missing_stamp), std::invalid_argument);

  auto extra_stamp = good;
  extra_stamp.row_versions.push_back(5);
  EXPECT_THROW(EncodeFramePush(extra_stamp), std::invalid_argument);

  // A set holds no row frames, so no row can disagree with the view: only
  // the view's shape and the stamp count are left to check.
  auto other_count = good;
  other_count.num_pids = 2;
  EXPECT_THROW(EncodeFramePush(other_count), std::invalid_argument);

  auto no_view = good;
  no_view.external_view = nullptr;
  EXPECT_THROW(EncodeFramePush(no_view), std::invalid_argument);
}

TEST_F(FederationCodecTest, PushRoundTripWithoutPolicy) {
  const auto frames = MakeFrames(3, 2);
  const auto decoded = DecodeFramePush(EncodeFramePush(frames));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->policy.empty());
}

TEST_F(FederationCodecTest, PushRejectsCorruptionAndTruncation) {
  const auto bytes = EncodeFramePush(MakeFrames(5, 3));
  // Any single-bit flip must be caught by the trailing MAC (or the
  // header checks); sample positions across the frame.
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    auto corrupt = bytes;
    corrupt[pos] ^= 0x40;
    EXPECT_FALSE(DecodeFramePush(corrupt).has_value()) << "bit flip at " << pos;
  }
  for (const std::size_t len : {std::size_t{0}, std::size_t{5}, std::size_t{9},
                                bytes.size() - 5, bytes.size() - 1}) {
    EXPECT_FALSE(
        DecodeFramePush(std::span(bytes).first(len)).has_value())
        << "truncated to " << len;
  }
  // Trailing garbage after a valid frame is rejected too.
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_FALSE(DecodeFramePush(extended).has_value());
}

TEST_F(FederationCodecTest, AckPullBeaconRoundTrip) {
  const auto ack_bytes = EncodeFrameAck(FrameAck{AckStatus::kInstalled, 9});
  EXPECT_EQ(PeekFederationTag(ack_bytes), FederationTag::kFrameAck);
  const auto ack = DecodeFrameAck(ack_bytes);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kInstalled);
  EXPECT_EQ(ack->version, 9u);

  const auto pull_bytes = EncodeFramePull(FramePull{4});
  EXPECT_EQ(PeekFederationTag(pull_bytes), FederationTag::kFramePull);
  const auto pull = DecodeFramePull(pull_bytes);
  ASSERT_TRUE(pull.has_value());
  EXPECT_EQ(pull->have_version, 4u);
  const auto termed_pull =
      DecodeFramePull(EncodeFramePull(FramePull{4, /*have_term=*/2}));
  ASSERT_TRUE(termed_pull.has_value());
  EXPECT_EQ(termed_pull->have_term, 2u);

  const auto stale_term =
      DecodeFrameAck(EncodeFrameAck(FrameAck{AckStatus::kStaleTerm, 3, 7}));
  ASSERT_TRUE(stale_term.has_value());
  EXPECT_EQ(stale_term->status, AckStatus::kStaleTerm);
  EXPECT_EQ(stale_term->term, 7u);

  const auto beacon_bytes = EncodeBeacon(3, 12);
  EXPECT_EQ(PeekFederationTag(beacon_bytes), FederationTag::kBeacon);
  const auto beacon = DecodeBeacon(beacon_bytes);
  ASSERT_TRUE(beacon.has_value());
  EXPECT_EQ(beacon->term, 3u);
  EXPECT_EQ(beacon->version, 12u);

  // Cross-tag decoding fails: a beacon is not an ack and vice versa.
  EXPECT_FALSE(DecodeFrameAck(beacon_bytes).has_value());
  EXPECT_FALSE(DecodeBeacon(ack_bytes).has_value());
  EXPECT_FALSE(DecodeFramePush(pull_bytes).has_value());
}

TEST_F(FederationCodecTest, DecodersTotalOnRandomBytes) {
  std::mt19937_64 rng(0xFEDED);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> noise(rng() % 64);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    // Random bytes must never decode (the 1-in-2^32 checksum fluke aside,
    // these seeds don't hit it) and must never crash.
    EXPECT_FALSE(DecodeFramePush(noise).has_value());
    EXPECT_FALSE(DecodeFrameAck(noise).has_value());
    EXPECT_FALSE(DecodeFramePull(noise).has_value());
    EXPECT_FALSE(DecodeBeacon(noise).has_value());
  }
}

/// Deployment key of the forgery tests: a sender holding it can mint any
/// frame it likes.
constexpr SealKey kTestKey{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};

/// Header, payload from `body`, and a valid MAC under kTestKey: the frame
/// gets past Open, so only the decoder's own bounds stand between a forged
/// count and an allocation.
std::vector<std::uint8_t> SealForged(FederationTag tag,
                                     const std::function<void(Writer&)>& body) {
  Writer w = BeginSealed(kFederationMagic, static_cast<std::uint8_t>(tag), 0);
  body(w);
  return Seal(w, kTestKey);
}

TEST_F(FederationCodecTest, PushRejectsRowCountBeyondPayload) {
  constexpr std::int32_t kHuge = std::numeric_limits<std::int32_t>::max();
  const auto bytes = SealForged(FederationTag::kFramePush, [](Writer& w) {
    w.u64(1);      // term
    w.u64(2);      // version
    w.u64(2);      // view_version
    w.i32(kHuge);  // num_pids
    w.blob({});    // not_modified
    w.blob({});    // external_view
    w.u32(static_cast<std::uint32_t>(kHuge));  // num_rows
  });
  EXPECT_EQ(bytes.size(), kSealHeaderBytes + 40 + kSealMacBytes);
  std::optional<SnapshotFrameSet> decoded;
  EXPECT_NO_THROW(decoded = DecodeFramePush(bytes, kTestKey));
  EXPECT_FALSE(decoded.has_value());
}

/// A push in the current layout around `view`, sealed under kTestKey:
/// `num_pids` and `num_rows` as given, then `stamps` row stamps.
std::vector<std::uint8_t> ForgedPush(std::int32_t num_pids,
                                     std::span<const std::uint8_t> view,
                                     std::uint32_t num_rows, std::size_t stamps) {
  return SealForged(FederationTag::kFramePush, [&](Writer& w) {
    w.u64(1);  // term
    w.u64(2);  // version
    w.u64(2);  // view_version
    w.i32(num_pids);
    w.blob(Encode(NotModifiedResp{2}));
    w.blob(view);
    w.u32(num_rows);
    for (std::size_t i = 0; i < stamps; ++i) w.u64(2);
    w.u8(0);  // no policy
  });
}

/// A view-shaped frame with a free header: protocol version, type byte,
/// num_pids and element count, then `doubles` doubles.
std::vector<std::uint8_t> ViewLike(std::uint8_t version, MsgType type,
                                   std::int32_t num_pids, std::uint32_t count,
                                   std::size_t doubles) {
  Writer w;
  w.u8(version);
  w.u8(static_cast<std::uint8_t>(type));
  w.i32(num_pids);
  w.u64(2);
  w.u32(count);
  for (std::size_t i = 0; i < doubles; ++i) w.f64(1.0);
  return w.take();
}

TEST_F(FederationCodecTest, PushRejectsForgedViews) {
  constexpr auto kView = MsgType::kGetExternalViewResp;
  constexpr auto kVer = kProtocolVersion;
  // The forger's frames are well-formed when the view is: a 2-PID view and
  // two stamps decode, with both rows cut from the view.
  const auto good_view = ViewLike(kVer, kView, 2, 4, 4);
  const auto good = DecodeFramePush(ForgedPush(2, good_view, 2, 2), kTestKey);
  ASSERT_TRUE(good.has_value());
  ASSERT_EQ(good->row_versions.size(), 2u);
  EXPECT_EQ(testsupport::RowFrames(*good)[1], Encode(GetPDistancesResp{1, 2, {1.0, 1.0}}));

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> forged = {
      // A row frame has the view's layout, but not its type.
      {"row type byte",
       ForgedPush(2, ViewLike(kVer, MsgType::kGetPDistancesResp, 2, 4, 4), 2, 2)},
      {"old protocol version", ForgedPush(2, ViewLike(1, kView, 2, 4, 4), 2, 2)},
      {"view for 3 PIDs", ForgedPush(2, ViewLike(kVer, kView, 3, 9, 9), 2, 2)},
      {"count is not num_pids^2", ForgedPush(2, ViewLike(kVer, kView, 2, 3, 3), 2, 2)},
      {"fewer doubles than count", ForgedPush(2, ViewLike(kVer, kView, 2, 4, 3), 2, 2)},
      {"more doubles than count", ForgedPush(2, ViewLike(kVer, kView, 2, 4, 5), 2, 2)},
      {"negative num_pids", ForgedPush(-1, ViewLike(kVer, kView, -1, 1, 1), ~0u, 0)},
      {"empty view", ForgedPush(0, {}, 0, 0)},
      // 2^16 squared is 2^32, which a u32 count (or a 32-bit size_t) wraps
      // to 0: a decoder multiplying in either would accept an empty matrix.
      {"count wraps to 0",
       ForgedPush(1 << 16, ViewLike(kVer, kView, 1 << 16, 0, 0), 1u << 16,
                  std::size_t{1} << 16)},
      // (2^31-1)^2 = 2^62 - 2^32 + 1: 1 modulo 2^32, and times 8 it wraps
      // a 64-bit size_t.
      {"count wraps to 1",
       ForgedPush(std::numeric_limits<std::int32_t>::max(),
                  ViewLike(kVer, kView, std::numeric_limits<std::int32_t>::max(), 1, 1),
                  std::numeric_limits<std::int32_t>::max(), 2)},
      {"num_rows 2^32-1", ForgedPush(2, good_view, ~0u, 2)},
      {"num_rows above num_pids", ForgedPush(2, good_view, 3, 3)},
  };
  // Truncated views: cut inside the doubles, inside the header, and to one
  // byte.
  for (const std::size_t keep : {good_view.size() - 1, std::size_t{17}, std::size_t{1}}) {
    forged.emplace_back("view truncated to " + std::to_string(keep),
                        ForgedPush(2, std::span(good_view).first(keep), 2, 2));
  }
  for (const auto& [what, bytes] : forged) {
    std::optional<SnapshotFrameSet> decoded;
    EXPECT_NO_THROW(decoded = DecodeFramePush(bytes, kTestKey)) << what;
    EXPECT_FALSE(decoded.has_value()) << what;
  }
}

TEST_F(FederationCodecTest, PushRejectsTheRowCarryingLayout) {
  // The layout that shipped each row frame after its stamp. Its view and
  // rows are coherent and its MAC is valid; it must still be refused, not
  // read as stamps.
  const auto frames = MakeFrames(2, 2);
  const auto bytes = SealForged(FederationTag::kFramePush, [&](Writer& w) {
    w.u64(1);  // term
    w.u64(frames.version);
    w.u64(frames.view_version);
    w.i32(frames.num_pids);
    w.blob(frames.not_modified);
    w.blob(frames.view());
    const auto rows = testsupport::RowFrames(frames);
    w.u32(static_cast<std::uint32_t>(rows.size()));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      w.u64(frames.row_versions[i]);
      w.blob(rows[i]);
    }
    w.u8(0);  // no policy
  });
  std::optional<SnapshotFrameSet> decoded;
  EXPECT_NO_THROW(decoded = DecodeFramePush(bytes, kTestKey));
  EXPECT_FALSE(decoded.has_value());
}

/// The three wire elements of the retired delta push, each sealed under
/// kTestKey: a tag-5 frame (the old delta layout, with a row count no
/// payload backs), an ack with status 4 (the old kNeedFullSet), and a pull
/// in the old 17-byte layout with its trailing want_full byte.
std::vector<std::uint8_t> ForgedDeltaFrame() {
  return SealForged(static_cast<FederationTag>(5), [](Writer& w) {
    w.u64(1);  // term
    w.u64(1);  // base_version
    w.u64(2);  // version
    w.u64(2);  // view_version
    w.i32(std::numeric_limits<std::int32_t>::max());  // num_pids
    w.blob({});                                       // not_modified
    w.u32(std::numeric_limits<std::uint32_t>::max()); // num_rows
  });
}
std::vector<std::uint8_t> ForgedNeedFullSetAck() {
  return SealForged(FederationTag::kFrameAck, [](Writer& w) {
    w.u8(4);   // status
    w.u64(2);  // version
    w.u64(1);  // term
  });
}
std::vector<std::uint8_t> ForgedWantFullPull() {
  return SealForged(FederationTag::kFramePull, [](Writer& w) {
    w.u64(1);  // have_version
    w.u64(1);  // have_term
    w.u8(1);   // want_full
  });
}

TEST_F(FederationCodecTest, RetiredWireElementsAreRefused) {
  const auto delta = ForgedDeltaFrame();
  EXPECT_EQ(PeekSealedTag(delta, kFederationMagic), 5);
  EXPECT_EQ(PeekFederationTag(delta), std::nullopt);
  const auto ack = ForgedNeedFullSetAck();
  const auto pull = ForgedWantFullPull();
  EXPECT_EQ(pull.size(), kSealHeaderBytes + 17 + kSealMacBytes);
  for (const auto* bytes : {&delta, &ack, &pull}) {
    EXPECT_NO_THROW({
      EXPECT_FALSE(DecodeFramePush(*bytes, kTestKey).has_value());
      EXPECT_FALSE(DecodeFrameAck(*bytes, kTestKey).has_value());
      EXPECT_FALSE(DecodeFramePull(*bytes, kTestKey).has_value());
      EXPECT_FALSE(DecodeBeacon(*bytes, kTestKey).has_value());
    });
  }
  // The same elements in their kept layouts decode: the refusals above are
  // the retirement, not a sealing artifact.
  EXPECT_TRUE(DecodeFrameAck(SealForged(FederationTag::kFrameAck, [](Writer& w) {
                               w.u8(5);
                               w.u64(2);
                               w.u64(1);
                             }), kTestKey).has_value());
  const auto pull16 = EncodeFramePull(FramePull{1, 1}, kTestKey);
  EXPECT_EQ(pull16.size(), kSealHeaderBytes + 16 + kSealMacBytes);
  EXPECT_TRUE(DecodeFramePull(pull16, kTestKey).has_value());
}

TEST_F(FederationCodecTest, FramesOpenOnlyUnderTheirOwnKey) {
  constexpr SealKey kOtherKey{kTestKey.k0(), kTestKey.k1() ^ 1};
  const auto frames = MakeFrames(4, 3);
  const auto push = EncodeFramePush(frames, kTestKey);
  EXPECT_TRUE(DecodeFramePush(push, kTestKey).has_value());
  EXPECT_FALSE(DecodeFramePush(push, kOtherKey).has_value());
  EXPECT_FALSE(DecodeFramePush(push).has_value());  // public key
  // A forger without the key can only guess the MAC: re-sealing under the
  // public key is refused, and so is a term-maxing beacon.
  EXPECT_FALSE(DecodeFramePush(EncodeFramePush(frames), kTestKey).has_value());
  EXPECT_FALSE(DecodeBeacon(EncodeBeacon(kMaxTerm, 1), kTestKey).has_value());
  EXPECT_TRUE(DecodeBeacon(EncodeBeacon(kMaxTerm, 1, kTestKey), kTestKey).has_value());
}

TEST_F(FederationCodecTest, EveryDecoderRefusesTermsBeyondMaxTerm) {
  constexpr std::uint64_t kWrapping = kMaxTerm + 1;  // 2^32
  ASSERT_EQ(kWrapping, std::uint64_t{1} << 32);
  auto frames = MakeFrames(4, 3);
  frames.term = kWrapping;
  EXPECT_FALSE(DecodeFramePush(EncodeFramePush(frames, kTestKey), kTestKey).has_value());
  frames.term = kMaxTerm;
  EXPECT_TRUE(DecodeFramePush(EncodeFramePush(frames, kTestKey), kTestKey).has_value());

  for (const std::uint64_t term : {kWrapping, ~std::uint64_t{0}}) {
    EXPECT_FALSE(DecodeFramePull(EncodeFramePull(FramePull{1, term}, kTestKey),
                                 kTestKey)
                     .has_value());
    EXPECT_FALSE(
        DecodeFrameAck(EncodeFrameAck(FrameAck{AckStatus::kStaleTerm, 1, term}, kTestKey),
                       kTestKey)
            .has_value());
    EXPECT_FALSE(DecodeBeacon(EncodeBeacon(term, 1, kTestKey), kTestKey).has_value());
  }
}

// --- store ------------------------------------------------------------------

TEST(FederationStoreTest, InstallsAreMonotone) {
  ReplicatedSnapshotStore store;
  EXPECT_EQ(store.current(), nullptr);
  EXPECT_EQ(store.version(), 0u);

  SnapshotFrameSet v2;
  v2.version = 2;
  EXPECT_TRUE(store.Install(v2));
  EXPECT_EQ(store.version(), 2u);

  SnapshotFrameSet v1;
  v1.version = 1;
  EXPECT_FALSE(store.Install(v1));  // older: ignored
  EXPECT_EQ(store.version(), 2u);
  EXPECT_FALSE(store.Install(v2));  // duplicate: ignored
  EXPECT_EQ(store.version(), 2u);
  EXPECT_EQ(store.install_count(), 1u);
  EXPECT_EQ(store.stale_install_count(), 2u);

  // A reader holding the old frame set keeps it across a newer install.
  const auto held = store.current();
  SnapshotFrameSet v3;
  v3.version = 3;
  EXPECT_TRUE(store.Install(v3));
  EXPECT_EQ(held->version, 2u);
  EXPECT_EQ(store.version(), 3u);
}

// --- replica fixtures -------------------------------------------------------

class FederationTest : public ::testing::Test {
 protected:
  FederationTest()
      : graph_(net::MakeAbilene()), routing_(graph_), tracker_(graph_, routing_),
        service_(&tracker_, &policy_), follower_service_(&store_),
        follower_(&store_) {
    policy_.SetThresholds(core::UsageThresholds{0.7, 0.9});
  }

  /// Bumps the tracker's price version deterministically. Every link's
  /// price moves, so every p-distance row changes — full-push territory.
  void BumpVersion(int round) {
    std::vector<double> prices(graph_.link_count());
    for (std::size_t e = 0; e < prices.size(); ++e) {
      prices[e] = 1e-9 * (1.0 + static_cast<double>((round + 1) * (e + 1)));
    }
    tracker_.SetStaticPrices(prices);
  }

  /// Reprices exactly one directed link on an otherwise flat price map:
  /// only the rows routed across it get new content stamps (the first call
  /// changes everything).
  void BumpOneLink(int round) {
    std::vector<double> prices(graph_.link_count(), 1e-9);
    prices[0] = 1e-9 * (2.0 + static_cast<double>(round));
    tracker_.SetStaticPrices(prices);
  }

  net::Graph graph_;
  net::RoutingTable routing_;
  core::ITracker tracker_;
  core::PolicyRegistry policy_;
  ITrackerService service_;
  ReplicatedSnapshotStore store_;
  FollowerPortalService follower_service_;
  SnapshotFollower follower_;
};

TEST_F(FederationTest, ExportFramesMatchesServedBytes) {
  BumpVersion(0);
  const auto frames = service_.ExportFrames();
  EXPECT_EQ(frames.version, tracker_.version());
  EXPECT_EQ(frames.num_pids, tracker_.num_pids());
  EXPECT_EQ(*frames.external_view, service_.Handle(Encode(GetExternalViewReq{})));
  const auto rows = testsupport::RowFrames(frames);
  EXPECT_EQ(rows.size(), static_cast<std::size_t>(tracker_.num_pids()));
  for (core::Pid i = 0; i < tracker_.num_pids(); ++i) {
    EXPECT_EQ(rows[static_cast<std::size_t>(i)],
              service_.Handle(Encode(GetPDistancesReq{i})));
  }
  EXPECT_EQ(frames.not_modified,
            service_.Handle(Encode(GetExternalViewReq{frames.version})));
  EXPECT_EQ(frames.policy, service_.Handle(Encode(GetPolicyReq{})));
}

TEST_F(FederationTest, FollowerServesByteIdenticalFrames) {
  BumpVersion(0);
  ASSERT_TRUE(store_.Install(service_.ExportFrames()));
  const auto version = tracker_.version();

  // Every follower answer is byte-identical to the publisher's.
  for (const auto& request :
       {Encode(GetExternalViewReq{}), Encode(GetExternalViewReq{version}),
        Encode(GetPDistancesReq{3}), Encode(GetPDistancesReq{3, version}),
        Encode(GetPolicyReq{})}) {
    EXPECT_EQ(follower_service_.Handle(request), service_.Handle(request));
  }
  // Out-of-range PID errors identically.
  EXPECT_EQ(follower_service_.Handle(Encode(GetPDistancesReq{99})),
            service_.Handle(Encode(GetPDistancesReq{99})));

  // UDP validation answers are byte-identical as well (same nonce in, same
  // pre-encoded NotModifiedResp tail out).
  const auto datagram = EncodeValidationRequest(ValidationRequest{77, version});
  EXPECT_EQ(follower_service_.HandleValidationDatagram(datagram),
            service_.HandleValidationDatagram(datagram));
}

TEST_F(FederationTest, FollowerShedsBeforeFirstInstall) {
  const auto response = follower_service_.Handle(Encode(GetExternalViewReq{}));
  const auto decoded = Decode(response);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NE(std::get_if<UnavailableResp>(&*decoded), nullptr);
  // PortalClient surfaces the shed as its typed, retryable error.
  PortalClient client(std::make_unique<InProcessTransport>(follower_service_.handler()));
  EXPECT_THROW(client.GetExternalView(), PortalUnavailableError);
  // Validation datagrams get silence, not a bogus version.
  EXPECT_EQ(follower_service_.HandleValidationDatagram(
                EncodeValidationRequest(ValidationRequest{1, 5})),
            std::nullopt);
}

TEST_F(FederationTest, PublishOncePushesAndCachesPerVersion) {
  SnapshotPublisher publisher(&service_);
  publisher.AddFollower("b.example", 1,
                        std::make_unique<InProcessTransport>(
                            follower_.replication_handler()));

  BumpVersion(0);
  EXPECT_EQ(publisher.PublishOnce(), 1u);
  EXPECT_EQ(store_.version(), tracker_.version());
  EXPECT_EQ(publisher.published_version(), tracker_.version());
  EXPECT_EQ(publisher.push_count(), 1u);

  // Republishing the same version pushes nothing.
  EXPECT_EQ(publisher.PublishOnce(), 1u);
  EXPECT_EQ(publisher.push_count(), 1u);

  BumpVersion(1);
  EXPECT_EQ(publisher.PublishOnce(), 1u);
  EXPECT_EQ(store_.version(), tracker_.version());
  EXPECT_EQ(publisher.push_count(), 2u);
  EXPECT_EQ(follower_.push_install_count(), 2u);
  EXPECT_EQ(publisher.push_failure_count(), 0u);
}

// One version's view frame is one allocation on the publisher: every
// export, the set pushes are encoded from and every full-view answer share
// it. A follower holds the copy it read out of the push and serves that.
TEST_F(FederationTest, OneVersionSharesOneViewBuffer) {
  SnapshotPublisher publisher(&service_);
  publisher.AddFollower("b.example", 1,
                        std::make_unique<InProcessTransport>(
                            follower_.replication_handler()));
  BumpVersion(0);
  const auto first = service_.ExportFrames();
  const auto second = service_.ExportFrames();
  ASSERT_NE(first.external_view, nullptr);
  EXPECT_EQ(second.external_view, first.external_view);

  ASSERT_EQ(publisher.PublishOnce(), 1u);
  const auto published = publisher.published_frames();
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->external_view, first.external_view);
  EXPECT_EQ(service_.HandleShared(Encode(GetExternalViewReq{})), first.external_view);

  const auto held = store_.current();
  ASSERT_NE(held, nullptr);
  EXPECT_NE(held->external_view, first.external_view);
  EXPECT_EQ(*held->external_view, *first.external_view);
  EXPECT_EQ(follower_service_.HandleShared(Encode(GetExternalViewReq{})),
            held->external_view);

  // A new version is a new buffer; the old one keeps its bytes.
  const auto old_bytes = *first.external_view;
  BumpVersion(1);
  EXPECT_NE(service_.ExportFrames().external_view, first.external_view);
  EXPECT_EQ(*first.external_view, old_bytes);
}

TEST_F(FederationTest, FollowerRefusesPushSealedUnderAnotherKey) {
  constexpr SealKey kFollowerKey{0x1111, 0x2222};
  constexpr SealKey kForgerKey{0x1111, 0x2223};
  ReplicatedSnapshotStore keyed_store;
  SnapshotFollower keyed(&keyed_store, kFollowerKey);
  BumpVersion(0);
  auto frames = service_.ExportFrames();
  frames.term = kMaxTerm;  // what a forger would push to fence the federation

  // Well-formed in every field, sealed under the wrong key: refused, and
  // neither the store nor the term fence moves.
  const auto ack = DecodeFrameAck(
      keyed.HandleReplication(EncodeFramePush(frames, kForgerKey)), kFollowerKey);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kRejected);
  EXPECT_EQ(keyed.push_rejected_count(), 1u);
  EXPECT_EQ(keyed_store.current(), nullptr);
  EXPECT_EQ(keyed.fence_term(), 0u);
  keyed.HandleBeacon(EncodeBeacon(kMaxTerm, frames.version, kForgerKey));
  EXPECT_EQ(keyed.beacon_count(), 0u);
  EXPECT_EQ(keyed.fence_term(), 0u);

  // A publisher holding the deployment key gets through.
  PublisherOptions options;
  options.key = kFollowerKey;
  SnapshotPublisher publisher(&service_, options);
  publisher.AddFollower("b.example", 1,
                        std::make_unique<InProcessTransport>(keyed.replication_handler()));
  EXPECT_EQ(publisher.PublishOnce(), 1u);
  EXPECT_EQ(keyed_store.version(), tracker_.version());
  keyed.HandleBeacon(publisher.BeaconFrame());
  EXPECT_EQ(keyed.beacon_count(), 1u);
}

// --- content-version stamps (service side) ----------------------------------

TEST_F(FederationTest, NoOpBumpCarriesContentStampsForward) {
  BumpVersion(0);
  const auto first = service_.ExportFrames();
  EXPECT_EQ(first.version, tracker_.version());
  EXPECT_EQ(first.view_version, first.version);
  ASSERT_EQ(first.row_versions.size(), static_cast<std::size_t>(first.num_pids));
  for (const auto rv : first.row_versions) EXPECT_EQ(rv, first.version);

  // Background traffic does not enter p-distances: the bump burns a
  // version but no row's bytes change, so every content stamp carries.
  std::vector<double> background(graph_.link_count(), 1e6);
  tracker_.set_background_bps(background);
  const auto second = service_.ExportFrames();
  EXPECT_EQ(second.version, first.version + 1);
  EXPECT_EQ(second.view_version, first.version);
  // The carried view is the same buffer, not a copy of it.
  EXPECT_EQ(second.external_view, first.external_view);
  EXPECT_EQ(testsupport::RowFrames(second), testsupport::RowFrames(first));
  EXPECT_EQ(second.row_versions, first.row_versions);
  EXPECT_NE(second.not_modified, first.not_modified);  // tracks the version

  // Conditional serving honors content-version tokens across the no-op
  // bump: a client holding the pre-bump view is told NotModified, not
  // re-sent an identical matrix with a fresher stamp.
  for (const auto& request :
       {Encode(GetExternalViewReq{first.version}),
        Encode(GetExternalViewReq{second.version}),
        Encode(GetPDistancesReq{3, first.version}),
        Encode(GetPDistancesReq{3, second.version})}) {
    const auto decoded = Decode(service_.Handle(request));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_NE(std::get_if<NotModifiedResp>(&*decoded), nullptr);
  }
  // The UDP validation fast path stays strict current-version-only (its
  // caching client pins the exact version, see caching_client.cc).
  const auto datagram = service_.HandleValidationDatagram(
      EncodeValidationRequest(ValidationRequest{1, first.version}));
  ASSERT_TRUE(datagram.has_value());
  const auto validation = DecodeValidationResponse(*datagram);
  ASSERT_TRUE(validation.has_value());
  EXPECT_EQ(validation->status, ValidationStatus::kRevalidateOverTcp);
}

TEST_F(FederationTest, PartialRepriceStampsOnlyTouchedRows) {
  BumpVersion(0);
  const auto first = service_.ExportFrames();

  // Reprice exactly one directed link: only the rows whose routed paths
  // cross it change. The rest keep their v1 bytes and stamps.
  std::vector<double> prices(graph_.link_count());
  for (std::size_t e = 0; e < prices.size(); ++e) {
    prices[e] = 1e-9 * (1.0 + static_cast<double>(e + 1));  // BumpVersion(0)
  }
  prices[0] *= 3.0;
  tracker_.SetStaticPrices(prices);
  const auto second = service_.ExportFrames();
  EXPECT_EQ(second.version, first.version + 1);
  EXPECT_EQ(second.view_version, second.version);  // a row changed => view did

  const auto first_rows = testsupport::RowFrames(first);
  const auto second_rows = testsupport::RowFrames(second);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < second_rows.size(); ++i) {
    if (second.row_versions[i] == second.version) {
      ++changed;
      EXPECT_NE(second_rows[i], first_rows[i]);
    } else {
      EXPECT_EQ(second.row_versions[i], first.version);
      EXPECT_EQ(second_rows[i], first_rows[i]);
      // An unchanged row's old token still earns NotModified now.
      const auto decoded = Decode(service_.Handle(
          Encode(GetPDistancesReq{static_cast<core::Pid>(i), first.version})));
      ASSERT_TRUE(decoded.has_value());
      EXPECT_NE(std::get_if<NotModifiedResp>(&*decoded), nullptr);
    }
  }
  EXPECT_GT(changed, 0u);
  EXPECT_LT(changed, second_rows.size());
}

TEST_F(FederationTest, EveryReplicaCutsServedRowsFromItsView) {
  // The publisher and two followers, checked after a push that restamps
  // every row and again after one that restamps only some (one link
  // repriced).
  ReplicatedSnapshotStore second_store;
  SnapshotFollower second_follower(&second_store);
  FollowerPortalService second_service(&second_store);
  SnapshotPublisher publisher(&service_);
  publisher.AddFollower("b.example", 1,
                        std::make_unique<InProcessTransport>(follower_.replication_handler()));
  publisher.AddFollower("c.example", 2, std::make_unique<InProcessTransport>(
                                            second_follower.replication_handler()));

  const auto check_every_row = [&](const std::string& when) {
    const auto exported = service_.ExportFrames();
    const std::vector<std::pair<std::string, std::pair<Handler, SnapshotFrameSet>>> replicas = {
        {"publisher", {service_.handler(), exported}},
        {"follower b", {follower_service_.handler(), *store_.current()}},
        {"follower c", {second_service.handler(), *second_store.current()}},
    };
    for (const auto& [name, replica] : replicas) {
      const auto& [handle, frames] = replica;
      const std::string where = when + ", " + name;
      ASSERT_EQ(frames.version, tracker_.version()) << where;
      ASSERT_EQ(frames.row_versions.size(), static_cast<std::size_t>(frames.num_pids));
      for (core::Pid i = 0; i < frames.num_pids; ++i) {
        const auto stamp = frames.row_versions[static_cast<std::size_t>(i)];
        EXPECT_EQ(handle(Encode(GetPDistancesReq{i})),
                  RowFrameFromView(frames.view(), i, stamp))
            << where << ", PID " << i;
        // The row's content stamp and the current version earn NotModified;
        // any other token gets the row.
        EXPECT_EQ(handle(Encode(GetPDistancesReq{i, stamp})), frames.not_modified) << where;
        EXPECT_EQ(handle(Encode(GetPDistancesReq{i, frames.version})), frames.not_modified)
            << where;
        EXPECT_EQ(handle(Encode(GetPDistancesReq{i, frames.version + 1})),
                  RowFrameFromView(frames.view(), i, stamp))
            << where;
      }
      for (const core::Pid bad : {core::Pid{-1}, frames.num_pids}) {
        EXPECT_EQ(handle(Encode(GetPDistancesReq{bad})), Encode(ErrorMsg{"unknown PID"}))
            << where << ", PID " << bad;
      }
    }
  };

  BumpOneLink(0);
  ASSERT_EQ(publisher.PublishOnce(), 2u);
  ASSERT_EQ(follower_.push_install_count(), 1u);
  ASSERT_EQ(second_follower.push_install_count(), 1u);
  check_every_row("after a full push");

  BumpOneLink(1);
  ASSERT_EQ(publisher.PublishOnce(), 2u);
  ASSERT_EQ(follower_.push_install_count(), 2u);
  ASSERT_EQ(second_follower.push_install_count(), 2u);
  // Some rows kept their old stamp, so old tokens are exercised above.
  const auto stamps = store_.current()->row_versions;
  ASSERT_LT(*std::min_element(stamps.begin(), stamps.end()), store_.current()->version);
  check_every_row("after a partial reprice");
}

// --- publisher push and pull ----------------------------------------------

TEST_F(FederationTest, PublishOnceShipsTheFullSetEveryVersion) {
  SnapshotPublisher publisher(&service_);
  publisher.AddFollower("b.example", 1,
                        std::make_unique<InProcessTransport>(
                            follower_.replication_handler()));

  // Every version, a partial reprice included, ships the one push frame
  // the publisher encoded for it, and the follower installs the
  // publisher's own frames.
  std::uint64_t bytes = 0;
  for (int round = 0; round < 3; ++round) {
    BumpOneLink(round);
    EXPECT_EQ(publisher.PublishOnce(), 1u);
    bytes += EncodeFramePush(*publisher.published_frames()).size();
    const auto frames = service_.ExportFrames();
    EXPECT_EQ(*store_.current()->external_view, *frames.external_view);
    EXPECT_EQ(store_.current()->row_versions, frames.row_versions);
  }
  EXPECT_EQ(publisher.full_frames_sent(), 3u);
  EXPECT_EQ(publisher.full_bytes_sent(), bytes);
  EXPECT_EQ(follower_.push_install_count(), 3u);
  EXPECT_EQ(publisher.delta_frames_sent(), 0u);
  EXPECT_EQ(publisher.delta_bytes_sent(), 0u);
}

/// A follower channel that parks inside Call until released, the way a
/// dead follower holds PublishOnce until its timeout.
class BlockingChannel final : public Transport {
 public:
  std::vector<std::uint8_t> Call(std::span<const std::uint8_t>) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    throw std::runtime_error("follower timed out");
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST_F(FederationTest, CountersAnswerWhileAPushIsInFlight) {
  SnapshotPublisher publisher(&service_);
  auto channel = std::make_unique<BlockingChannel>();
  auto* blocking = channel.get();
  publisher.AddFollower("dead.example", 1, std::move(channel));
  BumpVersion(0);
  std::thread publish([&] { publisher.PublishOnce(); });
  blocking->WaitEntered();

  // PublishOnce holds its lock across the follower call; every counter
  // must answer anyway.
  auto read = std::async(std::launch::async, [&] {
    return std::vector<std::uint64_t>{
        publisher.push_count(),       publisher.push_failure_count(),
        publisher.full_frames_sent(), publisher.full_bytes_sent(),
        publisher.pull_served_count(), publisher.stale_term_ack_count()};
  });
  const bool answered =
      read.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  blocking->Release();
  publish.join();
  ASSERT_TRUE(answered) << "a counter read waited for the publish round";
  const auto counters = read.get();
  EXPECT_EQ(counters[0], 1u);  // the push in flight is already counted
  EXPECT_EQ(counters[1], 0u);
  EXPECT_EQ(counters[2], 1u);
  EXPECT_GT(counters[3], 0u);
  EXPECT_EQ(publisher.push_failure_count(), 1u);
}

TEST_F(FederationTest, ReplicationEndpointsRejectRetiredFrames) {
  ReplicatedSnapshotStore keyed_store;
  SnapshotFollower keyed(&keyed_store, kTestKey);
  PublisherOptions options;
  options.key = kTestKey;
  SnapshotPublisher publisher(&service_, options);
  BumpVersion(0);
  InProcessTransport to_publisher(publisher.replication_handler());
  ASSERT_TRUE(keyed.PullOnce(to_publisher));
  const auto held = keyed_store.current();

  // MAC-valid frames in the retired layouts: both endpoints answer
  // kRejected, and nothing moves.
  for (const auto& bytes : {ForgedDeltaFrame(), ForgedNeedFullSetAck(),
                            ForgedWantFullPull()}) {
    const auto follower_ack = DecodeFrameAck(keyed.HandleReplication(bytes), kTestKey);
    ASSERT_TRUE(follower_ack.has_value());
    EXPECT_EQ(follower_ack->status, AckStatus::kRejected);
    const auto publisher_ack = DecodeFrameAck(publisher.HandleReplication(bytes), kTestKey);
    ASSERT_TRUE(publisher_ack.has_value());
    EXPECT_EQ(publisher_ack->status, AckStatus::kRejected);
  }
  EXPECT_EQ(keyed.push_rejected_count(), 3u);
  EXPECT_EQ(keyed.fence_term(), 0u);
  EXPECT_EQ(keyed_store.current(), held);
  EXPECT_EQ(publisher.pull_served_count(), 1u);
}

TEST_F(FederationTest, PullsAreAnsweredWithTheFullSet) {
  SnapshotPublisher publisher(&service_);
  BumpOneLink(0);
  const auto base_version = tracker_.version();
  ASSERT_EQ(service_.ExportFrames().version, base_version);
  BumpOneLink(1);  // restamps only the rows routed across link 0
  const auto head_version = tracker_.version();

  // A puller at the base, a brand-new one and one holding an older term's
  // set all get the same push frame the publisher ships to followers; a
  // current puller gets kAlreadyCurrent.
  const auto answer = publisher.HandleReplication(
      EncodeFramePull(FramePull{base_version, 0}));
  EXPECT_EQ(answer, EncodeFramePush(*publisher.published_frames()));
  EXPECT_EQ(publisher.HandleReplication(EncodeFramePull(FramePull{0, 0})), answer);
  publisher.SetTerm(2);
  const auto new_term = publisher.HandleReplication(
      EncodeFramePull(FramePull{head_version, 1}));
  const auto new_term_set = DecodeFramePush(new_term);
  ASSERT_TRUE(new_term_set.has_value());
  EXPECT_EQ(new_term_set->term, 2u);
  const auto ack = DecodeFrameAck(
      publisher.HandleReplication(EncodeFramePull(FramePull{head_version, 2})));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kAlreadyCurrent);
  EXPECT_EQ(publisher.pull_served_count(), 3u);
  EXPECT_EQ(publisher.full_frames_sent(), 3u);

  // PullOnce installs the answer end to end, one pull per call.
  InProcessTransport to_publisher(publisher.replication_handler());
  ASSERT_TRUE(follower_.PullOnce(to_publisher));
  BumpOneLink(2);
  ASSERT_TRUE(follower_.PullOnce(to_publisher));
  EXPECT_FALSE(follower_.PullOnce(to_publisher));
  EXPECT_EQ(store_.version(), tracker_.version());
  EXPECT_EQ(follower_.pull_count(), 3u);
  EXPECT_EQ(follower_.pull_install_count(), 2u);
  const auto frames = service_.ExportFrames();
  EXPECT_EQ(*store_.current()->external_view, *frames.external_view);
  EXPECT_EQ(store_.current()->row_versions, frames.row_versions);
}

TEST_F(FederationTest, VersionListenerFiresOnEveryMutator) {
  std::vector<std::uint64_t> seen;
  tracker_.RegisterVersionListener([&seen](std::uint64_t v) { seen.push_back(v); });

  tracker_.SetUniformPrices();
  tracker_.SetPricesFromOspf();
  BumpVersion(0);  // SetStaticPrices
  std::vector<double> background(graph_.link_count(), 1e6);
  tracker_.set_background_bps(background);
  std::vector<double> p4p(graph_.link_count(), 5e5);
  tracker_.Update(p4p);

  ASSERT_EQ(seen.size(), 5u);
  for (std::size_t i = 1; i < seen.size(); ++i) EXPECT_GT(seen[i], seen[i - 1]);
  EXPECT_EQ(seen.back(), tracker_.version());
}

TEST_F(FederationTest, BeaconGapDetectionTriggersPull) {
  SnapshotPublisher publisher(&service_);
  BumpVersion(0);
  // No push channel: the follower only hears the beacon.
  EXPECT_FALSE(follower_.behind());
  EXPECT_EQ(follower_.HandleBeacon(publisher.BeaconFrame()), std::nullopt);
  EXPECT_TRUE(follower_.behind());
  EXPECT_EQ(follower_.beacon_version(), tracker_.version());

  InProcessTransport to_publisher(publisher.replication_handler());
  EXPECT_TRUE(follower_.PullOnce(to_publisher));
  EXPECT_EQ(store_.version(), tracker_.version());
  EXPECT_FALSE(follower_.behind());
  EXPECT_EQ(publisher.pull_served_count(), 1u);

  // Already current: the next pull is answered kAlreadyCurrent.
  EXPECT_FALSE(follower_.PullOnce(to_publisher));
  EXPECT_EQ(follower_.pull_install_count(), 1u);

  // A stale (reordered) beacon never shrinks the known horizon.
  follower_.HandleBeacon(EncodeBeacon(0, 1));
  EXPECT_EQ(follower_.beacon_version(), tracker_.version());
  // Corrupt beacons are dropped by checksum.
  auto corrupt = publisher.BeaconFrame();
  corrupt[8] ^= 0x01;
  follower_.HandleBeacon(corrupt);
  EXPECT_EQ(follower_.beacon_version(), tracker_.version());
}

TEST_F(FederationTest, LossyReplicationConvergesWithInvariants) {
  // Fresh replica state per run lives in the fixture; this test drives one
  // lossy scenario and checks the safety invariants every round.
  SnapshotPublisher publisher(&service_);
  publisher.AddFollower(
      "b.example", 1,
      std::make_unique<testsupport::LossyCallChannel>(
          follower_.replication_handler(), /*drop_rate=*/0.3, /*corrupt_rate=*/0.3,
          /*seed=*/0xBADBEEF));
  InProcessTransport pull_channel(publisher.replication_handler());

  std::mt19937_64 beacon_rng(0xB34C04);
  testsupport::FaultProfile beacon_faults;
  beacon_faults.drop_rate = 0.3;
  beacon_faults.reorder_rate = 0.3;
  beacon_faults.corrupt_rate = 0.2;
  beacon_faults.delay_rate = 0.3;
  testsupport::FaultyDatagramLink beacon_link(beacon_faults, &beacon_rng);

  std::uint64_t last_served_version = 0;
  for (int round = 0; round < 40; ++round) {
    BumpVersion(round);
    publisher.PublishOnce();
    beacon_link.Push(publisher.BeaconFrame());
    beacon_link.Tick();
    while (auto datagram = beacon_link.Pop()) follower_.HandleBeacon(*datagram);
    if (follower_.behind()) {
      try {
        follower_.PullOnce(pull_channel);
      } catch (const std::exception&) {
      }
    }

    // Invariant: whatever the follower serves is a complete frame set of
    // one published version — never a version it holds no frames for,
    // never a mix, never a rollback.
    const auto frames = store_.current();
    const auto response = follower_service_.Handle(Encode(GetExternalViewReq{}));
    if (!frames) {
      const auto decoded = Decode(response);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_NE(std::get_if<UnavailableResp>(&*decoded), nullptr);
      continue;
    }
    EXPECT_EQ(response, *frames->external_view);
    const auto decoded = Decode(response);
    ASSERT_TRUE(decoded.has_value());
    const auto* view = std::get_if<GetExternalViewResp>(&*decoded);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->version, frames->version);
    EXPECT_LE(view->version, tracker_.version());
    EXPECT_GE(view->version, last_served_version);  // monotone
    last_served_version = view->version;
  }

  // Corruption was detected, never installed: rejects happened, yet every
  // installed frame set decoded cleanly (Install only sees decoded frames).
  EXPECT_GT(follower_.push_rejected_count() + follower_.push_install_count(), 0u);

  // Anti-entropy closes the gap once the link heals.
  while (store_.version() < tracker_.version()) {
    follower_.PullOnce(pull_channel);
  }
  EXPECT_EQ(store_.version(), tracker_.version());
  EXPECT_EQ(follower_service_.Handle(Encode(GetExternalViewReq{})),
            service_.Handle(Encode(GetExternalViewReq{})));
}

TEST(FederationReplayTest, LossySameSeedReplayIsBitIdentical) {
  // The whole lossy scenario — fault decisions, installs, served bytes — is
  // a pure function of the seed. Two runs must match bit for bit.
  const auto run = [](std::uint64_t seed) {
    net::Graph graph = net::MakeAbilene();
    net::RoutingTable routing(graph);
    core::ITracker tracker(graph, routing);
    ITrackerService service(&tracker);
    ReplicatedSnapshotStore store;
    FollowerPortalService follower_service(&store);
    SnapshotFollower follower(&store);
    SnapshotPublisher publisher(&service);
    publisher.AddFollower(
        "b.example", 1,
        std::make_unique<testsupport::LossyCallChannel>(follower.replication_handler(),
                                                        0.35, 0.35, seed));

    std::vector<std::uint64_t> versions;
    std::vector<std::uint8_t> served;
    for (int round = 0; round < 30; ++round) {
      std::vector<double> prices(graph.link_count());
      for (std::size_t e = 0; e < prices.size(); ++e) {
        prices[e] = 1e-9 * static_cast<double>((round + 1) + 3 * e);
      }
      tracker.SetStaticPrices(prices);
      publisher.PublishOnce();
      versions.push_back(store.version());
      const auto response = follower_service.Handle(Encode(GetExternalViewReq{}));
      served.insert(served.end(), response.begin(), response.end());
    }
    return std::make_pair(versions, served);
  };

  const auto first = run(0x5EED);
  const auto second = run(0x5EED);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  // A different seed takes a different lossy path (sanity that the faults
  // actually bite).
  const auto other = run(0xD1FF);
  EXPECT_NE(first.first, other.first);
}

TEST_F(FederationTest, ElectPublisherIsDeterministic) {
  PortalDirectory directory;
  EXPECT_EQ(ElectPublisher(directory, "isp.example"), std::nullopt);
  directory.AddRecord("isp.example", SrvRecord{"c.example", 7003, 1, 9});
  directory.AddRecord("isp.example", SrvRecord{"b.example", 7002, 0, 1});
  directory.AddRecord("isp.example", SrvRecord{"a.example", 7001, 0, 100});

  // Lowest priority wins; the weight never matters for election. Ties break
  // on (target, port) so every replica elects the same publisher.
  const auto elected = ElectPublisher(directory, "isp.example");
  ASSERT_TRUE(elected.has_value());
  EXPECT_EQ(elected->target, "a.example");
  EXPECT_EQ(elected->port, 7001);

  directory.AddRecord("isp.example", SrvRecord{"a.example", 7000, 0, 1});
  EXPECT_EQ(ElectPublisher(directory, "isp.example")->port, 7000);
}

// --- end-to-end failover over real sockets ----------------------------------

TEST(FederationFailoverTest, VersionTokenStaysValidAcrossReplicaFailover) {
  net::Graph graph = net::MakeAbilene();
  net::RoutingTable routing(graph);
  core::ITracker tracker(graph, routing);
  ITrackerService service(&tracker);

  ReplicatedSnapshotStore store;
  FollowerPortalService follower_service(&store);
  SnapshotFollower follower(&store);

  // Replica A: the publisher's portal. Replica B: a follower portal plus
  // its replication endpoint, all on real sockets.
  auto server_a = std::make_unique<TcpServer>(0, service.shared_handler(), 1);
  TcpServer server_b(0, follower_service.shared_handler(), 1);
  TcpServer replication_b(0, [&follower](std::span<const std::uint8_t> req) {
    return follower.HandleReplication(req);
  });

  PortalDirectory directory;
  directory.AddRecord("isp.example",
                      SrvRecord{"a.example", server_a->port(), 0, 1});
  directory.AddRecord("isp.example", SrvRecord{"b.example", server_b.port(), 1, 1});

  SnapshotPublisher publisher(&service);
  publisher.AddFollower("b.example", server_b.port(),
                        std::make_unique<TcpClient>(replication_b.port()));

  std::vector<double> prices(graph.link_count(), 2e-9);
  tracker.SetStaticPrices(prices);
  ASSERT_EQ(publisher.PublishOnce(), 1u);
  ASSERT_EQ(store.version(), tracker.version());

  // The client resolves the portal through the directory: replica A
  // (priority 0) wins, and the client holds its version token.
  std::mt19937_64 rng(7);
  const auto connect = [&directory, &rng] {
    const SrvRecord record = directory.Resolve("isp.example", rng).value();
    return std::make_pair(record, PortalClient(std::make_unique<TcpClient>(record.port)));
  };
  auto [record_a, client_a] = connect();
  ASSERT_EQ(record_a.target, "a.example");
  const auto [view, version] = client_a.GetExternalViewWithVersion();
  ASSERT_EQ(version, tracker.version());

  // Kill the publisher. The client drops its record and re-resolves to
  // replica B. The token must stay valid: B answers the conditional fetch
  // with NotModified from the replicated frames.
  const std::uint16_t port_a = server_a->port();
  server_a.reset();
  EXPECT_EQ(directory.RemoveRecord("isp.example", "a.example", port_a), 1u);
  auto [record_b, client_b] = connect();
  ASSERT_EQ(record_b.target, "b.example");
  ASSERT_EQ(record_b.port, server_b.port());
  const auto refreshed = client_b.GetExternalViewIfModified(version);
  EXPECT_FALSE(refreshed.has_value()) << "follower re-sent the matrix";

  // And a full fetch from B returns the same view bytes version-for-version.
  const auto [view_b, version_b] = client_b.GetExternalViewWithVersion();
  EXPECT_EQ(version_b, version);
  EXPECT_EQ(view_b.values().size(), view.values().size());
  for (std::size_t i = 0; i < view.values().size(); ++i) {
    EXPECT_EQ(view.values()[i], view_b.values()[i]);
  }
}

// --- publisher-republish vs follower-serve hammer (TSan target) -------------

TEST(FederationConcurrencyTest, RepublishVsServeHammer) {
  net::Graph graph = net::MakeAbilene();
  net::RoutingTable routing(graph);
  core::ITracker tracker(graph, routing);
  ITrackerService service(&tracker);
  ReplicatedSnapshotStore store;
  FollowerPortalService follower_service(&store);
  SnapshotFollower follower(&store);
  SnapshotPublisher publisher(&service);
  publisher.AddFollower("b.example", 1,
                        std::make_unique<InProcessTransport>(
                            follower.replication_handler()));

  // The republish trigger under test: every version bump publishes.
  tracker.RegisterVersionListener([&publisher](std::uint64_t) {
    publisher.PublishOnce();
  });

  constexpr int kMutations = 300;
  constexpr int kServers = 5;
  constexpr std::uint64_t kMinServed = 50;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> served{0};
  // Serve threads still running; a failed ASSERT returns from one early.
  std::atomic<int> servers_running{kServers};

  // 1 mutator/publisher thread + 1 beacon thread + 1 pull thread + 5
  // serve threads = 8 threads hammering the shared store.
  std::thread mutator([&] {
    std::vector<double> prices(graph.link_count());
    // At least kMutations, and on until the servers have answered from a
    // few dozen installed views: a fast publish path must not let the
    // mutator finish before the serve threads get going. The extra rounds
    // stop at a deadline or once every serve thread has exited, so a
    // starved or failing run ends in the assertions below, not a hang.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (int round = 0;
         round < kMutations ||
         (served.load() < kMinServed && servers_running.load() > 0 &&
          std::chrono::steady_clock::now() < deadline);
         ++round) {
      for (std::size_t e = 0; e < prices.size(); ++e) {
        prices[e] = 1e-9 * static_cast<double>((round + 1) + e);
      }
      tracker.SetStaticPrices(prices);
    }
    done.store(true);
  });

  std::thread beaconer([&] {
    while (!done.load()) follower.HandleBeacon(publisher.BeaconFrame());
  });

  std::thread puller([&] {
    InProcessTransport to_publisher(publisher.replication_handler());
    while (!done.load()) {
      if (follower.behind()) follower.PullOnce(to_publisher);
    }
  });

  std::vector<std::thread> servers;
  for (int t = 0; t < kServers; ++t) {
    servers.emplace_back([&, t] {
      struct Exit {
        std::atomic<int>& running;
        ~Exit() { running.fetch_sub(1); }
      } on_exit{servers_running};
      std::uint64_t last_version = 0;
      const auto view_req = Encode(GetExternalViewReq{});
      while (!done.load()) {
        const auto response = follower_service.HandleShared(view_req);
        const auto decoded = Decode(*response);
        ASSERT_TRUE(decoded.has_value());
        if (const auto* view = std::get_if<GetExternalViewResp>(&*decoded)) {
          ASSERT_GE(view->version, last_version);  // never a rollback
          last_version = view->version;
          // Conditional re-ask with the version just seen must yield
          // NotModified for that version or a newer full view.
          const auto conditional =
              Decode(follower_service.Handle(Encode(GetExternalViewReq{view->version})));
          ASSERT_TRUE(conditional.has_value());
          if (const auto* nm = std::get_if<NotModifiedResp>(&*conditional)) {
            ASSERT_EQ(nm->version, view->version);
          } else {
            const auto* newer = std::get_if<GetExternalViewResp>(&*conditional);
            ASSERT_NE(newer, nullptr);
            ASSERT_GT(newer->version, view->version);
          }
          // Row and validation answers come from one coherent frame set.
          const auto row = Decode(follower_service.Handle(
              Encode(GetPDistancesReq{static_cast<core::Pid>(t)})));
          ASSERT_TRUE(row.has_value());
          follower_service.HandleValidationDatagram(
              EncodeValidationRequest(ValidationRequest{served.load(), view->version}));
          served.fetch_add(1);
        } else {
          // Before the first install only UnavailableResp is acceptable.
          ASSERT_NE(std::get_if<UnavailableResp>(&*decoded), nullptr);
        }
      }
    });
  }

  mutator.join();
  beaconer.join();
  puller.join();
  for (auto& t : servers) t.join();

  // Convergence: one final publish round settles the follower at the last
  // version.
  publisher.PublishOnce();
  InProcessTransport to_publisher(publisher.replication_handler());
  follower.PullOnce(to_publisher);
  EXPECT_EQ(store.version(), tracker.version());
  EXPECT_GE(served.load(), kMinServed);
  EXPECT_EQ(follower_service.Handle(Encode(GetExternalViewReq{})),
            service.Handle(Encode(GetExternalViewReq{})));
}

}  // namespace
}  // namespace p4p::proto
