// Federated serving plane tests: frame codec totality, monotone installs,
// byte-identical follower serving, publisher push/pull/beacon replication
// under lossy links, directory version epochs, static publisher election,
// and the end-to-end failover guarantee — a version token obtained from the
// publisher must earn NotModified from a follower after failover.
#include "proto/federation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <thread>

#include "core/policy.h"
#include "net/topology.h"
#include "proto/messages.h"
#include "proto/resilient_client.h"
#include "proto/wire.h"
#include "support/fault_injection.h"

namespace p4p::proto {
namespace {

// --- codec ------------------------------------------------------------------

class FederationCodecTest : public ::testing::Test {
 protected:
  /// A coherent frame set: the external view's doubles and each row's
  /// doubles agree (row i is view row i), every frame's embedded version
  /// matches its content stamp — exactly what ITrackerService exports and
  /// what the delta splice/checksum chain depends on.
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
    f.external_view = Encode(view);
    for (int i = 0; i < num_pids; ++i) {
      GetPDistancesResp row;
      row.from = i;
      row.version = version;
      row.distances.assign(n, fill);
      f.rows.push_back(Encode(row));
    }
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
    // Rebuild the coherent view: decode the base's doubles row by row.
    GetExternalViewResp view;
    view.num_pids = base.num_pids;
    view.version = version;
    view.distances.reserve(n * n);
    for (int i = 0; i < base.num_pids; ++i) {
      const auto decoded = Decode(next.rows[static_cast<std::size_t>(i)]);
      view.distances.insert(
          view.distances.end(),
          std::get<GetPDistancesResp>(*decoded).distances.begin(),
          std::get<GetPDistancesResp>(*decoded).distances.end());
    }
    for (const int pid : changed_pids) {
      GetPDistancesResp row;
      row.from = pid;
      row.version = version;
      row.distances.assign(n, value);
      next.rows[static_cast<std::size_t>(pid)] = Encode(row);
      next.row_versions[static_cast<std::size_t>(pid)] = version;
      std::fill_n(view.distances.begin() + pid * base.num_pids, n, value);
    }
    next.external_view = Encode(view);
    return next;
  }

  /// The delta a correct publisher would ship to advance `base` to
  /// `target`: rows stamped newer than base, target checksum sealed in.
  DeltaPush MakeDelta(const SnapshotFrameSet& base, const SnapshotFrameSet& target) {
    DeltaPush delta;
    delta.base_version = base.version;
    delta.version = target.version;
    delta.view_version = target.view_version;
    delta.num_pids = target.num_pids;
    delta.not_modified = target.not_modified;
    delta.policy = target.policy;
    delta.result_checksum = FrameSetChecksum(target);
    for (std::size_t i = 0; i < target.rows.size(); ++i) {
      if (target.row_versions[i] > base.version) {
        delta.rows.push_back(DeltaRow{static_cast<std::int32_t>(i),
                                      target.row_versions[i], target.rows[i]});
      }
    }
    return delta;
  }
};

TEST_F(FederationCodecTest, PushRoundTrip) {
  auto frames = MakeFrames(7, 4);
  frames.view_version = 5;
  frames.row_versions = {5, 7, 3, 7};
  frames.policy = Encode(GetPolicyResp{});
  const auto bytes = EncodeFramePush(frames);
  EXPECT_EQ(PeekFederationTag(bytes), FederationTag::kFramePush);
  const auto decoded = DecodeFramePush(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->view_version, 5u);
  EXPECT_EQ(decoded->num_pids, 4);
  EXPECT_EQ(decoded->row_versions, frames.row_versions);
  EXPECT_EQ(decoded->not_modified, frames.not_modified);
  EXPECT_EQ(decoded->external_view, frames.external_view);
  EXPECT_EQ(decoded->rows, frames.rows);
  EXPECT_EQ(decoded->policy, frames.policy);
}

TEST_F(FederationCodecTest, PushRoundTripWithoutPolicy) {
  const auto frames = MakeFrames(3, 2);
  const auto decoded = DecodeFramePush(EncodeFramePush(frames));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->policy.empty());
}

TEST_F(FederationCodecTest, PushRejectsCorruptionAndTruncation) {
  const auto bytes = EncodeFramePush(MakeFrames(5, 3));
  // Any single-bit flip must be caught by the trailing FNV checksum (or the
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
  EXPECT_FALSE(pull->want_full);
  const auto full_pull =
      DecodeFramePull(EncodeFramePull(FramePull{4, /*have_term=*/2, true}));
  ASSERT_TRUE(full_pull.has_value());
  EXPECT_TRUE(full_pull->want_full);

  // The newer ack statuses decode; anything past kStaleTerm stays rejected.
  const auto need_full =
      DecodeFrameAck(EncodeFrameAck(FrameAck{AckStatus::kNeedFullSet, 3}));
  ASSERT_TRUE(need_full.has_value());
  EXPECT_EQ(need_full->status, AckStatus::kNeedFullSet);
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
    EXPECT_FALSE(DecodeDeltaPush(noise).has_value());
    EXPECT_FALSE(DecodeFrameAck(noise).has_value());
    EXPECT_FALSE(DecodeFramePull(noise).has_value());
    EXPECT_FALSE(DecodeBeacon(noise).has_value());
  }
}

/// Header, payload from `body`, and a valid trailing checksum: the frame
/// gets past CheckedPayload, so only the decoder's own bounds stand between
/// a forged count and an allocation.
std::vector<std::uint8_t> SealForged(FederationTag tag,
                                     const std::function<void(Writer&)>& body) {
  Writer w;
  w.u32(kFederationMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(tag));
  body(w);
  w.u32(FrameChecksum(w.bytes()));
  return w.take();
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
  EXPECT_EQ(bytes.size(), 50u);
  std::optional<SnapshotFrameSet> decoded;
  EXPECT_NO_THROW(decoded = DecodeFramePush(bytes));
  EXPECT_FALSE(decoded.has_value());
}

TEST_F(FederationCodecTest, DeltaRejectsRowCountBeyondPayload) {
  constexpr std::int32_t kHuge = std::numeric_limits<std::int32_t>::max();
  const auto bytes = SealForged(FederationTag::kDeltaPush, [](Writer& w) {
    w.u64(1);      // term
    w.u64(1);      // base_version
    w.u64(2);      // version
    w.u64(2);      // view_version
    w.i32(kHuge);  // num_pids
    w.blob({});    // not_modified
    w.u32(static_cast<std::uint32_t>(kHuge));  // num_rows
  });
  std::optional<DeltaPush> decoded;
  EXPECT_NO_THROW(decoded = DecodeDeltaPush(bytes));
  EXPECT_FALSE(decoded.has_value());
}

// --- delta codec ------------------------------------------------------------

TEST_F(FederationCodecTest, DeltaRoundTrip) {
  const auto base = MakeFrames(5, 4);
  auto target = Advance(base, 7, {1, 3}, 9.75);
  target.policy = Encode(GetPolicyResp{});
  const auto delta = MakeDelta(base, target);
  ASSERT_EQ(delta.rows.size(), 2u);

  const auto bytes = EncodeDeltaPush(delta);
  EXPECT_EQ(PeekFederationTag(bytes), FederationTag::kDeltaPush);
  const auto decoded = DecodeDeltaPush(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->base_version, 5u);
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->view_version, 7u);
  EXPECT_EQ(decoded->num_pids, 4);
  EXPECT_EQ(decoded->not_modified, target.not_modified);
  EXPECT_EQ(decoded->policy, target.policy);
  EXPECT_EQ(decoded->result_checksum, FrameSetChecksum(target));
  ASSERT_EQ(decoded->rows.size(), 2u);
  EXPECT_EQ(decoded->rows[0].pid, 1);
  EXPECT_EQ(decoded->rows[0].row_version, 7u);
  EXPECT_EQ(decoded->rows[0].bytes, target.rows[1]);
  EXPECT_EQ(decoded->rows[1].pid, 3);

  // A no-op version bump travels as an empty delta (stamps carried over).
  const auto empty_delta = MakeDelta(base, Advance(base, 6, {}, 0.0));
  EXPECT_TRUE(empty_delta.rows.empty());
  const auto empty_decoded = DecodeDeltaPush(EncodeDeltaPush(empty_delta));
  ASSERT_TRUE(empty_decoded.has_value());
  EXPECT_TRUE(empty_decoded->rows.empty());
  EXPECT_EQ(empty_decoded->view_version, 5u);
}

TEST_F(FederationCodecTest, DeltaRejectsCorruptionAndTruncation) {
  const auto base = MakeFrames(4, 3);
  const auto bytes = EncodeDeltaPush(MakeDelta(base, Advance(base, 6, {0, 2}, 3.5)));
  // Every single-bit flip dies on the trailing checksum (or header checks).
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    auto corrupt = bytes;
    corrupt[pos] ^= 0x10;
    EXPECT_FALSE(DecodeDeltaPush(corrupt).has_value()) << "bit flip at " << pos;
  }
  for (const std::size_t len : {std::size_t{0}, std::size_t{5}, std::size_t{9},
                                bytes.size() - 7, bytes.size() - 1}) {
    EXPECT_FALSE(DecodeDeltaPush(std::span(bytes).first(len)).has_value())
        << "truncated to " << len;
  }
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_FALSE(DecodeDeltaPush(extended).has_value());
  // Cross-tag confusion: a full push never decodes as a delta.
  EXPECT_FALSE(DecodeDeltaPush(EncodeFramePush(base)).has_value());
}

TEST_F(FederationCodecTest, DeltaRejectsIncoherentRelations) {
  const auto base = MakeFrames(5, 4);
  const auto target = Advance(base, 7, {1, 3}, 9.75);
  const auto good = MakeDelta(base, target);

  // Each mutation below could never come from a correct publisher; the
  // decoder refuses them structurally, before any store is involved.
  const auto expect_rejected = [](DeltaPush delta, const char* what) {
    EXPECT_FALSE(DecodeDeltaPush(EncodeDeltaPush(delta)).has_value()) << what;
  };
  {
    auto d = good;
    d.base_version = 7;  // base == version
    expect_rejected(d, "base not older than version");
  }
  {
    auto d = good;
    d.base_version = 9;  // base > version
    expect_rejected(d, "base newer than version");
  }
  {
    auto d = good;
    d.view_version = 8;  // view stamped past the set version
    expect_rejected(d, "view_version > version");
  }
  {
    auto d = good;
    std::swap(d.rows[0], d.rows[1]);  // pids 3, 1: not increasing
    expect_rejected(d, "rows out of pid order");
  }
  {
    auto d = good;
    d.rows[1].pid = 1;  // duplicate pid
    expect_rejected(d, "duplicate pid");
  }
  {
    auto d = good;
    d.rows[1].pid = 4;  // out of range
    expect_rejected(d, "pid >= num_pids");
  }
  {
    auto d = good;
    d.rows[0].row_version = 5;  // stamp not newer than base
    expect_rejected(d, "row stamp <= base");
  }
  {
    auto d = good;
    d.rows[0].row_version = 8;  // stamp newer than the set itself
    expect_rejected(d, "row stamp > version");
  }
  {
    auto d = good;
    d.num_pids = 1;  // more changed rows than pids exist
    expect_rejected(d, "row count exceeds num_pids");
  }
}

// --- delta installs ---------------------------------------------------------

class FederationDeltaStoreTest : public FederationCodecTest {
 protected:
  /// Field-by-field equality — a checksum collision must not pass this.
  static void ExpectSameFrames(const SnapshotFrameSet& got,
                               const SnapshotFrameSet& want) {
    EXPECT_EQ(got.version, want.version);
    EXPECT_EQ(got.view_version, want.view_version);
    EXPECT_EQ(got.num_pids, want.num_pids);
    EXPECT_EQ(got.not_modified, want.not_modified);
    EXPECT_EQ(got.external_view, want.external_view);
    EXPECT_EQ(got.rows, want.rows);
    EXPECT_EQ(got.row_versions, want.row_versions);
    EXPECT_EQ(got.policy, want.policy);
  }
};

TEST_F(FederationDeltaStoreTest, SplicesExactBaseDeltaByteForByte) {
  const auto base = MakeFrames(5, 4);
  const auto target = Advance(base, 7, {1, 3}, 9.75);
  ReplicatedSnapshotStore store;
  ASSERT_TRUE(store.Install(base));

  ASSERT_EQ(store.InstallDelta(MakeDelta(base, target)),
            ReplicatedSnapshotStore::DeltaResult::kInstalled);
  EXPECT_EQ(store.version(), 7u);
  // The spliced result — rows, view doubles, patched view version stamp —
  // is byte-identical to what a full push of the target would install.
  ExpectSameFrames(*store.current(), target);
  EXPECT_EQ(store.install_count(), 2u);
}

TEST_F(FederationDeltaStoreTest, EmptyDeltaAdvancesNoOpVersionBump) {
  const auto base = MakeFrames(5, 4);
  const auto target = Advance(base, 6, {}, 0.0);  // nothing repriced
  ReplicatedSnapshotStore store;
  ASSERT_TRUE(store.Install(base));
  ASSERT_EQ(store.InstallDelta(MakeDelta(base, target)),
            ReplicatedSnapshotStore::DeltaResult::kInstalled);
  EXPECT_EQ(store.version(), 6u);
  EXPECT_EQ(store.current()->view_version, 5u);  // stamps carried forward
  ExpectSameFrames(*store.current(), target);
}

TEST_F(FederationDeltaStoreTest, DuplicateAndReorderedDeltasNeverRollBack) {
  const auto v5 = MakeFrames(5, 4);
  const auto v7 = Advance(v5, 7, {1}, 2.0);
  const auto v9 = Advance(v7, 9, {2}, 3.0);
  ReplicatedSnapshotStore store;
  ASSERT_TRUE(store.Install(v5));
  ASSERT_EQ(store.InstallDelta(MakeDelta(v5, v7)),
            ReplicatedSnapshotStore::DeltaResult::kInstalled);
  ASSERT_EQ(store.InstallDelta(MakeDelta(v7, v9)),
            ReplicatedSnapshotStore::DeltaResult::kInstalled);

  // Duplicate of the 5->7 delta, and a reordered re-delivery of 7->9:
  // both stale, both ignored, held frames bit-identical afterwards.
  EXPECT_EQ(store.InstallDelta(MakeDelta(v5, v7)),
            ReplicatedSnapshotStore::DeltaResult::kStale);
  EXPECT_EQ(store.InstallDelta(MakeDelta(v7, v9)),
            ReplicatedSnapshotStore::DeltaResult::kStale);
  EXPECT_EQ(store.version(), 9u);
  ExpectSameFrames(*store.current(), v9);
  EXPECT_EQ(store.stale_install_count(), 2u);
}

TEST_F(FederationDeltaStoreTest, RefusesMismatchedBaseWithoutRollback) {
  const auto v5 = MakeFrames(5, 4);
  const auto v7 = Advance(v5, 7, {1}, 2.0);
  const auto v9 = Advance(v7, 9, {2}, 3.0);

  // A store that never installed anything has no base at all.
  ReplicatedSnapshotStore fresh;
  EXPECT_EQ(fresh.InstallDelta(MakeDelta(v5, v7)),
            ReplicatedSnapshotStore::DeltaResult::kBaseMismatch);
  EXPECT_EQ(fresh.current(), nullptr);

  // Held base 5, delta computed against 7: exact-base rule refuses it even
  // though the version is newer — "close enough" does not exist.
  ReplicatedSnapshotStore store;
  ASSERT_TRUE(store.Install(v5));
  EXPECT_EQ(store.InstallDelta(MakeDelta(v7, v9)),
            ReplicatedSnapshotStore::DeltaResult::kBaseMismatch);
  EXPECT_EQ(store.version(), 5u);
  ExpectSameFrames(*store.current(), v5);

  // Shape mismatch (different topology epoch) is a base mismatch too.
  const auto other = MakeFrames(5, 3);
  auto wrong_shape = MakeDelta(other, Advance(other, 7, {0}, 4.0));
  EXPECT_EQ(store.InstallDelta(wrong_shape),
            ReplicatedSnapshotStore::DeltaResult::kBaseMismatch);
  EXPECT_EQ(store.version(), 5u);
}

TEST_F(FederationDeltaStoreTest, ChecksumChainCatchesDivergenceWithoutRollback) {
  const auto v5 = MakeFrames(5, 4);
  const auto v7 = Advance(v5, 7, {1, 3}, 9.75);
  ReplicatedSnapshotStore store;
  ASSERT_TRUE(store.Install(v5));

  // Tampered target checksum: the splice succeeds mechanically but the
  // chain refuses to publish it.
  auto tampered = MakeDelta(v5, v7);
  tampered.result_checksum ^= 0x1;
  EXPECT_EQ(store.InstallDelta(tampered),
            ReplicatedSnapshotStore::DeltaResult::kChecksumMismatch);
  EXPECT_EQ(store.version(), 5u);
  ExpectSameFrames(*store.current(), v5);

  // A substituted row (right shape, wrong bytes) breaks the chain the
  // same way — the forged doubles never become servable.
  auto forged = MakeDelta(v5, v7);
  forged.rows[0].bytes = v5.rows[1];
  EXPECT_EQ(store.InstallDelta(forged),
            ReplicatedSnapshotStore::DeltaResult::kChecksumMismatch);
  EXPECT_EQ(store.version(), 5u);

  // A malformed row length cannot even reach the checksum.
  auto short_row = MakeDelta(v5, v7);
  short_row.rows[0].bytes.pop_back();
  EXPECT_EQ(store.InstallDelta(short_row),
            ReplicatedSnapshotStore::DeltaResult::kBaseMismatch);
  EXPECT_EQ(store.version(), 5u);
  EXPECT_EQ(store.install_count(), 1u);
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
  /// only the rows routed across it change, so the publisher can ship a
  /// delta (the first call changes everything — bootstrap accordingly).
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
  EXPECT_EQ(frames.external_view, service_.Handle(Encode(GetExternalViewReq{})));
  EXPECT_EQ(frames.rows.size(), static_cast<std::size_t>(tracker_.num_pids()));
  for (core::Pid i = 0; i < tracker_.num_pids(); ++i) {
    EXPECT_EQ(frames.rows[static_cast<std::size_t>(i)],
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

// --- content-version stamps (service side) ----------------------------------

TEST_F(FederationTest, NoOpBumpCarriesContentStampsForward) {
  BumpVersion(0);
  const auto first = service_.ExportFrames();
  EXPECT_EQ(first.version, tracker_.version());
  EXPECT_EQ(first.view_version, first.version);
  ASSERT_EQ(first.row_versions.size(), first.rows.size());
  for (const auto rv : first.row_versions) EXPECT_EQ(rv, first.version);

  // Background traffic does not enter p-distances: the bump burns a
  // version but no row's bytes change, so every content stamp carries.
  std::vector<double> background(graph_.link_count(), 1e6);
  tracker_.set_background_bps(background);
  const auto second = service_.ExportFrames();
  EXPECT_EQ(second.version, first.version + 1);
  EXPECT_EQ(second.view_version, first.version);
  EXPECT_EQ(second.external_view, first.external_view);
  EXPECT_EQ(second.rows, first.rows);
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
  // cross it change. The rest keep their v1 bytes and stamps — the delta
  // workload this PR exists for.
  std::vector<double> prices(graph_.link_count());
  for (std::size_t e = 0; e < prices.size(); ++e) {
    prices[e] = 1e-9 * (1.0 + static_cast<double>(e + 1));  // BumpVersion(0)
  }
  prices[0] *= 3.0;
  tracker_.SetStaticPrices(prices);
  const auto second = service_.ExportFrames();
  EXPECT_EQ(second.version, first.version + 1);
  EXPECT_EQ(second.view_version, second.version);  // a row changed => view did

  std::size_t changed = 0;
  for (std::size_t i = 0; i < second.rows.size(); ++i) {
    if (second.row_versions[i] == second.version) {
      ++changed;
      EXPECT_NE(second.rows[i], first.rows[i]);
    } else {
      EXPECT_EQ(second.row_versions[i], first.version);
      EXPECT_EQ(second.rows[i], first.rows[i]);
      // An unchanged row's old token still earns NotModified now.
      const auto decoded = Decode(service_.Handle(
          Encode(GetPDistancesReq{static_cast<core::Pid>(i), first.version})));
      ASSERT_TRUE(decoded.has_value());
      EXPECT_NE(std::get_if<NotModifiedResp>(&*decoded), nullptr);
    }
  }
  EXPECT_GT(changed, 0u);
  EXPECT_LT(changed, second.rows.size());
}

// --- publisher delta path ---------------------------------------------------

TEST_F(FederationTest, PublishOnceShipsDeltasToAckedFollowers) {
  SnapshotPublisher publisher(&service_);
  publisher.AddFollower("b.example", 1,
                        std::make_unique<InProcessTransport>(
                            follower_.replication_handler()));

  // Bootstrap: no acked base exists, so the first push is the full set.
  BumpOneLink(0);
  EXPECT_EQ(publisher.PublishOnce(), 1u);
  EXPECT_EQ(publisher.full_frames_sent(), 1u);
  EXPECT_EQ(publisher.delta_frames_sent(), 0u);

  // From then on every version rides a delta, and the installed result is
  // byte-identical to the publisher's own frames.
  BumpOneLink(1);
  EXPECT_EQ(publisher.PublishOnce(), 1u);
  EXPECT_EQ(publisher.delta_frames_sent(), 1u);
  EXPECT_EQ(publisher.full_frames_sent(), 1u);
  EXPECT_EQ(follower_.delta_install_count(), 1u);
  EXPECT_EQ(store_.version(), tracker_.version());
  const auto frames = service_.ExportFrames();
  EXPECT_EQ(FrameSetChecksum(*store_.current()), FrameSetChecksum(frames));
  EXPECT_EQ(store_.current()->external_view, frames.external_view);
  EXPECT_EQ(store_.current()->rows, frames.rows);

  // Deltas are strictly smaller than the full frames they replace.
  EXPECT_LT(publisher.delta_bytes_sent(), publisher.full_bytes_sent());

  // A delta-disabled publisher (the conformance oracle) never sends one.
  PublisherOptions full_only;
  full_only.enable_delta = false;
  ReplicatedSnapshotStore oracle_store;
  SnapshotFollower oracle_follower(&oracle_store);
  SnapshotPublisher oracle(&service_, full_only);
  oracle.AddFollower("c.example", 2,
                     std::make_unique<InProcessTransport>(
                         oracle_follower.replication_handler()));
  EXPECT_EQ(oracle.PublishOnce(), 1u);
  BumpOneLink(2);
  EXPECT_EQ(oracle.PublishOnce(), 1u);
  EXPECT_EQ(oracle.delta_frames_sent(), 0u);
  EXPECT_EQ(oracle.full_frames_sent(), 2u);
}

TEST_F(FederationTest, NeedFullSetAckTriggersSameRoundFullRetry) {
  SnapshotPublisher publisher(&service_);
  publisher.AddFollower("b.example", 1,
                        std::make_unique<InProcessTransport>(
                            follower_.replication_handler()));
  BumpOneLink(0);
  ASSERT_EQ(publisher.PublishOnce(), 1u);  // acked base: v1

  // The follower quietly advances past the publisher's book-keeping (a
  // direct pull the publisher never saw), so the next delta is computed
  // against a base the follower no longer holds.
  BumpOneLink(1);
  InProcessTransport to_publisher(publisher.replication_handler());
  ASSERT_TRUE(follower_.PullOnce(to_publisher));
  ASSERT_EQ(store_.version(), tracker_.version());

  BumpOneLink(2);
  EXPECT_EQ(publisher.PublishOnce(), 1u);  // recovered within the round
  EXPECT_EQ(store_.version(), tracker_.version());
  EXPECT_EQ(publisher.delta_fallback_count(), 1u);
  EXPECT_EQ(follower_.delta_fallback_count(), 1u);
  const auto frames = service_.ExportFrames();
  EXPECT_EQ(store_.current()->external_view, frames.external_view);

  // The fallback is sticky only until an ack: the next publish goes back
  // to the delta path.
  BumpOneLink(3);
  const auto deltas_before = publisher.delta_frames_sent();
  EXPECT_EQ(publisher.PublishOnce(), 1u);
  EXPECT_EQ(publisher.delta_frames_sent(), deltas_before + 1);
  EXPECT_EQ(follower_.delta_install_count(), 1u + 1u);
}

TEST_F(FederationTest, ReplicationEndpointAcksDeltaOutcomes) {
  BumpOneLink(0);
  const auto v1 = service_.ExportFrames();
  BumpOneLink(1);
  const auto v2 = service_.ExportFrames();

  // Build the delta the publisher would ship for 1 -> 2.
  DeltaPush delta;
  delta.base_version = v1.version;
  delta.version = v2.version;
  delta.view_version = v2.view_version;
  delta.num_pids = v2.num_pids;
  delta.not_modified = v2.not_modified;
  delta.policy = v2.policy;
  delta.result_checksum = FrameSetChecksum(v2);
  for (std::size_t i = 0; i < v2.rows.size(); ++i) {
    if (v2.row_versions[i] > v1.version) {
      delta.rows.push_back(DeltaRow{static_cast<std::int32_t>(i),
                                    v2.row_versions[i], v2.rows[i]});
    }
  }
  const auto delta_bytes = EncodeDeltaPush(delta);

  // Against an empty store: kNeedFullSet (no base), store untouched.
  const auto no_base = DecodeFrameAck(follower_.HandleReplication(delta_bytes));
  ASSERT_TRUE(no_base.has_value());
  EXPECT_EQ(no_base->status, AckStatus::kNeedFullSet);
  EXPECT_EQ(store_.version(), 0u);

  // With the base installed: kInstalled.
  ASSERT_TRUE(store_.Install(v1));
  const auto installed = DecodeFrameAck(follower_.HandleReplication(delta_bytes));
  ASSERT_TRUE(installed.has_value());
  EXPECT_EQ(installed->status, AckStatus::kInstalled);
  EXPECT_EQ(installed->version, v2.version);
  EXPECT_EQ(store_.current()->external_view, v2.external_view);

  // Re-delivered (duplicate) delta: kAlreadyCurrent, no rollback.
  const auto duplicate = DecodeFrameAck(follower_.HandleReplication(delta_bytes));
  ASSERT_TRUE(duplicate.has_value());
  EXPECT_EQ(duplicate->status, AckStatus::kAlreadyCurrent);
  EXPECT_EQ(store_.version(), v2.version);
  EXPECT_EQ(follower_.delta_stale_count(), 1u);

  // Corrupt delta frames get kRejected — never silence, never a crash.
  auto corrupt = delta_bytes;
  corrupt[corrupt.size() / 2] ^= 0x04;
  const auto rejected = DecodeFrameAck(follower_.HandleReplication(corrupt));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->status, AckStatus::kRejected);
  EXPECT_EQ(store_.version(), v2.version);
  EXPECT_EQ(follower_.push_rejected_count(), 1u);
}

TEST_F(FederationTest, PullsAreAnsweredWithDeltasWhenPossible) {
  SnapshotPublisher publisher(&service_);
  BumpOneLink(0);  // restamps every row (prices leave the constructor's map)
  const auto base_version = tracker_.version();
  // Content stamps are diff-based, so the service must see the base
  // version before the next bump for the head's stamps to stay partial.
  ASSERT_EQ(service_.ExportFrames().version, base_version);
  BumpOneLink(1);  // restamps only the rows routed across link 0
  const auto head_version = tracker_.version();

  // A puller at the base gets a delta; want_full forces the full frame
  // set; a current puller gets kAlreadyCurrent either way.
  const auto delta_answer = publisher.HandleReplication(
      EncodeFramePull(FramePull{base_version, 0, false}));
  EXPECT_EQ(PeekFederationTag(delta_answer), FederationTag::kDeltaPush);
  const auto full_answer = publisher.HandleReplication(
      EncodeFramePull(FramePull{base_version, 0, true}));
  EXPECT_EQ(PeekFederationTag(full_answer), FederationTag::kFramePush);
  const auto current_answer = publisher.HandleReplication(
      EncodeFramePull(FramePull{head_version, 0, false}));
  const auto ack = DecodeFrameAck(current_answer);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kAlreadyCurrent);
  // A brand-new puller (version 0) can only be served the full set.
  EXPECT_EQ(PeekFederationTag(
                publisher.HandleReplication(EncodeFramePull(FramePull{0, 0, false}))),
            FederationTag::kFramePush);

  // PullOnce rides the delta path end to end: install the current full
  // set, advance one link, and the follow-up pull travels as a delta.
  ASSERT_TRUE(DecodeFramePush(full_answer).has_value());
  ASSERT_TRUE(store_.Install(*DecodeFramePush(
      publisher.HandleReplication(EncodeFramePull(FramePull{0, 0, true})))));
  BumpOneLink(2);
  InProcessTransport to_publisher(publisher.replication_handler());
  ASSERT_TRUE(follower_.PullOnce(to_publisher));
  EXPECT_EQ(store_.version(), tracker_.version());
  EXPECT_EQ(follower_.delta_install_count(), 1u);
  EXPECT_EQ(follower_.pull_install_count(), 1u);
  const auto frames = service_.ExportFrames();
  EXPECT_EQ(store_.current()->external_view, frames.external_view);
  EXPECT_EQ(store_.current()->rows, frames.rows);
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

// A request/response channel that drops (throws) or corrupts frames with
// seeded randomness — the TCP-push analogue of FaultyDatagramLink.
class LossyFrameChannel final : public Transport {
 public:
  LossyFrameChannel(Handler backend, double drop_rate, double corrupt_rate,
                    std::uint64_t seed)
      : backend_(std::move(backend)), drop_rate_(drop_rate),
        corrupt_rate_(corrupt_rate), rng_(seed) {}

  std::vector<std::uint8_t> Call(std::span<const std::uint8_t> request) override {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(rng_) < drop_rate_) throw std::runtime_error("request lost");
    std::vector<std::uint8_t> delivered(request.begin(), request.end());
    if (!delivered.empty() && u(rng_) < corrupt_rate_) FlipBit(delivered);
    auto response = backend_(delivered);
    if (u(rng_) < drop_rate_) throw std::runtime_error("response lost");
    if (!response.empty() && u(rng_) < corrupt_rate_) FlipBit(response);
    return response;
  }

 private:
  void FlipBit(std::vector<std::uint8_t>& bytes) {
    std::uniform_int_distribution<std::size_t> pick(0, bytes.size() * 8 - 1);
    const std::size_t bit = pick(rng_);
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }

  Handler backend_;
  double drop_rate_;
  double corrupt_rate_;
  std::mt19937_64 rng_;
};

TEST_F(FederationTest, LossyReplicationConvergesWithInvariants) {
  // Fresh replica state per run lives in the fixture; this test drives one
  // lossy scenario and checks the safety invariants every round.
  SnapshotPublisher publisher(&service_);
  publisher.AddFollower(
      "b.example", 1,
      std::make_unique<LossyFrameChannel>(follower_.replication_handler(),
                                          /*drop_rate=*/0.3, /*corrupt_rate=*/0.3,
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
    EXPECT_EQ(response, frames->external_view);
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
        std::make_unique<LossyFrameChannel>(follower.replication_handler(), 0.35,
                                            0.35, seed));

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

TEST_F(FederationTest, DirectoryEpochsSteerClientsAwayFromLaggards) {
  PortalDirectory directory;
  directory.AddRecord("isp.example", SrvRecord{"fresh.example", 7001, 0, 1});
  directory.AddRecord("isp.example", SrvRecord{"laggard.example", 7002, 0, 1});
  directory.UpdateVersionEpoch("isp.example", "fresh.example", 7001, 5);
  directory.UpdateVersionEpoch("isp.example", "laggard.example", 7002, 2);
  EXPECT_EQ(directory.version_epoch("isp.example", "fresh.example", 7001), 5u);
  EXPECT_EQ(directory.max_version_epoch("isp.example"), 5u);
  // Epochs are monotone: an out-of-order (older) ack cannot regress one.
  EXPECT_EQ(directory.UpdateVersionEpoch("isp.example", "fresh.example", 7001, 3), 0u);
  EXPECT_EQ(directory.version_epoch("isp.example", "fresh.example", 7001), 5u);
  // Unknown endpoints are not invented.
  EXPECT_EQ(directory.UpdateVersionEpoch("isp.example", "ghost.example", 9, 9), 0u);

  // With prefer_fresh_replicas, the fresh replica is tried first on every
  // call, regardless of where the SRV weighted shuffle puts it.
  std::atomic<int> fresh_calls{0};
  std::atomic<int> laggard_calls{0};
  ResilientClientOptions options;
  options.prefer_fresh_replicas = true;
  ResilientPortalClient client(
      &directory, "isp.example",
      [&](const SrvRecord& record) -> std::unique_ptr<Transport> {
        auto& counter = record.target == "fresh.example" ? fresh_calls : laggard_calls;
        return std::make_unique<InProcessTransport>(
            [&counter](std::span<const std::uint8_t>) {
              ++counter;
              return Encode(NotModifiedResp{5});
            });
      },
      options);

  for (int i = 0; i < 20; ++i) {
    client.Call(Encode(GetExternalViewReq{5}));
  }
  EXPECT_EQ(fresh_calls.load(), 20);
  EXPECT_EQ(laggard_calls.load(), 0);
  EXPECT_EQ(client.laggard_demotion_count(), 20u);
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

  PublisherOptions pub_options;
  pub_options.directory = &directory;
  pub_options.domain = "isp.example";
  pub_options.self_target = "a.example";
  pub_options.self_port = server_a->port();
  SnapshotPublisher publisher(&service, pub_options);
  publisher.AddFollower("b.example", server_b.port(),
                        std::make_unique<TcpClient>(replication_b.port()));

  std::vector<double> prices(graph.link_count(), 2e-9);
  tracker.SetStaticPrices(prices);
  ASSERT_EQ(publisher.PublishOnce(), 1u);
  ASSERT_EQ(store.version(), tracker.version());
  EXPECT_EQ(directory.version_epoch("isp.example", "b.example", server_b.port()),
            tracker.version());
  EXPECT_EQ(directory.max_version_epoch("isp.example"), tracker.version());

  // All replicas serve behind one failover transport (every connection goes
  // to the live SRV-preferred replica).
  ResilientClientOptions options;
  options.prefer_fresh_replicas = true;
  auto resilient = std::make_unique<ResilientPortalClient>(
      &directory, "isp.example",
      [](const SrvRecord& record) -> std::unique_ptr<Transport> {
        return std::make_unique<TcpClient>(record.port);
      },
      options);
  auto* resilient_raw = resilient.get();
  PortalClient client(std::move(resilient));

  // Fetch from replica A (priority 0) and hold its version token.
  const auto [view, version] = client.GetExternalViewWithVersion();
  ASSERT_EQ(version, tracker.version());

  // Kill the publisher. The token must stay valid: replica B answers the
  // conditional fetch with NotModified from the replicated frames.
  server_a.reset();
  const auto refreshed = client.GetExternalViewIfModified(version);
  EXPECT_FALSE(refreshed.has_value()) << "follower re-sent the matrix";
  EXPECT_GE(resilient_raw->failover_count(), 1u);

  // And a full fetch from B returns the same view bytes version-for-version.
  const auto [view_b, version_b] = client.GetExternalViewWithVersion();
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
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> served{0};

  // 1 mutator/publisher thread + 1 beacon thread + 1 pull thread + 5
  // serve threads = 8 threads hammering the shared store.
  std::thread mutator([&] {
    std::vector<double> prices(graph.link_count());
    for (int round = 0; round < kMutations; ++round) {
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
  for (int t = 0; t < 5; ++t) {
    servers.emplace_back([&, t] {
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
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(follower_service.Handle(Encode(GetExternalViewReq{})),
            service.Handle(Encode(GetExternalViewReq{})));
}

}  // namespace
}  // namespace p4p::proto
